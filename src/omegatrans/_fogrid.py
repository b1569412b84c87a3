"""The numpy grid evaluator behind ``fologic.evaluate`` and ``bulk_evaluate``.

Every free variable is assigned positions, and a quantifier adds an axis
over its range; the ``fologic`` docstring proves the range exact.  A
position assigned as a 0-d value becomes a Python int, and every other
one an int64 array, so one evaluator serves both the single assignments of
``evaluate`` and the grids of ``bulk_evaluate``.

A formula is compiled once into a ``Plan``: a tree of closures, one per
node, chosen when the plan is built rather than by type tests on every
call.  Three more savings:

* Equal quantified subformulas share one closure, and it evaluates them
  once per environment (the dict of one quantifier scope).  The memo is
  keyed by the dict's identity, so every entry keeps its dict alive until
  the evaluation ends: a freed dict's id could otherwise be reused by a
  later scope, which would read a stale result.
* ``&``, ``|`` and ``->`` skip their right operand when the left one is a
  0-d value that decides the result.
* A ``Label`` at a 0-d position indexes the word's letters in Python; at
  an array of positions it indexes a table of the letter's positions,
  built once per evaluation.

Building a plan walks the formula, so ``fologic.plan`` keeps it on the
formula object: it lives exactly as long as the formula, and the deep
copies of a machine share their formulas and so their plans.  A cache
keyed by formula identity would instead hold every copy's formulas, and
a fresh plan for each, for the life of the process.

This module is the only part of ``fologic`` that needs numpy, and
``fologic`` imports it on the first evaluation, so parsing, printing and
every verb that evaluates no formula run without loading numpy.
"""

import numpy as np

from .fologic import (And, Eq, Exists, Forall, Implies, Label, Leq, Less, Not, Or,
                      free_variables, margin_at_depth, quantifier_depth)


_INT64 = np.dtype(np.int64)
_INT64_MAX = int(np.iinfo(np.int64).max)


class Plan:
    """A formula compiled for the grid evaluator.

    free is the set of its free variables and depth its quantifier depth.
    """

    __slots__ = ("free", "depth", "_run")

    def __init__(self, f):
        self.free = frozenset(free_variables(f))
        self.depth = quantifier_depth(f)
        self._run = _build(f, _repeated_quantifiers(f), {})

    def evaluate(self, word, env):
        """f under the assignments env as a bool array of their broadcast shape.

        Raises TypeError when a variable is assigned positions whose dtype
        is not integer (floats, bools and strings included), and ValueError
        for a position below 1.
        """
        env, top, shape = _positions(env)
        margin = margin_at_depth(self.depth, word)
        # Quantifiers reach top + depth * margin and allocate ranges that
        # long, so a letter table as long costs no more.  Without them the
        # positions are the caller's, perhaps few and far out, and the table
        # covers the margin only.
        reach = top + self.depth * margin if self.depth else margin
        out = self._run(env, top, _Context(word, margin, reach))
        if type(out) is bool:
            return np.array(out) if not shape else np.full(shape, out)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


def _positions(env):
    """env checked, with 0-d positions as ints and the others as int64 arrays;
    also the largest position (0 if none) and the broadcast shape."""
    out, top, shapes = {}, 0, []
    for v, a in env.items():
        if type(a) is not int or a > _INT64_MAX:
            a = np.asarray(a)
            if a.dtype is not _INT64:
                if a.dtype.kind not in "iu":
                    raise TypeError(
                        "variable %r is assigned %s positions; positions are integers"
                        % (v, a.dtype))
                a = a.astype(np.int64)
            if a.ndim == 0:
                a = int(a)
        if type(a) is int:
            low = high = a
        else:
            low, high = int(a.min(initial=1)), int(a.max(initial=0))
            shapes.append(a.shape)
        if low < 1:
            raise ValueError(
                "variable %r is assigned position %d; positions start at 1" % (v, low)
            )
        top = max(top, high)
        out[v] = a
    return out, top, np.broadcast_shapes(*shapes) if shapes else ()


class _Context:
    """One evaluation: the word, the quantifier margin, the letter tables
    and the results of shared subformulas."""

    __slots__ = ("word", "text", "p", "q", "margin", "reach", "memo", "_tables")

    def __init__(self, word, margin, reach):
        self.word = word
        self.p = len(word.prefix)
        self.q = len(word.period)
        self.text = word.prefix + word.period
        self.margin = margin
        self.reach = reach
        self.memo = {}
        self._tables = {}

    def matches(self, letter, pos, top):
        """Whether the letter sits at each position of the array pos.

        top bounds the positions; past reach they are folded into u v.
        """
        table = self._tables.get(letter)
        if table is None:
            text = self.word.prefix_of(self.reach).encode("utf-32-le", "surrogatepass")
            table = self._tables[letter] = np.frombuffer(text, dtype=np.uint32) == ord(letter)
        if top > self.reach:
            p = self.p
            pos = np.where(pos <= p, pos, p + 1 + (pos - p - 1) % self.q)
        return table[pos - 1]


def _repeated_quantifiers(f):
    """The quantified subformulas that occur more than once in f."""
    seen, repeated = set(), set()

    def walk(g):
        if isinstance(g, (Exists, Forall)):
            if g in seen:
                repeated.add(g)
                return
            seen.add(g)
            walk(g.body)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return repeated


# Every node of a plan is a function (env, top, ctx) -> value, where env
# maps variables to ints or int64 arrays, top is the largest position in
# env and ctx the _Context.  A value is a Python bool when it is 0-d and a
# bool array otherwise; the arrays under a quantifier carry its axis last.
def _build(f, repeated, shared):
    if isinstance(f, Eq):
        x, y = f
        return lambda env, top, ctx: env[x] == env[y]
    if isinstance(f, Leq):
        x, y = f
        return lambda env, top, ctx: env[x] <= env[y]
    if isinstance(f, Less):
        x, y = f
        return lambda env, top, ctx: env[x] < env[y]
    if isinstance(f, Label):
        return _label(*f)
    if isinstance(f, Not):
        return _not(_build(f.body, repeated, shared))
    if isinstance(f, (And, Or, Implies)):
        left = _build(f.left, repeated, shared)
        right = _build(f.right, repeated, shared)
        return {And: _and, Or: _or, Implies: _implies}[type(f)](left, right)
    if isinstance(f, (Exists, Forall)):
        if f in shared:
            return shared[f]
        run = _quantifier(f.var, _build(f.body, repeated, shared), isinstance(f, Forall))
        if f in repeated:
            run = shared[f] = _memoized(run)
        return run
    raise TypeError("not a formula: %r" % (f,))


def _label(letter, x):
    def run(env, top, ctx):
        pos = env[x]
        if type(pos) is int:
            p = ctx.p
            return ctx.text[pos - 1 if pos <= p else p + (pos - p - 1) % ctx.q] == letter
        return ctx.matches(letter, pos, top)

    return run


def _not(body):
    def run(env, top, ctx):
        held = body(env, top, ctx)
        return (not held) if type(held) is bool else ~held

    return run


def _and(left, right):
    def run(env, top, ctx):
        held = left(env, top, ctx)
        if type(held) is bool:
            return right(env, top, ctx) if held else False
        return held & right(env, top, ctx)

    return run


def _or(left, right):
    def run(env, top, ctx):
        held = left(env, top, ctx)
        if type(held) is bool:
            return True if held else right(env, top, ctx)
        return held | right(env, top, ctx)

    return run


def _implies(left, right):
    def run(env, top, ctx):
        held = left(env, top, ctx)
        if type(held) is bool:
            return right(env, top, ctx) if held else True
        return ~held | right(env, top, ctx)

    return run


def _quantifier(var, body, every):
    def run(env, top, ctx):
        inner = {v: a if type(a) is int else a[..., np.newaxis] for v, a in env.items()}
        # The new variable is the largest position of the inner scope.
        top += ctx.margin
        inner[var] = np.arange(1, top + 1)
        held = body(inner, top, ctx)
        # The range is never empty, so a body that ignores var decides alone.
        if type(held) is bool:
            return held
        held = held.all(axis=-1) if every else held.any(axis=-1)
        return bool(held) if held.ndim == 0 else held

    return run


def _memoized(run):
    def shared(env, top, ctx):
        key = (run, id(env))
        hit = ctx.memo.get(key)
        if hit is None:
            # The entry holds env, so no later scope's dict can take its id.
            hit = ctx.memo[key] = (env, run(env, top, ctx))
        return hit[1]

    return shared
