"""The numpy grid evaluator behind ``fologic.evaluate`` and ``bulk_evaluate``.

Every free variable is assigned an array of positions, and a quantifier
adds an axis over its range; the ``fologic`` docstring proves the range
exact.  This module is the only part of ``fologic`` that needs numpy, and
``fologic`` imports it on the first evaluation, so parsing, printing and
every verb that evaluates no formula run without loading numpy.
"""

import numpy as np

from .fologic import And, Eq, Exists, Forall, Implies, Label, Leq, Less, Not, Or


class _Word:
    """Letter lookup at arbitrary positions of u v^omega, for whole arrays."""

    def __init__(self, word):
        self.p = len(word.prefix)
        self.q = len(word.period)
        self.codes = np.array([ord(a) for a in word.prefix + word.period])

    def has(self, letter, pos):
        p = self.p
        index = np.where(pos <= p, pos - 1, p + (pos - p - 1) % self.q)
        return self.codes[index] == ord(letter)


def _grid(f, word, env, margin):
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    if isinstance(f, Leq):
        return env[f.x] <= env[f.y]
    if isinstance(f, Less):
        return env[f.x] < env[f.y]
    if isinstance(f, Label):
        return word.has(f.letter, env[f.x])
    if isinstance(f, Not):
        return ~_grid(f.body, word, env, margin)
    if isinstance(f, And):
        return _grid(f.left, word, env, margin) & _grid(f.right, word, env, margin)
    if isinstance(f, Or):
        return _grid(f.left, word, env, margin) | _grid(f.right, word, env, margin)
    if isinstance(f, Implies):
        return ~_grid(f.left, word, env, margin) | _grid(f.right, word, env, margin)
    if isinstance(f, (Exists, Forall)):
        top = max((int(a.max()) for a in env.values()), default=0)
        inner = {v: a[..., np.newaxis] for v, a in env.items()}
        inner[f.var] = np.arange(1, top + margin + 1)
        body = _grid(f.body, word, inner, margin)
        if isinstance(f, Exists):
            return body.any(axis=-1)
        return body.all(axis=-1)
    raise TypeError("not a formula: %r" % (f,))


def grid_evaluate(f, word, env, margin):
    """f under the assignments env as a bool array of their broadcast shape.

    margin is ``fologic.witness_margin(f, word)``.  Raises ValueError when a
    variable is assigned a position below 1.
    """
    env = {v: np.asarray(a, dtype=np.int64) for v, a in env.items()}
    for v, a in env.items():
        # int() of evaluate's 0-d arrays costs a tenth of a reduction.
        low = int(a) if a.ndim == 0 else a.min(initial=1)
        if low < 1:
            raise ValueError(
                "variable %r is assigned position %d; positions start at 1" % (v, low)
            )
    return np.asarray(_grid(f, _Word(word), env, margin), dtype=bool)
