"""Transducers defined by first-order formulas over word positions.

A machine consists of a domain sentence, a finite tuple of copies, one
label formula per (copy, output letter) with free variable x, and one
order formula per ordered pair of copies with free variables x and y.
On an input word the output nodes are the labeled (copy, position)
pairs; the order formulas generate edges between nodes, and the output
string reads the labels along the unique linearization of those edges.

Execution is windowed.  Nodes are materialized for input positions
1..W, the unique minimal node is removed repeatedly (Kahn's algorithm),
and W doubles until two consecutive windows agree on the requested
prefix.  Formula evaluation over the window runs on numpy grids, with
the same horizon-doubling stability check as the scalar evaluator.
"""

import numpy as np

from .fologic import (
    DEFAULT_CONFIG,
    Eq,
    Exists,
    Forall,
    Implies,
    Label,
    Leq,
    Less,
    Not,
    And,
    Or,
    Unstable,
    evaluate,
    format_formula,
    free_variables,
    horizon_for,
)
from .muller import CapExceeded
from .sst import NotInDomain


class Fot:
    """A transducer given by first-order formulas.

    labels maps (copy, letter) to a formula with free variable x; order
    maps (copy, copy) to a formula with free variables x, y, read as
    "the node of the first copy at x comes before the node of the
    second copy at y".  Every ordered pair of copies needs an entry.
    """

    def __init__(self, alphabet, copies, domain, labels, order):
        self.alphabet = alphabet
        self.copies = tuple(copies)
        self.domain = domain
        self.labels = dict(labels)
        self.order = dict(order)
        if not self.copies:
            raise ValueError("a transducer needs at least one copy")
        if free_variables(self.domain):
            raise ValueError("the domain formula must be a sentence")
        for (c, letter), f in self.labels.items():
            if c not in self.copies:
                raise ValueError("label for unknown copy %r" % (c,))
            extra = free_variables(f) - {"x"}
            if extra:
                raise ValueError(
                    "label formula for (%r, %r) has stray free variables %s"
                    % (c, letter, sorted(extra))
                )
        for c in self.copies:
            for d in self.copies:
                if (c, d) not in self.order:
                    raise ValueError("missing order formula for copies (%r, %r)" % (c, d))
        for (c, d), f in self.order.items():
            extra = free_variables(f) - {"x", "y"}
            if extra:
                raise ValueError(
                    "order formula for (%r, %r) has stray free variables %s"
                    % (c, d, sorted(extra))
                )

    def output_letters(self):
        return sorted({letter for _, letter in self.labels})


def fot_domain(t, word, config=DEFAULT_CONFIG):
    """Whether the word satisfies the domain sentence."""
    return evaluate(t.domain, word, {}, config)


def node_label(t, word, copy, pos, config=DEFAULT_CONFIG):
    """The output letter of the node at (copy, pos), or None if unlabeled."""
    found = None
    for (c, letter), f in sorted(t.labels.items(), key=lambda kv: str(kv[0])):
        if c != copy:
            continue
        if evaluate(f, word, {"x": pos}, config):
            if found is not None:
                raise ValueError(
                    "copy %r position %d carries ambiguous labels %r and %r"
                    % (copy, pos, found, letter)
                )
            found = letter
    return found


# ---------------------------------------------------------------------------
# Bulk evaluation on numpy grids.
# ---------------------------------------------------------------------------


def _letters_array(word, n):
    return np.array([word.letter_at(i) for i in range(1, n + 1)], dtype=object)


def _bulk_at(f, letters, env, horizon):
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    if isinstance(f, Leq):
        return env[f.x] <= env[f.y]
    if isinstance(f, Less):
        return env[f.x] < env[f.y]
    if isinstance(f, Label):
        return letters[env[f.x] - 1] == f.letter
    if isinstance(f, Not):
        return ~_bulk_at(f.body, letters, env, horizon)
    if isinstance(f, And):
        return _bulk_at(f.left, letters, env, horizon) & _bulk_at(
            f.right, letters, env, horizon
        )
    if isinstance(f, Or):
        return _bulk_at(f.left, letters, env, horizon) | _bulk_at(
            f.right, letters, env, horizon
        )
    if isinstance(f, Implies):
        return ~_bulk_at(f.left, letters, env, horizon) | _bulk_at(
            f.right, letters, env, horizon
        )
    if isinstance(f, (Exists, Forall)):
        inner = {v: a[..., np.newaxis] for v, a in env.items()}
        inner[f.var] = np.arange(1, horizon + 1)
        body = _bulk_at(f.body, letters, inner, horizon)
        if isinstance(f, Exists):
            return body.any(axis=-1)
        return body.all(axis=-1)
    raise TypeError("not a formula: %r" % (f,))


def bulk_evaluate(f, word, env, config=DEFAULT_CONFIG):
    """Evaluate f on a whole grid of assignments at once.

    env maps each free variable to an integer array of 1-based positions;
    the arrays broadcast against each other and the result has the
    broadcast shape.  Stability is checked exactly like the scalar
    evaluator: the verdict grid must survive doubling the horizon.
    """
    missing = free_variables(f) - set(env)
    if missing:
        raise ValueError("unassigned free variables: %s" % sorted(missing))
    h = horizon_for(f, word, config)
    top = h * (2 ** config.stability_doublings)
    widest = max([top] + [int(a.max()) for a in env.values() if a.size])
    letters = _letters_array(word, widest)
    verdict = np.asarray(_bulk_at(f, letters, env, h))
    for _ in range(config.stability_doublings):
        h *= 2
        if not np.array_equal(np.asarray(_bulk_at(f, letters, env, h)), verdict):
            raise Unstable(
                "verdict flipped at horizon %d for %s" % (h, format_formula(f))
            )
    return verdict


# ---------------------------------------------------------------------------
# Windowed output extraction.
# ---------------------------------------------------------------------------


def _label_grid(t, word, window, config):
    """Per copy, the array of output letters for positions 1..window.

    Unlabeled positions hold the empty string.  Raises ValueError if two
    label formulas of one copy hit the same position.
    """
    pos = np.arange(1, window + 1)
    grid = {}
    for c in t.copies:
        lab = np.full(window, "", dtype=object)
        for (cc, letter), f in sorted(t.labels.items(), key=lambda kv: str(kv[0])):
            if cc != c:
                continue
            hit = np.asarray(bulk_evaluate(f, word, {"x": pos}, config), dtype=bool)
            clash = hit & (lab != "")
            if clash.any():
                i = int(pos[clash][0])
                raise ValueError(
                    "copy %r position %d carries ambiguous labels %r and %r"
                    % (c, i, lab[clash][0], letter)
                )
            lab[hit] = letter
        grid[c] = lab
    return grid


def _topo_prefix(m, want):
    """Pop unique minimal nodes from the edge matrix, up to want of them.

    Returns (kind, indexes) where kind is "ok" (want nodes emitted),
    "short" (nodes ran out first) or "split" (the next minimal node is
    not unique, which also covers cycles).
    """
    n = m.shape[0]
    alive = np.ones(n, dtype=bool)
    indeg = m.sum(axis=0)
    out = []
    while len(out) < want:
        if not alive.any():
            return "short", out
        zero = alive & (indeg == 0)
        if int(zero.sum()) != 1:
            return "split", out
        u = int(np.flatnonzero(zero)[0])
        out.append(u)
        alive[u] = False
        indeg = indeg - m[u]
    return "ok", out


def _prefix_at_window(t, word, k, window, config):
    grid = _label_grid(t, word, window, config)
    nodes = []
    spans = {}
    positions = {}
    for c in t.copies:
        idx = np.flatnonzero(grid[c] != "")
        spans[c] = (len(nodes), len(nodes) + len(idx))
        positions[c] = idx + 1
        nodes.extend((c, int(i) + 1) for i in idx)
    if not nodes:
        return "short", ""
    m = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for c in t.copies:
        xs = positions[c]
        if not xs.size:
            continue
        for d in t.copies:
            ys = positions[d]
            if not ys.size:
                continue
            g = bulk_evaluate(
                t.order[(c, d)], word, {"x": xs[:, None], "y": ys[None, :]}, config
            )
            m[spans[c][0] : spans[c][1], spans[d][0] : spans[d][1]] = g
    np.fill_diagonal(m, False)
    kind, seq = _topo_prefix(m, k)
    letters = np.concatenate([grid[c][positions[c] - 1] for c in t.copies])
    return kind, "".join(letters[u] for u in seq)


def run_fot(t, word, k, window=None, max_window=4096, config=DEFAULT_CONFIG):
    """The first k output letters of the transducer on the word.

    The position window starts near k and doubles until two consecutive
    windows agree on the prefix.  Raises NotInDomain if the domain
    sentence fails, ValueError if the order never singles out a unique
    next node ("not string-shaped"), and CapExceeded if no stable prefix
    emerges within max_window.
    """
    if k <= 0:
        return ""
    if not fot_domain(t, word, config):
        raise NotInDomain(frozenset(), "rejected: the domain sentence is false")
    w = window or max(16, 1 << (k - 1).bit_length())
    prev = None
    kind = "short"
    while w <= max_window:
        kind, s = _prefix_at_window(t, word, k, w, config)
        if kind == "ok":
            if s == prev:
                return s
            prev = s
        else:
            prev = None
        w *= 2
    if kind == "split":
        raise ValueError(
            "not string-shaped: the order formulas do not single out a unique "
            "next output node (window %d)" % (w // 2)
        )
    raise CapExceeded(
        "window exhausted: no stable %d-letter prefix within window %d" % (k, w // 2)
    )
