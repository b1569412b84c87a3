"""Transducers defined by first-order formulas over word positions.

A machine consists of a domain sentence, a finite tuple of copies, one
label formula per (copy, output letter) with free variable x, and one
order formula per ordered pair of copies with free variables x and y.
On an input word the output nodes are the labeled (copy, position)
pairs, and the order formulas give edges between them.  The output is
string-shaped when removing the one node that no remaining node has an
edge to, again and again, removes every node (Kahn's algorithm); the
output string reads the labels in that order.  Equivalently, the nodes
can be listed so that every edge points forward and consecutive nodes
are joined by an edge.

Running is exact.  On w = u v^omega write p = |u|, q = |v|, d for the
largest quantifier depth of a label or order formula, c = 2^d + 1,
G = p + c q, and sigma for the shift (e, x) -> (e, x + q).  A node is far
when its position is past G, and m counts the nodes at positions
G+1..G+q.  The shift argument of ``fologic`` gives three facts:

(L) a label formula has the same truth at x and x - q once x > G, so
    sigma maps the far nodes onto the nodes past G + q;
(S) an order formula has the same truth at (x, y) and (x - q, y - q) once
    x, y > G, so sigma keeps the edges between far nodes;
(P) it has the same truth at (x, y) and (x, y - q) once
    y > max(x, p) + c q, and likewise with the roles of x and y swapped.

If m = 0 no node lies past G, and Kahn's algorithm runs on a finite
graph; the output is finite and padded with ``words.PAD``.  Otherwise:

1. In-edges.  If the output is string-shaped, every edge into a node n
   starts at most c q past max(n, p): an edge from farther repeats by (P)
   from infinitely many nodes, and n would never be removed.
2. Each removal is exact.  Let R = max(G, the furthest removed position);
   every node past R is still there.  A node y past R + (c+2) q has no
   edge from a remaining node exactly when sigma^-1 y has none: use (P)
   for sources up to R + q and (S) for sources beyond, which remain
   together with their shift.  So the minimal nodes past R + (c+1) q come
   in whole sigma-orbits, and a node that is the only minimal one up to
   R + (c+3) q is the only one anywhere.  Edges into y from past
   max(y, p) + c q repeat every period by (P), so if there is one, there
   is one from the period after max(R, y + c q, p + c q), whose nodes
   remain.  Hence sources up to R + (2c+4) q decide minimality up to
   R + (c+3) q.
3. The period.  Suppose that after i removals every node up to G is gone,
   and that the nodes removed after i + m are those up to G + q plus
   sigma of the far nodes removed after i.  Then the remaining graph at
   i + m is sigma of the one at i; by (S) and (L) sigma is an isomorphism
   that keeps labels, so the removals from i + m on repeat those from i
   shifted by q.  The output is prefix . block^omega: the first i labels,
   then the next m forever.
4. The window.  Let the output be string-shaped, a < b when a is removed
   before b, and M = m c q.
   (i) y < a implies y <= max(a, G) + M.  Take y of largest position with
   y < a and the chain of consecutive nodes from y to a.  Up to its first
   node at or before L = max(a, G) it is a run of far nodes that moves
   left at most c q per step (step 1) and ends within L + c q.  Each new
   leftmost node of the run is the first of its (copy, position mod q)
   class on the run: an earlier sigma^j x would give, by (S), the
   descending chain ... < sigma^2j x < sigma^j x < x.  So the run has at
   most m new minima, and y <= L + M.
   (ii) Let the rank of a node count the nodes before it.  By (i) no node
   up to G comes after a node past G + M, so the chain between two nodes
   past G + M stays far and sigma keeps their order; every node past
   G + 2M comes after every node up to G + M; and for x past G + 2M the
   rank of sigma x is the rank of x plus m.  Let i be one more than the
   rank of the last node at or before G + 2M.  Every later node lies past
   G + 2M, so the node of rank r + m is sigma of the node of rank r for
   r >= i, and step 3 applies at i.  By (i) every node removed in the
   first i + m steps lies within G + 3M + q.
   Hence a window of G + 3M + q + (2c+4) q positions decides every case:
   if removal is not unique within it, or R passes G + 3M + q before the
   period of step 3 shows, the output is not string-shaped.

Only running and ``node_label`` touch numpy: ``_label_rows`` and
``_output_lasso`` import it, and the formulas are evaluated by
``fologic``'s grid evaluator through their plans, which also give
``_output_lasso`` the depths.  Building, parsing and printing a machine do
not load it.
"""

from .fologic import bulk_evaluate, evaluate, free_variables, plan
from .sst import NotInDomain, check_length
from .words import spell


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


def fot_domain(t, word):
    """Whether the word satisfies the domain sentence."""
    return evaluate(t.domain, word, {})


def node_label(t, word, copy, pos):
    """The output letter of the node at (copy, pos), or None if unlabeled;
    ValueError when two labels of any one copy hit the position."""
    return _label_rows(t, word, [pos])[copy][0] or None


def _label_rows(t, word, positions):
    """Per copy, the array of output letters at the given 1-based positions.

    Unlabeled positions hold the empty string.  Raises ValueError if two
    label formulas of one copy hit the same position.
    """
    import numpy as np

    pos = np.asarray(positions)
    rows = {}
    for c in t.copies:
        lab = np.full(len(pos), "", dtype=object)
        for (cc, letter), f in sorted(t.labels.items(), key=lambda kv: str(kv[0])):
            if cc != c:
                continue
            hit = bulk_evaluate(f, word, {"x": pos})
            clash = hit & (lab != "")
            if clash.any():
                i = int(pos[clash][0])
                raise ValueError(
                    "copy %r position %d carries ambiguous labels %r and %r"
                    % (c, i, lab[clash][0], letter)
                )
            lab[hit] = letter
        rows[c] = lab
    return rows


def _output_lasso(t, word):
    """The output on the word as (prefix, block): prefix . block^omega.

    An empty block means the output is finite.  Raises ValueError when the
    output is not string-shaped.  The module docstring proves the window.
    """
    import numpy as np

    p, q = len(word.prefix), len(word.period)
    formulas = list(t.labels.values()) + list(t.order.values())
    c = 2 ** max(plan(f).depth for f in formulas) + 1
    G = p + c * q
    rows = _label_rows(t, word, np.arange(1, G + q + 1))
    m = sum(int((rows[a][G:] != "").sum()) for a in t.copies)
    limit = G + 3 * m * c * q + q
    window = limit + (2 * c + 4) * q

    # The nodes of the window, copy by copy; labels repeat past G (L).
    pos, owner, letters, spans = [], [], [], {}
    for a in t.copies:
        row = np.concatenate([rows[a], np.resize(rows[a][G:], window - G - q)])
        xs = np.flatnonzero(row != "") + 1
        spans[a] = slice(len(pos), len(pos) + len(xs))
        pos.extend(xs)
        owner.extend([a] * len(xs))
        letters.extend(row[xs - 1])
    pos = np.array(pos, dtype=np.int64)
    n = len(pos)
    edge = np.zeros((n, n), dtype=bool)
    for a in t.copies:
        for b in t.copies:
            xs, ys = pos[spans[a]], pos[spans[b]]
            if xs.size and ys.size:
                edge[spans[a], spans[b]] = bulk_evaluate(
                    t.order[(a, b)], word, {"x": xs[:, None], "y": ys[None, :]}
                )
    np.fill_diagonal(edge, False)

    index = {(owner[i], int(pos[i])): i for i in range(n)}
    shifted = np.array([index.get((owner[i], int(pos[i]) + q), -1) for i in range(n)])
    near, first, far = pos <= G, pos <= G + q, pos > G
    alive = np.ones(n, dtype=bool)
    indeg = edge.sum(axis=0)
    rank = np.full(n, n)
    order = []
    reach = G
    while alive.any():
        # Step 2: the only minimal node up to reach + (c+3) q is the only one.
        hits = np.flatnonzero(alive & (indeg == 0) & (pos <= reach + (c + 3) * q))
        if len(hits) != 1:
            raise ValueError(
                "not string-shaped: the order formulas do not single out a "
                "unique next output node after %d nodes" % len(order)
            )
        u = hits[0]
        rank[u] = len(order)
        order.append(u)
        alive[u] = False
        indeg -= edge[u]
        reach = max(reach, int(pos[u]))
        # Step 3: the removals after i repeat from i + m, shifted by q.  Both
        # sides of its set equation have i + m nodes, so containment is enough.
        i = len(order) - m
        if m and i >= 0 and (rank[near] < i).all() and not alive[first].any():
            if (rank[shifted[far & (rank < i)]] < n).all():
                text = "".join(letters[j] for j in order)
                return text[:i], text[i:]
        if reach > limit:
            raise ValueError(
                "not string-shaped: the output order does not repeat with the "
                "input period by position %d" % limit
            )
    return "".join(letters[j] for j in order), ""


def run_fot(t, word, k):
    """The first k output letters of the transducer on the word.

    The output is exact: ``_output_lasso`` describes it once per word, and
    the k letters are sliced off, padded with ``words.PAD`` when the output
    is finite.  Raises NotInDomain if the domain sentence fails, and
    ValueError for k < 0, or if the output is not string-shaped or a
    position carries two labels of one copy.
    """
    check_length(k)
    if not fot_domain(t, word):
        raise NotInDomain(frozenset(), "rejected: the domain sentence is false")
    if k == 0:
        return ""
    return spell(*_output_lasso(t, word), k)
