"""Independent answers the benchmark checks the package against.

Nothing here calls the package's algebra.  The monoid reference stores an
element of a Muller or flow monoid as one tuple per source state: the
destination state, the canonical visited-state set of the run, and (flow
monoid only) the |X| x |X| copy counts saturated at 2.  A coordinate tuple
of the package's matrices is a bijective function of the canonical visited
set (the set itself when it lies inside some accepting set, TOP otherwise,
the empty set for the empty word), so both representations generate
monoids of the same size, and breadth-first generation in sorted letter
order yields the same shortlex-least words.
"""

TOP = -1


def _bit_index(states):
    return {q: i for i, q in enumerate(states)}


def _canon(mask, sets):
    if not sets:
        return 0
    if mask == TOP:
        return TOP
    for f in sets:
        if mask & ~f == 0:
            return mask
    return TOP


class RefMonoid:
    """Elements in breadth-first order, each with its shortlex-least word."""

    def __init__(self, elements, words, mul):
        self.elements = elements
        self.words = words
        self._mul = mul

    def __len__(self):
        return len(self.elements)

    def _power_cycle(self, m):
        seen = {}
        cur = m
        k = 1
        while cur not in seen:
            seen[cur] = k
            cur = self._mul(cur, m)
            k += 1
        return k - seen[cur]

    def aperiodicity_witness(self):
        for m, w in zip(self.elements, self.words):
            if self._power_cycle(m) != 1:
                return w
        return None

    def one_bounded_witness(self):
        for m, w in zip(self.elements, self.words):
            if any(c >= 2 for _, _, counts in m for c in counts):
                return w
        return None


def _generate(gens, identity, mul, cap):
    elements = [identity]
    words = [""]
    index = {identity: 0}
    frontier = [0]
    letters = sorted(gens)
    while frontier:
        nxt = []
        for i in frontier:
            for a in letters:
                m2 = mul(elements[i], gens[a])
                if m2 not in index:
                    if len(elements) >= cap:
                        return None
                    index[m2] = len(elements)
                    elements.append(m2)
                    words.append(words[i] + a)
                    nxt.append(index[m2])
        frontier = nxt
    return RefMonoid(elements, words, mul)


def dma_reference(d, cap=10 ** 6):
    """Reference transition monoid of a deterministic Muller automaton."""
    idx = _bit_index(d.states)
    sets = [sum(1 << idx[q] for q in f) for f in d.muller_sets]
    n = len(d.states)

    def mul(m1, m2):
        out = []
        for q1, v1 in m1:
            q2, v2 = m2[q1]
            out.append((q2, _canon(v1 | v2, sets)))
        return tuple(out)

    identity = tuple((p, 0) for p in range(n))
    gens = {}
    for a in d.alphabet:
        row = []
        for p in d.states:
            q = d.delta[(p, a)]
            row.append((idx[q], _canon((1 << idx[p]) | (1 << idx[q]), sets)))
        gens[a] = tuple(row)
    return _generate(gens, identity, mul, cap)


def sst_reference(t, cap=10 ** 6):
    """Reference flow monoid of a streaming transducer (counts saturate at 2).

    The counts of a state are stored row-major: counts[x * |X| + y] copies
    of x's content before the factor sit inside y's content after it.
    """
    idx = _bit_index(t.states)
    sets = [sum(1 << idx[q] for q in f) for f in t.F]
    xs = t.variables
    nx = len(xs)
    rng = range(nx)

    def mul(m1, m2):
        out = []
        for q1, v1, c1 in m1:
            q2, v2, c2 = m2[q1]
            counts = []
            for x in rng:
                row = c1[x * nx:(x + 1) * nx]
                for y in rng:
                    s = 0
                    for z in rng:
                        if row[z]:
                            s += row[z] * c2[z * nx + y]
                    counts.append(2 if s > 2 else s)
            out.append((q2, _canon(v1 | v2, sets), tuple(counts)))
        return tuple(out)

    eye = tuple(1 if x == y else 0 for x in rng for y in rng)
    identity = tuple((p, 0, eye) for p in range(len(t.states)))
    gens = {}
    for a in t.alphabet:
        row = []
        for p in t.states:
            q = t.delta[(p, a)]
            subst = t.update[(p, a)]
            counts = tuple(
                min(2, sum(1 for item in subst[y] if item == ("var", x)))
                for x in xs
                for y in xs
            )
            row.append(
                (idx[q], _canon((1 << idx[p]) | (1 << idx[q]), sets), counts)
            )
        gens[a] = tuple(row)
    return _generate(gens, identity, mul, cap)


def is_copyless_machine(t):
    """Every update uses each variable at most once, across all right sides."""
    for subst in t.update.values():
        seen = []
        for rhs in subst.values():
            seen.extend(v for kind, v in rhs if kind == "var")
        if len(seen) != len(set(seen)):
            return False
    return True


def power_cycle_of_word(matrix_of, w, limit):
    """Cycle length of the powers of w's element, each power built directly
    from w^n by matrix_of; None when no repeat shows within limit powers."""
    seen = {}
    for n in range(1, limit + 1):
        m = matrix_of(w * n)
        if m in seen:
            return n - seen[m]
        seen[m] = n
    return None


# ---------------------------------------------------------------------------
# The mirror-copy map, computed from its definition.


def _separators(word):
    return [i + 1 for i, ch in enumerate(word.prefix) if ch == "#"]


def mirror_output(word, k):
    """First k letters of the mirror map on a word whose separators all sit
    in its prefix: u1#..#un# t  ->  rev(u1)u1#..rev(un)un# t."""
    last = word.prefix.rfind("#")
    blocks = word.prefix[: last + 1].split("#")[:-1]
    out = "".join(b[::-1] + b + "#" for b in blocks)
    rest = word.prefix[last + 1:]
    while len(out) + len(rest) < k:
        rest += word.period
    return (out + rest)[:k]


def mirror_formula_truth(word, key, x, y=None):
    """Truth of the mirror transducer's formulas (fixtures.mirror_fot) from
    their meaning: separators all lie in the prefix, so "a separator after
    x" and "a separator strictly between x and y" are read off directly."""
    seps = _separators(word)
    reach = any(s > x for s in seps)
    letter = word.letter_at(x)
    if key == "dom":
        return True
    kind, a, b = key
    if kind == "label":
        if a in (1, 2):
            return letter == b and letter != "#" and reach
        return letter == b and (letter == "#" or not reach)
    btw = any(min(x, y) < s < max(x, y) for s in seps)
    ysep = word.letter_at(y) == "#"
    xsep = letter == "#"
    table = {
        (1, 1): x < y,
        (3, 3): x < y,
        (2, 2): (x < y) if btw else (y < x),
        (1, 3): ysep and x < y,
        (2, 3): ysep and x < y,
        (3, 1): xsep and x < y,
        (3, 2): xsep and x < y,
        (1, 2): x < y and btw,
        (2, 1): (x < y and btw) or (not btw and y <= x),
    }
    return table[(a, b)]


def reach_closure(graph):
    """Reflexive descendants of every node, by breadth-first search."""
    reach = {}
    for start in graph.nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.out_edges(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reach[start] = seen
    return reach


def copy_output(word, k):
    """First k letters of the identity map (both copier machines)."""
    out = word.prefix
    while len(out) < k:
        out += word.period
    return out[:k]


def values_after(t, word, i):
    """Variable contents of t after reading the first i letters of word."""
    vals = {x: "" for x in t.variables}
    q = t.initial
    for col in range(1, i + 1):
        a = word.letter_at(col)
        subst = t.update[(q, a)]
        vals = {
            x: "".join(v if kind == "lit" else vals[v] for kind, v in subst[x])
            for x in t.variables
        }
        q = t.delta[(q, a)]
    return vals


def walk_value(graph, x, i):
    """Labels along the edges from (x, i, in) to (x, i, out)."""
    node, target = (x, i, "in"), (x, i, "out")
    parts = []
    for _ in range(2 * len(graph.nodes) + 1):
        if node == target:
            return "".join(parts)
        row = graph.edges.get(node, {})
        if len(row) != 1:
            return None
        (node, label), = row.items()
        parts.append(label)
    return None
