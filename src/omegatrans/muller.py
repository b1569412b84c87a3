"""Deterministic Muller automata and the run-summary algebra of their monoids.

A Muller automaton accepts an infinite word when the set of states visited
infinitely often belongs to its family of accepting sets.  The monoid
element of a finite factor w keeps, per source state p, a summary of the run
of w from p: its destination q and the set V of states it visits (endpoints
included) in canonical form, which is V when V lies inside some accepting
set, one value TOP otherwise, and the empty set for the empty factor.
Composition follows the destination and canonicalizes the union of the two
sets; a set outside every accepting set stays outside as it grows.

The classical matrix view has, per state pair (p, q) with a run p ->w q, one
coordinate per accepting set F_i:

    0        some state of the run lies outside F_i
    1        the run's states cover F_i exactly
    P        the run stays inside F_i but covers only P, a proper subset
    neutral  identity coordinate (empty factor only)

The machines are deterministic, so every row has at most one entry, and its
coordinate tuple is a bijective function of the canonical V: a V inside F_i
reads back from coordinate i, TOP is the all-zero tuple and the empty set
the neutral one.  Run summaries thus generate the same monoid as the
matrices, whose view `rows`, `entry` and `repr` derive.  The flow monoid of
module sst adds a count block to each summary; the crossing quadrants of
module twowst use the destination None where no run leaves.  The automaton
is counter-free exactly when every element M of the (finite) monoid
satisfies M^n = M^(n+1) for some n.

The monoid is enumerated by explore, a breadth-first search that yields
each node with the word of its first path and raises CapExceeded past its
cap.  The 1-boundedness search of module sst and the constructions of
module constructions run on it too, so every cap of the package is
checked there.
"""

from .words import lasso


BOT = None  # matrix entry for "no run"
TOP = -1  # canonical visited set of a run that leaves every accepting set
NO_RUN = (None, 0, ())


class _Neutral:
    """Identity coordinate; only the empty factor's matrix view shows it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "neutral"


NEUTRAL = _Neutral()


def run_coordinate(states_of_run, muller_set):
    """Coordinate for a concrete non-empty run (endpoints included)."""
    if not states_of_run <= muller_set:
        return 0
    if states_of_run == muller_set:
        return 1
    return frozenset(states_of_run)


class _Memo(dict):
    """Dictionary that fills a missing key with fn(key)."""

    def __init__(self, fn, seed):
        super().__init__(seed)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class SummarySpace:
    """What the elements of one monoid share.

    The state order (a summary names states by index and visited sets by
    bitmask), the accepting sets, and in a flow monoid the variable order and
    whether counts saturate at 2.  canon maps a visited bitmask to its
    canonical form and times a pair of count blocks to their product; both
    are memo tables.
    """

    def __init__(self, states, muller_sets, variables=None, saturate=True):
        self.states = tuple(states)
        self.index = {q: i for i, q in enumerate(self.states)}
        self.muller_sets = tuple(muller_sets)
        self.variables = None if variables is None else tuple(variables)
        self.var_index = {x: i for i, x in enumerate(self.variables or ())}
        self.nx = len(self.var_index)
        self.saturate = saturate
        self.signature = (self.states, self.muller_sets, self.variables)
        self._set_masks = [self._mask(m) for m in self.muller_sets]
        self._coordinates = {}
        self.canon = _Memo(self._canonical, {TOP: TOP})
        self.times = _Memo(self._times, {((), ()): ()})

    def _mask(self, states):
        return sum(1 << self.index[q] for q in set(states))

    def _canonical(self, v):
        if any(v & ~f == 0 for f in self._set_masks):
            return v
        return TOP if self._set_masks else 0

    def _times(self, pair):
        c1, c2 = pair
        nx = self.nx
        out = []
        for base in range(0, nx * nx, nx):
            acc = [0] * nx
            for z in range(nx):
                k = c1[base + z]
                if k:
                    for y in range(nx):
                        acc[y] += k * c2[z * nx + y]
            out.extend(acc)
        return tuple(min(c, 2) for c in out) if self.saturate else tuple(out)

    def coordinates(self, v):
        """Coordinate tuple of a canonical visited set, one per accepting set."""
        c = self._coordinates.get(v)
        if c is None:
            k = len(self.muller_sets)
            if v == 0:
                c = (NEUTRAL,) * k
            elif v == TOP:
                c = (0,) * k
            else:
                seen = {q for q, i in self.index.items() if v >> i & 1}
                c = tuple(run_coordinate(seen, m) for m in self.muller_sets)
            self._coordinates[v] = c
        return c

    def element(self, runs):
        """Element from one (destination, visited states, count block) per
        source state in state order, or None for no run.  The empty factor
        visits no state."""
        return TransitionMatrix(self, tuple(
            NO_RUN if r is None else (self.index[r[0]], self.canon[self._mask(r[1])], r[2])
            for r in runs))

    def identity(self):
        eye = tuple(int(x == y) for x in range(self.nx) for y in range(self.nx))
        return self.element((q, (), eye) for q in self.states)

    def empty(self):
        return self.element(None for _ in self.states)


class TransitionMatrix:
    """Element of a Muller, flow or crossing monoid.

    runs holds one summary per source state, in the space's state order:
    (destination index or None, canonical visited bitmask, count block).
    The count block is () outside flow monoids; in a flow monoid its entry
    x * |X| + y counts the copies of x's content before the factor inside
    y's content after it.  Instances are compared and hashed by value.
    """

    __slots__ = ("space", "runs", "_hash")

    def __init__(self, space, runs):
        self.space = space
        self.runs = runs
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.runs == other.runs and (
            self.space is other.space or self.space.signature == other.space.signature
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.runs)
        return self._hash

    def __mul__(self, other):
        canon = self.space.canon
        times = self.space.times
        theirs = other.runs
        runs = []
        for d, v, c in self.runs:
            if d is not None:
                d, v2, c2 = theirs[d]
            runs.append(NO_RUN if d is None else (d, canon[v | v2], times[c, c2]))
        return TransitionMatrix(self.space, tuple(runs))

    @property
    def rows(self):
        """Matrix view: {p: {q: coordinate tuple}}, or in a flow monoid
        {(p, x): {(q, y): (count, coordinate tuple)}}, bot entries omitted."""
        space = self.space
        xs = space.variables
        rows = {}
        for p, (d, v, c) in zip(space.states, self.runs):
            if d is None:
                continue
            q = space.states[d]
            mt = space.coordinates(v)
            if xs is None:
                rows[p] = {q: mt}
            for i, x in enumerate(xs or ()):
                rows[(p, x)] = {(q, y): (c[i * space.nx + j], mt) for j, y in enumerate(xs)}
        return rows

    def entry(self, p, q):
        """One entry of the matrix view; p and q are (state, variable)
        pairs in a flow monoid."""
        return self.rows.get(p, {}).get(q, BOT)

    def max_count(self):
        return max((max(c, default=0) for d, _, c in self.runs if d is not None), default=0)

    def __repr__(self):
        if self.space.variables is None:
            return "TransitionMatrix(%s)" % ", ".join(
                "%s->%s:%s" % (p, q, _fmt_entry(e))
                for p, row in self.rows.items() for q, e in row.items())
        return "FlowMatrix(%s)" % ", ".join(
            "%r->%r:%r" % (pp, qq, e)
            for pp, row in self.rows.items() for qq, e in row.items() if e[0] > 0)


def _fmt_entry(e):
    def fmt(c):
        if c is NEUTRAL:
            return "~"
        if isinstance(c, frozenset):
            return "{%s}" % ",".join(sorted(map(str, c)))
        return str(c)

    return "(%s)" % ",".join(fmt(c) for c in e)


def identity_matrix(states, muller_sets):
    return SummarySpace(states, muller_sets).identity()


def check_total(states, alphabet, initial, delta):
    """ValueError unless initial is a state and delta maps exactly states × alphabet
    into states: Dma, Dfa and Sst check their transition tables here."""
    if initial not in states:
        raise ValueError("initial state %r not a state" % (initial,))
    for q in states:
        for a in alphabet:
            if (q, a) not in delta:
                raise ValueError("delta is not total: missing (%r, %r)" % (q, a))
            if delta[(q, a)] not in states:
                raise ValueError("delta leaves the state set at (%r, %r)" % (q, a))
    stray = delta.keys() - {(q, a) for q in states for a in alphabet}
    if stray:
        raise ValueError("delta has a transition outside states × alphabet: %r"
                         % (min(stray, key=repr),))


class Dma:
    """Deterministic Muller automaton with a total transition function."""

    def __init__(self, states, alphabet, initial, delta, muller_sets):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.delta = dict(delta)
        self.muller_sets = tuple(frozenset(m) for m in muller_sets)
        check_total(self.states, self.alphabet, initial, self.delta)
        for m in self.muller_sets:
            if not m <= set(self.states):
                raise ValueError("Muller set %r contains non-states" % (set(m),))

    def step(self, q, a):
        return self.delta[(q, a)]

    def accepts(self, word):
        """Muller acceptance on an ultimately periodic word."""
        return self.initial in self.context(word)

    def context(self, word):
        """The states that accept an ultimately periodic word: one lasso of
        the runs from every state, each read on the cycle."""
        def step(qs, col):
            a = word.letter_at(col + 1)
            return tuple(self.delta[(q, a)] for q in qs)

        runs, entry, _ = lasso(self.states, step, len(word.prefix), len(word.period))
        return frozenset(p for p, cycle in zip(self.states, zip(*runs[entry:]))
                         if frozenset(cycle) in self.muller_sets)

    def contexts_before(self, letters, after):
        """[C[0], ..., C[n]] for n letters followed by a word of context
        C[n] = after: C[i] = {p : δ(p, letters[i]) ∈ C[i+1]}."""
        contexts = [after]
        for a in reversed(letters):
            after = frozenset(p for p in self.states if self.delta[(p, a)] in after)
            contexts.append(after)
        return contexts[::-1]


def run_factor(delta, q, factor):
    """(end state, set of states of the run, endpoints included) of a
    deterministic transition table delta from state q on a finite factor."""
    seen = {q}
    for a in factor:
        q = delta[(q, a)]
        seen.add(q)
    return q, seen


def matrix_of_word(dma, factor):
    """Transition matrix of a finite factor (product of letter matrices)."""
    m = identity_matrix(dma.states, dma.muller_sets)
    for a in factor:
        m = m * matrix_of_word_direct(dma, a)
    return m


def matrix_of_word_direct(dma, factor):
    """Same matrix computed from concrete runs; oracle for the product."""
    runs = []
    for p in dma.states:
        q, seen = run_factor(dma.delta, p, factor)
        runs.append((q, seen if factor else (), ()))
    return SummarySpace(dma.states, dma.muller_sets).element(runs)


class CapExceeded(Exception):
    """A resource limit was hit: a monoid or construction cap."""


def explore(start, successors, cap, blowup):
    """Yield (node, word) for every node reachable from start, breadth-first,
    each when it is first reached, with the word of that first path.

    successors(node) lists (letter, node) pairs in the order to follow
    them; an edge into a node already reached is ignored.  start comes
    first, with "", then the nodes first reached by paths of length 1, 2,
    ..., each length in the order of the nodes before it and of their
    edges.  Raises CapExceeded(blowup % cap) instead of yielding node
    cap + 1, so a consumer that stops earlier never sees the cap, and
    ValueError for a cap below 1.  The monoids, the 1-boundedness search
    and the constructions of module constructions are all this search.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1, got %d" % cap)
    seen = {start}
    yield start, ""
    frontier = [(start, "")]
    while frontier:
        new_frontier = []
        for node, w in frontier:
            for a, node2 in successors(node):
                if node2 not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(blowup % cap)
                    seen.add(node2)
                    new_frontier.append((node2, w + a))
                    yield node2, w + a
        frontier = new_frontier


def shortlex_elements(generators, identity, cap=10 ** 6):
    """Yield (element, least word) pairs of the monoid the letter matrices
    generate, breadth-first by word length, the identity first.

    generators: {letter: matrix}, the letters single characters.  Raises
    CapExceeded when an element past cap elements would be yielded.  Each
    element is yielded once, with its shortlex-least word, and the elements
    come in shortlex order of those words.  By induction on the length n:
    the frontier of length n holds the elements first reached by words of
    length n, each with its least word, in lexicographic order.  Let m be
    first reached at length n + 1, with least word u·a.  The element of u
    has least word u: a word u' < u with the same element would give
    u'·a < u·a with the element m.  It is not reached by a shorter word
    either, so it sits in the frontier of length n.  The frontier is
    scanned in lexicographic order with the letters sorted, so the words
    u·a are produced in lexicographic order, and the first one that yields
    m is its least word.  New elements therefore come, and make up the next
    frontier, in lexicographic order.
    """
    gens = sorted(generators.items())
    return explore(identity, lambda m: [(a, m * g) for a, g in gens], cap,
                   "monoid exceeded %d elements")


def generate_monoid(generators, identity, cap=10 ** 6):
    """The whole monoid of shortlex_elements as {element: least word}, in
    its order; the empty word names the identity."""
    return dict(shortlex_elements(generators, identity, cap))


def _dma_generators(dma):
    """Letter matrices and identity of the transition monoid."""
    gens = {a: matrix_of_word_direct(dma, a) for a in dma.alphabet}
    return gens, identity_matrix(dma.states, dma.muller_sets)


def dma_monoid(dma, cap=10 ** 6):
    return generate_monoid(*_dma_generators(dma), cap)


def power_cycle_length(m):
    """Length of the cycle the powers of m eventually enter."""
    return lasso(m, lambda cur, _col: cur * m, 0, 1)[2]


def aperiodicity_witness(generators, identity, cap=10 ** 6):
    """Shortlex-least word of an element whose powers cycle, or None.

    None means every element satisfies M^n = M^(n+1) for some n, i.e. the
    monoid is counter-free.  shortlex_elements yields the elements in
    shortlex order of their least words, so the first one that cycles
    carries the least witness, and generation stops there; cap bounds the
    elements generated before a witness.
    """
    for m, w in shortlex_elements(generators, identity, cap):
        if power_cycle_length(m) != 1:
            return w
    return None


def is_aperiodic(dma, cap=10 ** 6):
    """(verdict, witness): witness is a word whose matrix powers cycle."""
    w = aperiodicity_witness(*_dma_generators(dma), cap)
    return (w is None), w
