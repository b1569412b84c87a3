"""Deterministic two-way transducers on ultimately periodic words.

The head starts on the first letter and may move both ways; a left end
marker sits at position 0.  Every transition emits an output fragment.  A
word is accepted when the head escapes to the right forever and the set of
states visited infinitely often is one of the accepting sets.  Transitions
may be guarded: by the state a lookbehind DFA reaches on the strict prefix,
and by a state of a lookahead Muller automaton, which holds when it lies in
the context of the strict suffix: the set of states that accept it.

Runs need no step budget: _travel decides a run on a whole word within a
proved number of moves, and _cross walks the head through a finite factor.

Factors of a word are summarized by crossing behaviors: for each of the
four enter/exit side combinations, the run summaries of module muller, that
is the deterministic partial map from entry state to exit state (None where
no run leaves on that side) together with the canonical visited-state set.
Behaviors compose by following each run across the cut, which gives the
transition monoid of the machine and its aperiodicity test.
"""

from .muller import (
    NO_RUN,
    SummarySpace,
    TransitionMatrix,
    aperiodicity_witness,
    check_total,
    dma_monoid,
    generate_monoid,
    identity_matrix,
    matrix_of_word,
    run_coordinate,
    run_factor,
)
from .sst import NotInDomain, check_length
from .words import UPWord, fold, lasso, spell

MARK = "⊢"
LEFT, STAY, RIGHT = -1, 0, 1


class Dfa:
    """Total deterministic automaton, used for lookbehind guards."""

    def __init__(self, states, alphabet, initial, delta):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.delta = dict(delta)
        check_total(self.states, self.alphabet, initial, self.delta)

    def step(self, q, a):
        return self.delta[(q, a)]

    def run(self, factor, start=None):
        return run_factor(self.delta, self.initial if start is None else start, factor)[0]


class TwoWst:
    """Two-way transducer with optional look-around guards.

    delta maps (state, behind, letter, ahead) to (state', output, move).
    behind is a lookbehind state or None for "any"; ahead is a lookahead
    state or None.  letter is an input letter or the end marker MARK.  A
    guarded transition applies when the lookbehind automaton reaches behind
    on the strict prefix and the lookahead automaton accepts the strict
    suffix starting from ahead.
    """

    def __init__(self, states, alphabet, initial, delta, muller_sets,
                 lookahead=None, lookbehind=None):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.delta = dict(delta)
        self.muller_sets = tuple(
            sorted(
                (frozenset(m) for m in muller_sets),
                key=lambda m: tuple(sorted(map(str, m))),
            )
        )
        self.lookahead = lookahead
        self.lookbehind = lookbehind
        for m in self.muller_sets:
            if not m <= set(self.states):
                raise ValueError("accepting set %r contains non-states" % (set(m),))
        self._by_qa = guarded_rows(self, self.alphabet + (MARK,), self.delta.__getitem__)
        for q2, out, move in self.delta.values():
            if q2 not in self.states:
                raise ValueError("transition into unknown state %r" % (q2,))
            if move not in (LEFT, STAY, RIGHT):
                raise ValueError("move must be -1, 0 or 1, got %r" % (move,))
            if not isinstance(out, str):
                raise ValueError("output must be a string, got %r" % (out,))


def guarded_rows(m, letters, entry):
    """The rows of m's guarded table by (state, letter), as guarded_row reads
    them, with entry(key) as the value of the row.

    Checks that m.initial is a state, that m.lookbehind and m.lookahead
    read every letter of m.alphabet, and that every key (q, r, a, p) of
    m.delta leaves a state q on one of letters, with guards r and p that are
    None or states of m.lookbehind and m.lookahead.
    """
    if m.initial not in m.states:
        raise ValueError("initial state %r not a state" % (m.initial,))
    for side, aut in (("lookbehind", m.lookbehind), ("lookahead", m.lookahead)):
        missing = [a for a in m.alphabet if aut is not None and a not in aut.alphabet]
        if missing:
            raise ValueError("the %s automaton has no letter %r" % (side, missing[0]))
    rows = {}
    for key in m.delta:
        q, r, a, p = key
        if q not in m.states:
            raise ValueError("transition %r leaves the state set" % (key,))
        if a not in letters:
            raise ValueError("transition %r reads an unknown letter" % (key,))
        if r is not None and (m.lookbehind is None or r not in m.lookbehind.states):
            raise ValueError("unknown lookbehind guard %r" % (r,))
        if p is not None and (m.lookahead is None or p not in m.lookahead.states):
            raise ValueError("unknown lookahead guard %r" % (p,))
        rows.setdefault((q, a), []).append((r, p, entry(key)))
    return rows


def guarded_row(rows, q, letter, behind, ahead):
    """The value of the unique row whose guards hold, or None.

    rows maps (state, letter) to (behind guard, ahead guard, value) triples,
    a guard being None for "any".  behind is the lookbehind state at the
    position and ahead the context of the strict suffix after it, which a
    lookahead guard must lie in.  Two rows that both hold are an error.
    """
    found = None
    for r, p, value in rows.get((q, letter), ()):
        if (r is None or r == behind) and (p is None or p in ahead):
            if found is not None:
                raise ValueError(
                    "ambiguous guards in state %r at letter %r" % (q, letter)
                )
            found = value
    return found


class _WordContext:
    """Per-position guard data of one word: letter, lookbehind state and
    lookahead context.  All of it is periodic from position entry_pos on,
    with period cycle_len: the lasso of the lookbehind run over the columns
    (words.lasso), whose state after column c is the guard at position c+1."""

    def __init__(self, t, word):
        self.t = t
        self.word = word
        b = t.lookbehind
        bs, entry, self.cycle_len = lasso(
            b.initial if b else None,
            lambda r, col: b.step(r, word.letter_at(col + 1)) if b else None,
            len(word.prefix),
            len(word.period),
        )
        self.entry_pos = entry + 1
        self._bs = [bs[0]] + bs  # position 0 is the end marker
        a = t.lookahead
        end = self.entry_pos + self.cycle_len - 1
        self._ahead = (a.contexts_before(word.prefix_of(end), a.context(word.suffix(end)))
                       if a else [None] * (end + 1))

    def letter(self, pos):
        return MARK if pos == 0 else self.word.letter_at(pos)

    def b_state(self, pos):
        return self._bs[fold(pos, self.entry_pos, self.cycle_len)]

    def ahead(self, pos):
        """The context of the strict suffix after pos."""
        return self._ahead[fold(pos, self.entry_pos, self.cycle_len)]

    def transition(self, q, pos):
        """The row firing in state q at pos: its value on a TwoWst, its key
        on a constructions.SstSf."""
        return guarded_row(self.t._by_qa, q, self.letter(pos), self.b_state(pos),
                           self.ahead(pos))


def _travel(ctx, q, pos):
    """Follow the head from state q at position pos until its run is decided.

    Returns (trace, outs, loop, why): the configurations (state, position)
    of the walk, the output of each move, and either the index where a
    rightward traveling loop starts, with why None, or loop None and why
    the message of how the run ends (it jams, falls off the left end, or
    treads in place: a configuration repeats).  A loop repeats
    trace[loop:-1] forever, shifted right each time by the displacement
    trace[-1][1] - trace[loop][1].

    An excursion is a stretch of the walk at or past entry_pos, where the
    guard data is periodic with period cycle_len.  Within one, the first
    visits of new positions are recorded under (state, column class), and
    two records with the same key close the loop: the run from the second
    is the run from the first shifted by a multiple of cycle_len.

    The walk ends within |Q|·(max(pos, entry_pos) + |Q|·cycle_len + 2)
    moves.  Every configuration occurs at most once, since a repeat ends
    the walk.  An excursion starts at a position s <= max(pos, entry_pos)
    and the head moves by at most one cell, so its records sit at s, s+1,
    ..., each with one of |Q|·cycle_len keys: the record at s +
    |Q|·cycle_len closes the loop at the latest.  So the walk visits only
    positions up to max(pos, entry_pos) + |Q|·cycle_len, and every move but
    the last reaches a new configuration among them.
    """
    entry, cycle = ctx.entry_pos, ctx.cycle_len
    trace = [(q, pos)]
    outs = []
    seen = {(q, pos)}
    records = {}
    far = entry - 1
    while True:
        if pos < entry:
            records.clear()
            far = entry - 1
        elif pos > far:
            far = pos
            key = (q, (pos - entry) % cycle)
            if key in records:
                return trace, outs, records[key], None
            records[key] = len(trace) - 1
        picked = ctx.transition(q, pos)
        if picked is None:
            why = "stuck: no transition applies in state %r at position %d"
            return trace, outs, None, why % (q, pos)
        q, out, move = picked
        pos += move
        if pos < 0:
            return trace, outs, None, "stuck: the head fell off the left end"
        if (q, pos) in seen:
            why = "stuck: the head treads in place in state %r at position %d"
            return trace, outs, None, why % (q, pos)
        seen.add((q, pos))
        trace.append((q, pos))
        outs.append(out)


def run_2wst(t, word, k):
    """First k output letters of t on word, ⊥-padded when output stays finite.

    The head's run from the first letter is followed by _travel until it
    settles into its traveling loop; the output is the output before the
    loop followed by the loop's output repeated.  Raises NotInDomain when
    the head does not escape to the right (the run jams, falls off the left
    end or treads in place) or when the states visited forever, those of
    the loop, are not an accepting set.  Raises ValueError for k < 0.
    """
    check_length(k)
    trace, outs, loop, why = _travel(_WordContext(t, word), t.initial, 1)
    if loop is None:
        raise NotInDomain(frozenset(), why)
    loop_states = frozenset(s for s, _ in trace[loop:-1])
    if loop_states not in t.muller_sets:
        raise NotInDomain(
            loop_states,
            "rejected: states visited forever {%s} are not accepting"
            % ",".join(sorted(map(str, loop_states))),
        )
    return spell("".join(outs[:loop]), "".join(outs[loop:]), k)


def reaches(t, word, q, x, q2, y):
    """Does the run from state q at position x reach state q2 at position y?

    True when (q2, y) is in the trace of _travel from (q, x), or, when the
    run travels, is a configuration of its loop shifted right by a multiple
    of the loop's displacement.
    """
    trace, _, loop, _ = _travel(_WordContext(t, word), q, x)
    if (q2, y) in trace:
        return True
    if loop is None:
        return False
    delta = trace[-1][1] - trace[loop][1]
    return any(s == q2 and y > p and (y - p) % delta == 0 for s, p in trace[loop:])


def _cross(transition, q, pos, exits):
    """Walk the head from state q at position pos until it reaches one of
    the exit positions, moving by transition(state, position).

    Returns (exit position, state, visited states, the start and exit state
    included), or None when the head jams, falls off the left end or
    repeats a configuration.  Every exit set holds the position right of
    the factor, so the head stays in finitely many positions and the walk
    ends.
    """
    seen = set()
    states = {q}
    while pos not in exits:
        if pos < 0 or (q, pos) in seen:
            return None
        seen.add((q, pos))
        picked = transition(q, pos)
        if picked is None:
            return None
        q, _, move = picked
        pos += move
        states.add(q)
    return pos, q, states


def anchored_behavior(t, factor, continuation):
    """Crossing behavior of a factor placed at the very start of a word.

    The factor occupies positions 1..len(factor), with the end marker at 0
    and continuation as the rest of the word.  Returns (enter_left,
    enter_right): maps from (entry state, exit state) to the visited-state
    coordinate tuple, for runs entering on the first (resp. last) letter
    and leaving to the right of the factor.  Each run is walked by _cross
    with the one exit len(factor)+1; the end marker bounds it on the left,
    so every run leaves, jams, falls off or repeats a configuration.
    """
    if not factor:
        raise ValueError("the factor must be non-empty")
    word = UPWord(factor + continuation.prefix, continuation.period)
    ctx = _WordContext(t, word)
    m = len(factor)
    tables = []
    for start in (1, m):
        table = {}
        for q in t.states:
            res = _cross(ctx.transition, q, start, (m + 1,))
            if res is not None:
                _, q2, states = res
                table[(q, q2)] = tuple(run_coordinate(states, P) for P in t.muller_sets)
        tables.append(table)
    return tables[0], tables[1]


def realizable_contexts(a, cap=10 ** 6):
    """The contexts (Dma.context) that continuations of a word can have:
    continuations with one context look alike to every lookahead guard.
    Enumerated over lasso words u·v^ω, u and v least words of a's monoid."""
    words_ = list(dma_monoid(a, cap).values())
    out = {a.context(UPWord(u, v)) for u in words_ for v in words_ if v}
    return sorted(out, key=lambda c: tuple(sorted(map(str, c))))


def _machine_contexts(t):
    if t.lookahead is None:
        return (None,)
    if not hasattr(t, "_rcontexts"):
        t._rcontexts = tuple(realizable_contexts(t.lookahead))
    return t._rcontexts


def _behind_domain(t):
    if t.lookbehind is None:
        return (None,)
    return tuple(sorted(t.lookbehind.states, key=str))


SIDES = ("ll", "lr", "rl", "rr")


class TwowstElement:
    """Monoid element of a two-way machine on some factor.

    Carries the lookbehind state map, the lookahead letter matrix (whose
    runs give the lookahead state map), and for every (lookbehind entry
    state, right context) pair the four crossing quadrants as run summaries.
    """

    __slots__ = ("t", "eta_b", "m_a", "tables", "_key")

    def __init__(self, t, eta_b, m_a, tables):
        self.t = t
        self.eta_b = eta_b
        self.m_a = m_a
        self.tables = tables
        self._key = None

    def key(self):
        if self._key is None:
            self._key = (
                frozenset(self.eta_b.items()) if self.eta_b else None,
                self.m_a,
                frozenset(
                    (e, c, side, quads[side])
                    for (e, c), quads in self.tables.items()
                    for side in SIDES
                ),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, TwowstElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other):
        return compose_behaviors(self, other)


def _space(t):
    return SummarySpace(t.states, t.muller_sets)


def identity_element(t):
    space = _space(t)
    ident = space.identity()
    empty = space.empty()
    tables = {
        (e, c): {"ll": empty, "lr": ident, "rl": ident, "rr": empty}
        for e in _behind_domain(t)
        for c in _machine_contexts(t)
    }
    b = t.lookbehind
    a = t.lookahead
    return TwowstElement(
        t,
        {s: s for s in b.states} if b else {},
        identity_matrix(a.states, a.muller_sets) if a else None,
        tables,
    )


def element_of_word(t, factor):
    """Pure crossing element of an interior factor (no end marker).

    Position 0 means "exited on the left", position len(factor)+1 "exited
    on the right"; runs that jam or loop inside the factor leave their
    entry state without an image.
    """
    if not factor:
        return identity_element(t)
    m = len(factor)
    a = t.lookahead
    b = t.lookbehind
    eta_b = {s: b.run(factor, s) for s in b.states} if b else {}
    m_a = matrix_of_word(a, factor) if a else None
    space = _space(t)
    tables = {}
    for e in _behind_domain(t):
        bs = {1: e}
        for pos in range(2, m + 1):
            bs[pos] = b.step(bs[pos - 1], factor[pos - 2]) if b else None
        for c in _machine_contexts(t):
            ahead = a.contexts_before(factor, c) if a else [None] * (m + 1)

            def step(q, pos):
                return guarded_row(t._by_qa, q, factor[pos - 1], bs[pos], ahead[pos])

            runs = {side: [None] * len(t.states) for side in SIDES}
            for enter, start in (("l", 1), ("r", m)):
                for i, q in enumerate(t.states):
                    res = _cross(step, q, start, (0, m + 1))
                    if res is not None:
                        exit_pos, q2, states = res
                        side = enter + ("l" if exit_pos == 0 else "r")
                        runs[side][i] = (q2, states, ())
            tables[(e, c)] = {side: space.element(runs[side]) for side in SIDES}
    return TwowstElement(t, eta_b, m_a, tables)


def _combine_quadrants(a, b):
    """Quadrants of a factor split into a then b.

    Every run that crosses the cut is followed from half to half until it
    leaves the factor.  A run that jams inside a half, or crosses the cut
    again in a state and direction it crossed before (so it loops forever),
    has no image.
    """
    space = a["lr"].space
    canon = space.canon
    n = len(space.states)
    ll, lr = list(a["ll"].runs), [NO_RUN] * n
    rl, rr = [NO_RUN] * n, list(b["rr"].runs)
    # (exit, back) runs of a half entered at the cut
    in_b = (b["lr"].runs, b["ll"].runs)
    in_a = (a["rl"].runs, a["rr"].runs)
    for i, (s, v, _) in enumerate(a["lr"].runs):
        if s is not None:
            _bounce(s, v, (in_b, in_a), (lr, ll), i, canon)
    for i, (s, v, _) in enumerate(b["rl"].runs):
        if s is not None:
            _bounce(s, v, (in_a, in_b), (rl, rr), i, canon)
    return {side: TransitionMatrix(space, tuple(runs))
            for side, runs in zip(SIDES, (ll, lr, rl, rr))}


def _bounce(s, v, halves, results, i, canon):
    """Follow the run from source i that just crossed the cut into
    halves[0] in state s, having visited v; it leaves the factor through
    the exit side of the half it is in, and its summary goes to the
    matching results table."""
    side = 0
    seen = set()
    while (side, s) not in seen:
        seen.add((side, s))
        exit_runs, back_runs = halves[side]
        d, w, _ = exit_runs[s]
        if d is not None:
            results[side][i] = (d, canon[v | w], ())
            return
        d, w, _ = back_runs[s]
        if d is None:
            return
        v |= w
        s = d
        side ^= 1


def compose_behaviors(x1, x2):
    t = x1.t
    a = t.lookahead
    eta_b = {s: x2.eta_b[v] for s, v in x1.eta_b.items()}
    m_a = x1.m_a * x2.m_a if x1.m_a is not None else None
    tables = {}
    for (e, c) in x1.tables:
        if c is None:
            c1 = None
        else:
            c1 = frozenset(p for p, (d, _, _) in zip(a.states, x2.m_a.runs)
                           if a.states[d] in c)
        e2 = e if e is None else x1.eta_b[e]
        tables[(e, c)] = _combine_quadrants(x1.tables[(e, c1)], x2.tables[(e2, c)])
    return TwowstElement(t, eta_b, m_a, tables)


def _twowst_generators(t):
    """Letter elements and identity of the two-way monoid."""
    return {ch: element_of_word(t, ch) for ch in t.alphabet}, identity_element(t)


def twowst_monoid(t, cap=10 ** 6):
    return generate_monoid(*_twowst_generators(t), cap)


def is_aperiodic_2wst(t, cap=10 ** 6):
    """(verdict, witness): witness is a word whose element powers cycle."""
    w = aperiodicity_witness(*_twowst_generators(t), cap)
    return (w is None), w
