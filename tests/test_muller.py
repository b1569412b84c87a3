import random

import pytest
from hypothesis import given, settings, strategies as st

from omegatrans.words import UPWord
from omegatrans import muller as mu
from omegatrans.muller import Dma
from omegatrans.fixtures import (
    alternating_copier_twowst,
    last_letter_dma,
    mirror_twowst,
    plain_copier_twowst,
    random_copyless_sst,
    settling_loops_dma,
    settling_loops_sst,
)
from omegatrans.sst import is_aperiodic_sst, sst_monoid
from omegatrans.twowst import is_aperiodic_2wst, twowst_monoid


def entries_of(m):
    return {(p, q): e for p, row in m.rows.items() for q, e in row.items()}


# --- frozen matrices for the three-state example ---------------------------


def test_matrix_ab_frozen():
    m = mu.matrix_of_word(settling_loops_dma(), "ab")
    assert entries_of(m) == {
        ("q", "r"): (0, 0),
        ("r", "t"): (0, 0),
        ("t", "q"): (0, 0),
    }


def test_matrix_bb_frozen():
    m = mu.matrix_of_word(settling_loops_dma(), "bb")
    assert entries_of(m) == {
        ("q", "q"): (1, 0),
        ("r", "r"): (0, 0),
        ("t", "t"): (0, 0),
    }


def test_single_letter_matrices():
    d = settling_loops_dma()
    assert entries_of(mu.matrix_of_word(d, "a")) == {
        ("q", "t"): (0, 0),
        ("r", "r"): (0, 1),
        ("t", "q"): (0, 0),
    }
    assert entries_of(mu.matrix_of_word(d, "b")) == {
        ("q", "q"): (1, 0),
        ("r", "t"): (0, 0),
        ("t", "r"): (0, 0),
    }


def test_part_coordinates_appear():
    d = last_letter_dma()
    m = mu.matrix_of_word(d, "a")
    assert entries_of(m) == {
        ("u", "v"): (1,),
        ("v", "v"): (frozenset({"v"}),),
    }
    m2 = mu.matrix_of_word(d, "b")
    assert m2.entry("u", "u") == (frozenset({"u"}),)
    assert m2.entry("v", "u") == (1,)


# --- acceptance ------------------------------------------------------------


def test_acceptance_settling_loops():
    d = settling_loops_dma()
    assert d.accepts(UPWord("ab", "b"))  # settle into the b-loop at q
    assert d.accepts(UPWord("b", "a"))  # settle into the a-loop at r
    # parity sensitivity: an a-tail entered from t alternates q and t
    assert not d.accepts(UPWord("", "a"))
    assert not d.accepts(UPWord("bab", "a"))
    assert not d.accepts(UPWord("", "ab"))


def test_acceptance_infinitely_many_of_both():
    d = last_letter_dma()
    assert d.accepts(UPWord("", "ab"))
    assert d.accepts(UPWord("bbb", "ba"))
    assert not d.accepts(UPWord("ab", "a"))
    assert not d.accepts(UPWord("", "b"))


# --- algebra ---------------------------------------------------------------


def test_identity_is_neutral():
    d = settling_loops_dma()
    one = mu.identity_matrix(d.states, d.muller_sets)
    m = mu.matrix_of_word(d, "ab")
    assert one * m == m
    assert m * one == m
    assert mu.matrix_of_word(d, "") == one


def cover_dma():
    """a walks the cycle q -> r -> s inside F = {q, r, s}; b leaves F for x."""
    delta = {
        ("q", "a"): "r", ("r", "a"): "s", ("s", "a"): "q", ("x", "a"): "x",
        ("q", "b"): "x", ("r", "b"): "r", ("s", "b"): "s", ("x", "b"): "x",
    }
    return Dma(["q", "r", "s", "x"], "ab", "q", delta, [{"q", "r", "s"}])


def test_composition_of_two_parts_covers_the_set():
    d = cover_dma()
    a = mu.matrix_of_word(d, "a")
    assert a.entry("q", "r") == (frozenset({"q", "r"}),)
    assert a.entry("r", "s") == (frozenset({"r", "s"}),)
    # the parts {q, r} and {r, s} together cover F exactly
    assert (a * a).entry("q", "s") == (1,)
    # a cover followed by a part is still a cover
    assert (a * a * a).entry("q", "q") == (1,)


def test_composition_with_a_run_that_leaves_the_set_absorbs():
    d = cover_dma()
    a, b = mu.matrix_of_word(d, "a"), mu.matrix_of_word(d, "b")
    assert b.entry("q", "x") == (0,)
    assert (b * a).entry("q", "x") == (0,)
    assert (a * b).entry("s", "x") == (0,)
    # a full cover followed by a step outside is outside
    assert (a * a * a * b).entry("q", "x") == (0,)
    # once outside, nothing brings the run back inside
    assert (b * a * a * a).entry("q", "x") == (0,)


def test_empty_run_is_neutral_on_both_sides():
    d = cover_dma()
    one = mu.identity_matrix(d.states, d.muller_sets)
    assert one.entry("q", "q") == (mu.NEUTRAL,)
    for w in ("a", "b", "ab", "aab"):
        m = mu.matrix_of_word(d, w)
        assert one * m == m
        assert m * one == m
        assert entries_of(one * m) == entries_of(m)


def test_each_row_has_one_target():
    d = cover_dma()
    for w in ("", "a", "b", "ab", "ba", "aab"):
        rows = mu.matrix_of_word(d, w).rows
        assert set(rows) == set(d.states)
        assert all(len(row) == 1 for row in rows.values())
    # a space's empty element has no run at all (the crossing quadrants of
    # two-way machines use it), and it absorbs on both sides
    none = mu.SummarySpace(d.states, d.muller_sets).empty()
    assert none.rows == {}
    assert none.entry("q", "q") is mu.BOT
    m = mu.matrix_of_word(d, "ab")
    assert (none * m).rows == {}
    assert (m * none).rows == {}


# --- monoid and aperiodicity ----------------------------------------------


def test_settling_loops_is_not_counter_free():
    d = settling_loops_dma()
    ok, witness = mu.is_aperiodic(d)
    assert not ok
    # shortlex-least witness; both letters qualify here since each swaps a
    # state pair
    assert witness == "a"
    assert mu.power_cycle_length(mu.matrix_of_word(d, witness)) == 2
    # the b-matrix alternates as well (b swaps r and t)
    assert mu.power_cycle_length(mu.matrix_of_word(d, "b")) == 2


def test_last_letter_is_counter_free():
    ok, witness = mu.is_aperiodic(last_letter_dma())
    assert ok
    assert witness is None


def test_monoid_tracks_shortest_words():
    mon = mu.dma_monoid(settling_loops_dma())
    words = list(mon.values())
    assert words[0] == ""
    assert set(words) >= {"", "a", "b"}
    # every stored word really generates its matrix
    d = settling_loops_dma()
    for m, w in mon.items():
        assert mu.matrix_of_word(d, w) == m


def test_cap():
    with pytest.raises(mu.CapExceeded):
        mu.dma_monoid(settling_loops_dma(), cap=2)


# 0 -a-> 1, 0 -b-> 2, 1 -b-> 3, 2 -b-> 4; the other edges lead to nodes
# reached before them
GRAPH = {0: [("a", 1), ("b", 2)], 1: [("a", 0), ("b", 3)], 2: [("a", 3), ("b", 4)],
         3: [("a", 4)], 4: [("a", 4), ("b", 0)]}


def test_explore_yields_each_node_once_with_its_first_path():
    assert list(mu.explore(0, GRAPH.__getitem__, 5, "cap %d")) == [
        (0, ""), (1, "a"), (2, "b"), (3, "ab"), (4, "bb")]


def test_explore_caps_the_nodes_it_yields():
    with pytest.raises(mu.CapExceeded, match="^more than 4 nodes$"):
        list(mu.explore(0, GRAPH.__getitem__, 4, "more than %d nodes"))
    assert len(list(mu.explore(0, GRAPH.__getitem__, 5, "more than %d nodes"))) == 5


def test_explore_raises_nothing_for_a_consumer_that_stops_at_the_cap():
    """check-aperiodic --cap stops at a witness without meeting the cap,
    also when the witness is not the last node of its length."""
    nodes = mu.explore(0, GRAPH.__getitem__, 2, "more than %d nodes")
    assert [next(nodes) for _ in range(2)] == [(0, ""), (1, "a")]
    with pytest.raises(mu.CapExceeded, match="^more than 2 nodes$"):
        next(nodes)


# --- random-machine properties ---------------------------------------------


@st.composite
def dmas(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    states = ["s%d" % i for i in range(n)]
    delta = {}
    for q in states:
        for a in "ab":
            delta[(q, a)] = states[draw(st.integers(min_value=0, max_value=n - 1))]
    k = draw(st.integers(min_value=1, max_value=2))
    sets = []
    for _ in range(k):
        members = draw(
            st.sets(st.sampled_from(states), min_size=1, max_size=n)
        )
        sets.append(frozenset(members))
    return Dma(states, "ab", states[0], delta, sets)


@settings(max_examples=150, deadline=None)
@given(dmas(), st.text(alphabet="ab", max_size=6), st.text(alphabet="ab", max_size=6))
def test_matrix_is_a_homomorphism(d, w1, w2):
    lhs = mu.matrix_of_word(d, w1 + w2)
    rhs = mu.matrix_of_word(d, w1) * mu.matrix_of_word(d, w2)
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(dmas(), st.text(alphabet="ab", max_size=5))
def test_product_matches_direct_runs(d, w):
    assert mu.matrix_of_word(d, w) == mu.matrix_of_word_direct(d, w)


def accepts_via_matrices(d, word):
    """Acceptance decided from matrices alone; oracle for Dma.accepts."""
    mu_u = mu.matrix_of_word(d, word.prefix)
    mv = mu.matrix_of_word(d, word.period)
    (q,) = mu_u.rows[d.initial].keys()
    seen = {q: 0}
    chain = [q]
    while True:
        (q2,) = mv.rows[q].keys()
        if q2 in seen:
            entry = q2
            break
        seen[q2] = len(chain)
        chain.append(q2)
        q = q2
    cycle = mu.identity_matrix(d.states, d.muller_sets)
    q = entry
    while True:
        cycle = cycle * mv
        (q,) = mv.rows[q].keys()
        if q == entry:
            break
    e = cycle.entry(entry, entry)
    return any(c == 1 for c in e)


@settings(max_examples=150, deadline=None)
@given(
    dmas(),
    st.text(alphabet="ab", max_size=4),
    st.text(alphabet="ab", min_size=1, max_size=3),
)
def test_language_monoid_consistency(d, u, v):
    word = UPWord(u, v)
    assert d.accepts(word) == accepts_via_matrices(d, word)


@settings(max_examples=150, deadline=None)
@given(
    dmas(),
    st.text(alphabet="ab", max_size=4),
    st.text(alphabet="ab", min_size=1, max_size=3),
    st.text(alphabet="ab", max_size=4),
)
def test_context_is_the_set_of_accepting_starts(d, u, v, x):
    """context(w) holds the states from which the matrices accept w, and
    the backward pass over a factor x gives the context of each suffix of
    x followed by w."""
    word = UPWord(u, v)
    expected = {p for p in d.states
                if accepts_via_matrices(Dma(d.states, d.alphabet, p, d.delta, d.muller_sets), word)}
    assert d.context(word) == expected
    before = d.contexts_before(x, d.context(word))
    assert before == [d.context(UPWord(x[i:] + u, v)) for i in range(len(x) + 1)]


def _in_shortlex_order(mon):
    words = list(mon.values())
    return words == sorted(words, key=lambda w: (len(w), w))


@settings(max_examples=100, deadline=None)
@given(dmas())
def test_dma_monoids_list_their_elements_in_shortlex_order(d):
    assert _in_shortlex_order(mu.dma_monoid(d))


def test_flow_and_two_way_monoids_list_their_elements_in_shortlex_order():
    rng = random.Random(12)
    for _ in range(100):
        assert _in_shortlex_order(sst_monoid(random_copyless_sst(rng)))
    for t in (mirror_twowst(), alternating_copier_twowst(), plain_copier_twowst()):
        assert _in_shortlex_order(twowst_monoid(t))


def _scan_verdict(mon):
    """The full-scan rule: the first element of the whole monoid, in its
    shortlex order, whose powers cycle."""
    w = next((w for m, w in mon.items() if mu.power_cycle_length(m) != 1), None)
    return (w is None), w


def test_early_witness_equals_the_full_scan():
    dmas = [settling_loops_dma(), last_letter_dma()]
    rng = random.Random(12)
    ssts = [random_copyless_sst(rng) for _ in range(100)] + [settling_loops_sst()]
    twowsts = [mirror_twowst(), alternating_copier_twowst(), plain_copier_twowst()]
    cases = (
        [(mu.is_aperiodic, mu.dma_monoid, d) for d in dmas]
        + [(is_aperiodic_sst, sst_monoid, t) for t in ssts]
        + [(is_aperiodic_2wst, twowst_monoid, t) for t in twowsts])
    stopped_early = 0
    for verdict, monoid, m in cases:
        mon = monoid(m)
        expected = _scan_verdict(mon)
        assert verdict(m) == expected
        if expected[0]:
            continue
        # the scan stops at the witness's element: a cap of its position
        # is enough, and one less is not
        position = list(mon.values()).index(expected[1]) + 1
        assert position < len(mon)
        assert verdict(m, cap=position) == expected
        with pytest.raises(mu.CapExceeded):
            verdict(m, cap=position - 1)
        stopped_early += 1
    # 67 of the c08 machines, both settling machines and the alternating copier
    assert stopped_early == 70
