import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegatrans.muller import NEUTRAL, run_coordinate
from omegatrans.fixtures import (
    domain_words,
    mirror_sst,
    output_graph_demo_sst,
    random_copyless_sst,
    settling_loops_sst,
)
from omegatrans.sst import (
    FlowCache,
    NotInDomain,
    Sst,
    analyze_run,
    apply_subst,
    compose_subst,
    flow_matrix,
    flow_matrix_direct,
    flows,
    format_rhs,
    sst_monoid,
    identity_subst,
    is_1_bounded,
    is_aperiodic_sst,
    is_copyless,
    parse_rhs,
    path_conditions,
    run_output,
    useful,
)
from omegatrans.words import UPWord


def grid(m):
    return {pp: dict(row) for pp, row in m.rows.items()}


def test_parse_rhs():
    assert parse_rhs("aXb", ("X",)) == (("lit", "a"), ("var", "X"), ("lit", "b"))
    assert parse_rhs("ε", ("X",)) == ()
    assert parse_rhs("", ("X",)) == ()
    assert parse_rhs("YX", ("X", "Y")) == (("var", "Y"), ("var", "X"))
    assert format_rhs(parse_rhs("aXb", ("X",))) == "aXb"
    assert format_rhs(()) == "ε"


def test_compose_subst_example():
    s1 = {"X": parse_rhs("aXb", ("X",))}
    s2 = {"X": parse_rhs("Xc", ("X",))}
    assert compose_subst(s1, s2) == {"X": parse_rhs("aXbc", ("X",))}


def test_compose_subst_identity():
    variables = ("X", "Y")
    s = {"X": parse_rhs("aY", variables), "Y": parse_rhs("bX", variables)}
    ident = identity_subst(variables)
    assert compose_subst(ident, s) == s
    assert compose_subst(s, ident) == s


def test_compose_subst_matches_stepwise_application():
    variables = ("X", "Y")
    s1 = {"X": parse_rhs("Xa", variables), "Y": parse_rhs("YX", variables)}
    s2 = {"X": parse_rhs("bY", variables), "Y": parse_rhs("Y", variables)}
    vals = {"X": "u", "Y": "v"}
    two_steps = apply_subst(s2, apply_subst(s1, vals))
    assert apply_subst(compose_subst(s1, s2), vals) == two_steps


def test_is_copyless():
    t = mirror_sst()
    assert all(is_copyless(s) for s in t.update.values())
    assert not is_copyless({"X": parse_rhs("XX", ("X",))})
    assert is_copyless({"X": (("var", "Y"),), "Y": (("var", "X"),)})


def test_settling_loops_sst_is_copyful():
    t = settling_loops_sst()
    assert not is_copyless(t.update[("t", "a")])


def test_output_rule_shape_is_validated():
    # inside the accepting loop the first output variable may not change
    with pytest.raises(ValueError):
        Sst(
            [1],
            "a",
            1,
            {(1, "a"): 1},
            ("X", "Y"),
            {(1, "a"): {"X": parse_rhs("Xa", ("X", "Y"))}},
            {(1,): ("X", "Y")},
        )
    # and the last one may only grow at the right end
    with pytest.raises(ValueError):
        Sst(
            [1],
            "a",
            1,
            {(1, "a"): 1},
            ("X",),
            {(1, "a"): {"X": parse_rhs("aX", ("X",))}},
            {(1,): ("X",)},
        )


def test_run_output_mirror():
    t = mirror_sst()
    assert run_output(t, UPWord("ab#", "a"), 6) == "baab#a"
    assert run_output(t, UPWord("ab#", "a"), 20) == "baab#" + "a" * 15
    assert run_output(t, UPWord("abbb#ba#", "ab"), 14) == "bbbaabbb#abba#"


def test_run_output_without_separator_copies():
    # no separator at all: the whole word is the tail, copied unchanged
    assert run_output(mirror_sst(), UPWord("ab", "ba"), 8) == "abbabab" + "a"


def test_run_output_rejects_infinitely_many_separators():
    with pytest.raises(NotInDomain, match="rejected"):
        run_output(mirror_sst(), UPWord("", "a#"), 5)


def test_run_output_pads_finite_limit():
    t = output_graph_demo_sst()
    out = run_output(t, UPWord("123456", "z"), 20)
    assert out == "ceaaafbddccccg" + "⊥" * 6


def test_run_output_prefix_stability_on_padding_machine():
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    for k in range(1, 30):
        assert run_output(t, w, k + 1).startswith(run_output(t, w, k))


# flow matrices of the copyful settling-loops transducer over ab and bb,
# coordinate order ({q}, {r})
SETTLING_M_AB = {
    ("t", "X"): {("q", "X"): (1, (0, 0)), ("q", "Y"): (2, (0, 0))},
    ("t", "Y"): {("q", "X"): (0, (0, 0)), ("q", "Y"): (0, (0, 0))},
    ("q", "X"): {("r", "X"): (0, (0, 0)), ("r", "Y"): (0, (0, 0))},
    ("q", "Y"): {("r", "X"): (1, (0, 0)), ("r", "Y"): (1, (0, 0))},
    ("r", "X"): {("t", "X"): (1, (0, 0)), ("t", "Y"): (0, (0, 0))},
    ("r", "Y"): {("t", "X"): (0, (0, 0)), ("t", "Y"): (1, (0, 0))},
}
SETTLING_M_BB = {
    ("t", "X"): {("t", "X"): (0, (0, 0)), ("t", "Y"): (0, (0, 0))},
    ("t", "Y"): {("t", "X"): (1, (0, 0)), ("t", "Y"): (1, (0, 0))},
    ("q", "X"): {("q", "X"): (1, (1, 0)), ("q", "Y"): (2, (1, 0))},
    ("q", "Y"): {("q", "X"): (0, (1, 0)), ("q", "Y"): (1, (1, 0))},
    ("r", "X"): {("r", "X"): (0, (0, 0)), ("r", "Y"): (0, (0, 0))},
    ("r", "Y"): {("r", "X"): (1, (0, 0)), ("r", "Y"): (1, (0, 0))},
}


def test_flow_matrix_ab_frozen():
    t = settling_loops_sst()
    assert t.muller_sets == (frozenset({"q"}), frozenset({"r"}))
    assert grid(flow_matrix(t, "ab")) == SETTLING_M_AB


def test_flow_matrix_bb_frozen():
    t = settling_loops_sst()
    assert grid(flow_matrix(t, "bb")) == SETTLING_M_BB


def test_flow_matrix_direct_agrees_on_frozen_words():
    t = settling_loops_sst()
    for w in ("ab", "bb", "a", "b", "", "abba"):
        assert flow_matrix(t, w) == flow_matrix_direct(t, w)


def test_mirror_sst_is_1_bounded():
    verdict, witness = is_1_bounded(mirror_sst())
    assert verdict and witness is None


def test_settling_loops_sst_is_not_1_bounded():
    assert is_1_bounded(settling_loops_sst()) == (False, "ab")


def test_mirror_sst_is_aperiodic():
    # computed once via is_aperiodic_sst; the flow monoid has 6 elements,
    # all of them power-stabilizing
    t = mirror_sst()
    assert is_aperiodic_sst(t) == (True, None)


def test_settling_loops_sst_is_not_aperiodic():
    assert is_aperiodic_sst(settling_loops_sst()) == (False, "a")


def test_flows_identity_and_examples():
    t = mirror_sst()
    w = UPWord("ab#", "a")
    assert flows(t, w, 2, 2, "y", "y") == 1
    assert flows(t, w, 2, 2, "y", "x") == 0
    # the separator moves the mirrored block into x
    assert flows(t, w, 2, 3, "y", "x") == 1
    assert flows(t, w, 2, 3, "y", "y") == 0


def test_flows_constant_update_drops_content():
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    assert flows(t, w, 1, 2, "X", "X") == 0
    assert flows(t, w, 1, 4, "Z", "Z") == 1


def test_flows_exact_count_reaches_two():
    t = settling_loops_sst()
    w = UPWord("ab", "b")
    assert flows(t, w, 0, 2, "X", "Y") == 2


def test_useful_demo_machine_frozen():
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    got = {
        (x, i)
        for i in range(7)
        for x in t.variables
        if useful(t, w, x, i)
    }
    expected = (
        {("X", i) for i in range(2, 7)}
        | {("Y", i) for i in range(1, 6)}
        | {("Z", i) for i in range(0, 5)}
        | {("Z", 6)}
    )
    assert got == expected


def test_useful_mirror():
    t = mirror_sst()
    w = UPWord("ab#", "a")
    ana = analyze_run(t, w)
    assert ana.settle_col == 4
    # output variables at the settling column are always useful
    assert useful(t, w, "x", 4)
    assert useful(t, w, "z", 4)
    # y holds the mirror of a block that no later separator will release
    assert not useful(t, w, "y", 3)
    assert not useful(t, w, "y", 5)
    # z is wiped by the separator before contributing anything
    assert not useful(t, w, "z", 0)


def test_useful_requires_domain():
    with pytest.raises(NotInDomain):
        useful(mirror_sst(), UPWord("", "a#"), "x", 0)


def test_path_conditions_demo_examples():
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    fc = FlowCache(t, w)
    # descending: Z's column-2 content sits inside Y at column 5
    assert path_conditions(t, w, "Y", 5, "in", "Z", 2, "in", cache=fc)
    # concatenation step X := XY bridges the X side to the Y side
    assert path_conditions(t, w, "X", 5, "out", "Y", 5, "in", horizon=6, cache=fc)
    assert path_conditions(t, w, "X", 5, "out", "Y", 5, "in", cache=fc)
    # and from X's start three columns earlier down to Z's early columns
    assert path_conditions(t, w, "X", 3, "in", "Z", 1, "in", cache=fc)
    # Z flows into Y, so Y's out node is reachable from both Z nodes
    assert path_conditions(t, w, "Z", 1, "in", "Y", 5, "out", cache=fc)
    assert path_conditions(t, w, "Z", 1, "out", "Y", 5, "out", cache=fc)
    # in -> out across one useful column is always a path
    assert path_conditions(t, w, "Z", 4, "in", "Z", 4, "out", cache=fc)
    # no update ever concatenates Y before X
    assert not path_conditions(t, w, "Y", 5, "out", "X", 5, "in", horizon=12, cache=fc)
    assert not path_conditions(t, w, "Y", 5, "out", "X", 5, "in", cache=fc)


def test_path_conditions_skips_useless_columns():
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    assert not path_conditions(t, w, "X", 1, "in", "Z", 0, "in")
    assert not path_conditions(t, w, "Z", 0, "in", "X", 1, "out")


def test_random_generator_yields_copyless_machines_with_domains():
    rng = random.Random(7)
    for _ in range(10):
        t = random_copyless_sst(rng)
        assert all(is_copyless(s) for s in t.update.values())
        words = domain_words(t, rng, 3)
        for w in words:
            out = run_output(t, w, 12)
            assert len(out) == 12


# ---------------------------------------------------------------------------
# random machines for the property tests


@st.composite
def copyless_substs(draw, variables, alphabet):
    lits = st.text(alphabet, max_size=2)
    placed = {x: [] for x in variables}
    for v in variables:
        slot = draw(st.integers(-1, len(variables) - 1))
        if slot >= 0:
            placed[variables[slot]].append(v)
    subst = {}
    for x in variables:
        items = []
        for v in placed[x]:
            items.extend(("lit", c) for c in draw(lits))
            items.append(("var", v))
        items.extend(("lit", c) for c in draw(lits))
        subst[x] = tuple(items)
    return subst


@st.composite
def ssts(draw, max_states=3, max_vars=2, alphabet="ab"):
    n = draw(st.integers(1, max_states))
    variables = ("X", "Y", "Z")[: draw(st.integers(1, max_vars))]
    states = list(range(n))
    delta = {}
    update = {}
    for q in states:
        for a in alphabet:
            delta[(q, a)] = draw(st.integers(0, n - 1))
            update[(q, a)] = draw(copyless_substs(variables, alphabet))
    return Sst(states, alphabet, 0, delta, variables, update, {})


factors = st.text("ab", max_size=4)


@given(ssts(), factors, factors)
@settings(max_examples=60, deadline=None)
def test_flow_matrix_is_a_morphism(t, w1, w2):
    assert flow_matrix(t, w1) * flow_matrix(t, w2) == flow_matrix(t, w1 + w2)


@given(ssts(), factors)
@settings(max_examples=60, deadline=None)
def test_flow_matrix_matches_direct_computation(t, w):
    assert flow_matrix(t, w) == flow_matrix_direct(t, w)
    assert flow_matrix(t, w, saturate=False) == flow_matrix_direct(t, w, saturate=False)


@given(ssts(), factors)
@settings(max_examples=40, deadline=None)
def test_composed_copyless_substitutions_stay_copyless(t, w):
    comb = identity_subst(t.variables)
    q = t.initial
    for a in w:
        comb = compose_subst(comb, t.update[(q, a)])
        q = t.delta[(q, a)]
    assert is_copyless(comb)


@given(ssts(max_states=3, max_vars=2))
@settings(max_examples=25, deadline=None)
def test_copyless_machines_are_1_bounded(t):
    verdict, witness = is_1_bounded(t)
    assert verdict, witness


@given(
    st.text("ab#", max_size=4),
    st.text("ab", min_size=1, max_size=3),
    st.integers(1, 25),
)
@settings(max_examples=60, deadline=None)
def test_run_output_prefix_stability_mirror(prefix, period, k):
    t = mirror_sst()
    w = UPWord(prefix, period)
    assert run_output(t, w, k + 1).startswith(run_output(t, w, k))


# ---------------------------------------------------------------------------
# the flow algebra with accepting sets and copyful updates
#
# ssts() above builds machines without output rules, so it never exercises
# the visited-set part of the summaries.  These machines have one accepting
# set each (random_copyless_sst) or two and copyful updates
# (settling_loops_sst), and every word of length up to 4 is checked.

MULLER_MACHINES = [random_copyless_sst(random.Random(seed)) for seed in range(20)]
MULLER_MACHINES.append(settling_loops_sst())
MULLER_IDS = ["random-%d" % seed for seed in range(20)] + ["settling-loops"]
SHORT_WORDS = ["".join(w) for n in range(5) for w in itertools.product("ab", repeat=n)]


def coordinate_view(t, factor):
    """Destination and coordinate tuple of each state's concrete run."""
    out = {}
    for p in t.states:
        q, seen = t.run_factor(p, factor)
        if factor:
            out[p] = (q, tuple(run_coordinate(seen, m) for m in t.muller_sets))
        else:
            out[p] = (q, tuple(NEUTRAL for _ in t.muller_sets))
    return out


@pytest.mark.parametrize("t", MULLER_MACHINES, ids=MULLER_IDS)
def test_flow_matrix_matches_direct_computation_with_accepting_sets(t):
    for w in SHORT_WORDS:
        for saturate in (True, False):
            m = flow_matrix(t, w, saturate=saturate)
            assert m == flow_matrix_direct(t, w, saturate=saturate), (w, saturate)
            rows = m.rows
            for p, (q, coords) in coordinate_view(t, w).items():
                for x in t.variables:
                    assert set(rows[(p, x)]) == {(q, y) for y in t.variables}
                    assert {e[1] for e in rows[(p, x)].values()} == {coords}, (w, p)


@pytest.mark.parametrize("t", MULLER_MACHINES, ids=MULLER_IDS)
def test_flow_matrix_is_a_morphism_with_accepting_sets(t):
    for saturate in (True, False):
        m = {w: flow_matrix(t, w, saturate=saturate) for w in SHORT_WORDS}
        for w in SHORT_WORDS:
            for i in range(len(w) + 1):
                assert m[w[:i]] * m[w[i:]] == m[w], (w[:i], w[i:], saturate)


def test_muller_machines_reach_every_kind_of_entry():
    coordinates = set()
    counts = set()
    for t in MULLER_MACHINES:
        for w in SHORT_WORDS:
            for row in flow_matrix(t, w, saturate=False).rows.values():
                for c, coords in row.values():
                    counts.add(c)
                    coordinates.update(
                        "part" if isinstance(x, frozenset) else x for x in coords
                    )
    assert coordinates == {0, 1, "part", NEUTRAL}
    assert max(counts) > 2


# Frozen at the commit before run summaries replaced the entry algebra: the
# flow-monoid sizes of the c08 sweep (random_copyless_sst at seed 12), and
# the two verdicts of its first 20 machines.  A representation that merged
# distinct elements would keep most verdicts but not these sizes.
C08_MONOID_SIZES = [
    44, 42, 23, 12, 71, 23, 3, 10, 7, 7,
    4, 9, 7, 46, 14, 77, 52, 16, 44, 4,
    28, 8, 287, 8, 7, 694, 6, 9, 4, 7,
    64, 3, 4, 17, 13, 314, 18, 7, 6, 57,
    23, 10, 5, 249, 10, 3, 3, 11, 67, 32,
    22, 10, 7, 28, 8, 17, 1093, 1225, 30, 46,
    3, 20, 18, 66, 10788, 13, 3, 3, 166, 6,
    10, 27, 11, 6, 10, 47, 33, 13, 12, 64,
    11, 16, 28, 20, 467, 4, 77, 31, 6, 23,
    4, 16, 10, 22, 36, 14, 60, 33, 11, 4,
]
C08_VERDICTS = [
    ((True, None), (False, "b")),
    ((True, None), (False, "a")),
    ((True, None), (False, "a")),
    ((True, None), (False, "a")),
    ((True, None), (False, "b")),
    ((True, None), (False, "b")),
    ((True, None), (True, None)),
    ((True, None), (False, "b")),
    ((True, None), (False, "b")),
    ((True, None), (True, None)),
    ((True, None), (False, "b")),
    ((True, None), (True, None)),
    ((True, None), (True, None)),
    ((True, None), (False, "b")),
    ((True, None), (True, None)),
    ((True, None), (False, "a")),
    ((True, None), (True, None)),
    ((True, None), (False, "b")),
    ((True, None), (False, "a")),
    ((True, None), (True, None)),
]


def test_c08_sweep_monoid_sizes_are_pinned():
    rng = random.Random(12)
    sizes = []
    verdicts = []
    for n in range(100):
        t = random_copyless_sst(rng)
        sizes.append(len(sst_monoid(t)))
        if n < 20:
            verdicts.append((is_1_bounded(t), is_aperiodic_sst(t)))
    assert sizes == C08_MONOID_SIZES
    assert max(sizes) == 10788
    assert verdicts == C08_VERDICTS
