import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegatrans.muller import BOT, NEUTRAL, CapExceeded, run_coordinate, run_factor
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
    values_after,
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


def test_run_output_waits_out_loops_without_growth():
    """x takes y while y and z trade a copy of one a, so x grows on every
    second loop only; a set of non-empty variables seen before a growth
    must not count as a repeat after it."""
    xyz = ("x", "y", "z")
    update = {
        ("q", "b"): {"y": parse_rhs("a", xyz)},
        ("q", "a"): {x: parse_rhs(rhs, xyz) for x, rhs in
                     (("x", "xy"), ("y", "z"), ("z", "y"))},
    }
    delta = {("q", "a"): "q", ("q", "b"): "q"}
    t = Sst("q", "ab", "q", delta, xyz, update, {frozenset("q"): ("x",)})
    assert run_output(t, UPWord("b", "a"), 6) == "aaaaaa"


def test_run_output_extends_a_tail_that_a_copy_reads():
    """y keeps a copy of the tail x, so x spells the Fibonacci word, the
    fixed point of a -> ab, b -> a, and the read set {x, y} never repeats."""
    xy = ("x", "y")
    update = {
        ("q", "b"): {"x": parse_rhs("xa", xy), "y": parse_rhs("b", xy)},
        ("q", "a"): {"x": parse_rhs("xy", xy), "y": parse_rhs("x", xy)},
    }
    delta = {("q", "a"): "q", ("q", "b"): "q"}
    t = Sst("q", "ab", "q", delta, xy, update, {frozenset("q"): ("x",)})
    fibonacci = "a"
    while len(fibonacci) < 300:
        fibonacci = "".join({"a": "ab", "b": "a"}[c] for c in fibonacci)
    w = UPWord("b", "a")
    assert values_after(t, w, 13)["x"][:300] == fibonacci[:300]
    for k in (1, 5, 64, 300):
        assert run_output(t, w, k) == fibonacci[:k]


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


def _monoid_scan(t):
    """The 1-boundedness oracle: the flow monoid in shortlex order of its
    words, scanned for the first element with a count of 2."""
    elements = sorted(sst_monoid(t).items(), key=lambda kv: (len(kv[1]), kv[1]))
    for m, w in elements:
        if m.max_count() >= 2:
            return False, w
    return True, None


def random_copyful_sst(rng, max_states=3, max_vars=3, alphabet="ab"):
    """A machine with no output rule some update of which copies a variable.

    Each right-hand side has up to two items, a variable with probability
    0.6 and a letter otherwise, so copies, drops and merges are all common.
    """
    while True:
        n = rng.randint(1, max_states)
        variables = ("X", "Y", "Z")[: rng.randint(1, max_vars)]
        delta, update = {}, {}
        for q in range(n):
            for a in alphabet:
                delta[(q, a)] = rng.randrange(n)
                update[(q, a)] = {
                    x: tuple(
                        ("var", rng.choice(variables)) if rng.random() < 0.6
                        else ("lit", rng.choice(alphabet))
                        for _ in range(rng.choice((0, 1, 1, 1, 2)))
                    )
                    for x in variables
                }
        if not all(is_copyless(s) for s in update.values()):
            return Sst(range(n), alphabet, 0, delta, variables, update, {})


def test_is_1_bounded_agrees_with_the_flow_monoid_scan():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for n in range(300):
        t = random_copyful_sst(rng)
        got = is_1_bounded(t)
        assert got == _monoid_scan(t), n
        verdicts[got[0]] += 1
    # seed 5 gives 118 1-bounded machines and 182 that are not, with
    # witnesses of length 1 (146), 2 (30) and 3 (6)
    assert min(verdicts.values()) >= 100, verdicts
    rng = random.Random(12)
    machines = [random_copyless_sst(rng) for _ in range(100)]
    machines += [mirror_sst(), settling_loops_sst(), output_graph_demo_sst()]
    for t in machines:
        assert is_1_bounded(t) == _monoid_scan(t)


def _one_state_sst(update, alphabet):
    delta = {("q", a): "q" for a in alphabet}
    return Sst(["q"], alphabet, "q", delta, ("X", "Y"), update, {})


def test_copy_paths_that_split_and_never_rejoin_stay_1_bounded():
    # a copies X into Y; afterwards X grows at the right, Y at the left, and
    # no update ever puts the two copies into one variable again
    split = {
        ("q", "a"): {"Y": (("var", "X"),)},
        ("q", "b"): {"X": parse_rhs("Xb", "XY"), "Y": parse_rhs("aY", "XY")},
    }
    t = _one_state_sst(split, "ab")
    assert not is_copyless(t.update[("q", "a")])
    assert is_1_bounded(t) == (True, None) == _monoid_scan(t)
    # the same machine with a letter that joins X and Y in X
    split[("q", "c")] = {"X": parse_rhs("XY", "XY")}
    t = _one_state_sst(split, "abc")
    assert is_1_bounded(t) == (False, "ac") == _monoid_scan(t)
    assert flow_matrix_direct(t, "ac").entry(("q", "X"), ("q", "X"))[0] == 2
    # joining two contents that never were one copy counts 1 each
    t = _one_state_sst({("q", "c"): {"X": parse_rhs("XY", "XY"), "Y": ()}}, "c")
    assert is_copyless(t.update[("q", "c")])
    assert is_1_bounded(t) == (True, None)


def test_is_1_bounded_cap_counts_visited_sets():
    t = settling_loops_sst()
    for cap in (1, 2):
        with pytest.raises(CapExceeded, match="cap of %d sets" % cap):
            is_1_bounded(t, cap=cap)
    assert is_1_bounded(t, cap=len(sst_monoid(t))) == (False, "ab")


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


def test_a_negative_column_has_no_state():
    ana = analyze_run(mirror_sst(), UPWord("ab#", "a"))
    assert ana.state_at(0) == mirror_sst().initial
    with pytest.raises(IndexError):
        ana.state_at(-1)


def test_long_spans_need_no_recursion():
    t = mirror_sst()
    w = UPWord("ab#", "a")
    for horizon in (3000, None):
        # z's column-5 content ends up inside z's column-2995 content
        assert path_conditions(t, w, "z", 5, "in", "z", 2995, "out", horizon=horizon)
        assert path_conditions(t, w, "z", 2995, "in", "z", 5, "in", horizon=horizon)
    factor = [w.letter_at(col) for col in range(1, 3001)]
    direct = flow_matrix_direct(t, factor, saturate=False)
    end = analyze_run(t, w).state_at(3000)
    for x in t.variables:
        for y in t.variables:
            e = direct.entry((t.initial, x), (end, y))
            assert flows(t, w, 0, 3000, x, y) == (0 if e is BOT else e[0]), (x, y)


def test_a_query_at_column_ten_to_the_nine_reads_its_folded_column():
    t = mirror_sst()
    w = UPWord("ab#", "a")
    nodes = [(x, d) for x in t.variables for d in ("in", "out")]
    # column 10^6 first: reach rows that grew column by column would fail
    # its time budget after a few hundred MB, before column 10^9 is asked for
    for far in (10 ** 6, 10 ** 9):
        start = time.perf_counter()
        fc = FlowCache(t, w)
        ana = fc.analysis
        base = max(ana.entry_col, ana.settle_col + 1)
        folded = base + (far - base) % ana.cycle_cols
        assert path_conditions(t, w, "z", 5, "in", "z", far, "out", cache=fc)
        assert not path_conditions(t, w, "z", far, "out", "z", 5, "in", cache=fc)
        assert time.perf_counter() - start < 1.0, far
        # every reach row of this run repeats column by column from the
        # entry on, and the useful sets from base on, so the far column
        # reads like its folded column from any column before base
        for i in range(base):
            for (x, d), (y, d2) in itertools.product(nodes, repeat=2):
                for u, v in (((x, i, d), (y, far, d2)), ((y, far, d2), (x, i, d))):
                    fold = [folded if c == far else c for c in u + v]
                    assert (path_conditions(t, w, *u, *v, cache=fc)
                            == path_conditions(t, w, *fold, cache=fc)), (u, v)


def test_reach_rows_fold_onto_loops_longer_than_the_cycle():
    # x and y trade places on every letter, so a reach row alternates
    # between them: its loop is two columns long, the run's cycle one
    swap = {("q", "a"): {"o": parse_rhs("oa", "oxy"), "x": parse_rhs("y", "oxy"),
                         "y": parse_rhs("x", "oxy")}}
    t = Sst("q", "a", "q", {("q", "a"): "q"}, "oxy", swap, {frozenset("q"): ("o",)})
    fc = FlowCache(t, UPWord("", "a"))
    assert fc.analysis.cycle_cols == 1
    for i in (0, 3):
        for k in list(range(i, i + 6)) + [10 ** 4, 10 ** 4 + 1]:
            assert fc.reach_set("x", i, k) == {"xy"[(k - i) % 2]}, (i, k)


def test_shifting_both_columns_by_whole_cycles_keeps_the_answer():
    rng = random.Random(8)
    cases = []
    while len(cases) < 60:
        t = random_copyless_sst(rng)
        cases += [(t, w) for w in domain_words(t, rng, 2, max_prefix=3, max_period=3)]
    for t, w in cases:
        fc = FlowCache(t, w)
        ana = fc.analysis
        base = max(ana.entry_col, ana.settle_col + 1)
        cols = range(base, base + ana.cycle_cols + 1)
        nodes = [(x, d) for x in t.variables for d in ("in", "out")]
        for i, j in itertools.product(cols, repeat=2):
            for (x, d), (y, d2) in itertools.product(nodes, repeat=2):
                want = path_conditions(t, w, x, i, d, y, j, d2, cache=fc)
                for times in (1, 3, 10 ** 6):
                    s = times * ana.cycle_cols
                    got = path_conditions(t, w, x, i + s, d, y, j + s, d2, cache=fc)
                    assert got == want, (x, i, d, y, j, d2, s, w)


def test_reach_sets_and_path_conditions_reject_bad_arguments():
    t = mirror_sst()
    w = UPWord("ab#", "a")
    fc = FlowCache(t, w)
    assert fc.reach_set("z", 5, 9) == {"z"}
    for i, k in ((5, 1), (-1, 3)):
        with pytest.raises(ValueError):
            fc.reach_set("z", i, k)
    for i, j in ((-1, -3), (2, -1), (-1, 2)):
        with pytest.raises(ValueError):
            path_conditions(t, w, "z", i, "in", "z", j, "in", cache=fc)
    assert path_conditions(t, w, "z", 6, "in", "z", 5, "out", cache=fc)
    for side in ("IN", "bogus"):
        with pytest.raises(ValueError):
            path_conditions(t, w, "z", 6, side, "z", 5, "out", cache=fc)
        with pytest.raises(ValueError):
            path_conditions(t, w, "z", 5, "out", "z", 6, side, cache=fc)


def _forward_step(t, subst, cur):
    return frozenset(
        y for y in t.variables if any(k == "var" and v in cur for k, v in subst[y])
    )


def _forward_useful(t, ana, x, i):
    """useful as a forward walk that stops on a repeated (phase, reach set)."""
    out_vars = set(ana.output_seq)
    last = ana.output_seq[-1]
    jcol = ana.settle_col
    anchor = max(jcol + 1, i, ana.entry_col)
    cur, col, seen = frozenset([x]), i, set()
    while True:
        if col == jcol and cur & out_vars:
            return True
        if col > jcol and last in cur:
            return True
        if not cur:
            return False
        if col >= anchor:
            key = ((col - ana.entry_col) % ana.cycle_cols, cur)
            if key in seen:
                return False
            seen.add(key)
        col += 1
        cur = _forward_step(t, ana.update_at(col), cur)


def _forward_meet(t, ana, x, i, y, j, horizon):
    """Whether x's and y's contents meet in one rhs, x's first, by a forward
    scan up to the horizon, or until a (phase, reach, reach) state repeats."""
    vx, vy, k = frozenset([x]), frozenset([y]), min(i, j)
    while k < max(i, j):
        k += 1
        vx = _forward_step(t, ana.update_at(k), vx) if k > i else vx
        vy = _forward_step(t, ana.update_at(k), vy) if k > j else vy
    anchor = max(k, ana.entry_col)
    seen = set()
    while horizon is None or k < horizon:
        if not vx or not vy:
            return False
        if horizon is None and k >= anchor:
            key = ((k - ana.entry_col) % ana.cycle_cols, vx, vy)
            if key in seen:
                return False
            seen.add(key)
        subst = ana.update_at(k + 1)
        for rhs in subst.values():
            occ = [v for kind, v in rhs if kind == "var"]
            if any(u in vx and v in vy for n, u in enumerate(occ) for v in occ[n + 1:]):
                return True
        k += 1
        vx = _forward_step(t, subst, vx)
        vy = _forward_step(t, subst, vy)
    return False


def _exact_counts(t, w, ana, top):
    """Flow counts between columns 0..top as products of exact letter matrices."""
    letters = {a: flow_matrix_direct(t, a, saturate=False) for a in t.alphabet}
    counts = {}
    for i in range(top + 1):
        m = flow_matrix(t, "", saturate=False)
        for j in range(i, top + 1):
            if j > i:
                m = m * letters[w.letter_at(j)]
            for x in t.variables:
                for y in t.variables:
                    e = m.entry((ana.state_at(i), x), (ana.state_at(j), y))
                    counts[(i, j, x, y)] = 0 if e is BOT else e[0]
    return counts


def _forward_path(counts, live, meet, x, i, d, y, j, d2):
    if not (live[(x, i)] and live[(y, j)]):
        return False
    if d == "in" and j <= i and counts[(j, i, y, x)] >= 1:
        return True
    if d2 == "out" and i <= j and counts[(i, j, x, y)] >= 1:
        return True
    return meet(x, i, y, j)


def test_column_tables_agree_with_forward_scans():
    """path_conditions, useful and flows against forward scans and products
    of exact flow matrices, on every node pair up to entry + 2 cycles + 1."""
    # the mirror's runs settle after their lasso entry, with a fixed output
    # variable, which the random machines (one growing output) never have
    cases = [(mirror_sst(), UPWord("", "ab")), (mirror_sst(), UPWord("a#b", "ab"))]
    rng = random.Random(8)
    while len(cases) < 60:
        t = random_copyless_sst(rng)
        cases += [(t, w) for w in domain_words(t, rng, 2, max_prefix=3, max_period=3)]
    for t, w in cases:
        fc = FlowCache(t, w)
        ana = fc.analysis
        top = ana.entry_col + 2 * ana.cycle_cols + 1
        counts = _exact_counts(t, w, ana, top)
        for (i, j, x, y), n in counts.items():
            if i % 3 == 0:
                assert flows(t, w, i, j, x, y) == n, (i, j, x, y, w)
        cols = [(x, i) for i in range(top + 1) for x in t.variables]
        live = {c: _forward_useful(t, ana, *c) for c in cols}
        for (x, i), want in live.items():
            assert useful(t, w, x, i) == want == fc.useful(x, i), (x, i, w)
        nodes = [c + (d,) for c in cols for d in ("in", "out")]
        for horizon in (None, ana.settle_col + 1, top):
            meet = functools.lru_cache(maxsize=None)(
                functools.partial(_forward_meet, t, ana, horizon=horizon))
            for u in nodes:
                for v in nodes:
                    want = _forward_path(counts, live, meet, *u, *v)
                    got = path_conditions(t, w, *u, *v, horizon=horizon, cache=fc)
                    assert got == want, (u, v, horizon, w)


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
        q, seen = run_factor(t.delta, p, factor)
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
