import pathlib
import random
import re

import pytest

from omegatrans import sst
from omegatrans.constructions import (
    SstSf,
    _bfs_path,
    _config_graph,
    compare_outputs,
    eliminate_lookaround,
    run_model,
    run_output_sst_sf,
    twowst_to_sst_sf,
    useful_configs,
)
from omegatrans.fixtures import (
    alternating_copier_twowst,
    domain_words,
    mirror_corpus,
    mirror_fot,
    mirror_lookahead_dma,
    mirror_sst,
    mirror_twowst,
    plain_copier_twowst,
    random_copyless_sst,
    random_twowst,
    random_upword,
)
from omegatrans.muller import CapExceeded, Dma
from omegatrans.sst import (
    PAD,
    NotInDomain,
    Sst,
    analyze_run,
    apply_subst,
    is_1_bounded,
    is_aperiodic_sst,
    parse_rhs,
    run_output,
    sst_monoid,
)
from omegatrans.formats import parse_machine
from omegatrans.fot import run_fot
from omegatrans.twowst import (LEFT, MARK, RIGHT, STAY, Dfa, TwoWst, is_aperiodic_2wst,
                               run_2wst)
from omegatrans.words import UPWord

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"


def tie_break_machine():
    """One state, one letter, two lookahead guards that can both be claimed.

    From any position of a^ω both guard states u and v lead into the
    accepting u-loop, so the guard-free elimination must track both claims
    and pick the least matching configuration when updates collide.
    """
    ahead = Dma("uv", "a", "u", {("u", "a"): "u", ("v", "a"): "u"}, [{"u"}])
    update = {
        ("z", None, "a", "u"): {"X": parse_rhs("Xa", ("X",))},
        ("z", None, "a", "v"): {"X": parse_rhs("Xb", ("X",))},
    }
    delta = {key: "z" for key in update}
    return SstSf("z", "a", "z", delta, ("X",), update, {frozenset("z"): ("X",)},
                 lookahead=ahead)


def wrapped_sst(base):
    """A plain transducer dressed up as a guarded one.

    The guards are vacuous, so the guarded machine computes what base does,
    and eliminating them should give back singleton subset states.
    """
    delta = {}
    update = {}
    for (q, al), q2 in base.delta.items():
        delta[(q, None, al, None)] = q2
        update[(q, None, al, None)] = base.update[(q, al)]
    return SstSf(list(base.states), base.alphabet, base.initial, delta, base.variables,
                 update, dict(base.F))


def one_state_sst(rows):
    """One state q, variables x, y, z, the rule {q}: x, and rows[a] the
    update on letter a."""
    xyz = ("x", "y", "z")
    update = {("q", a): {x: parse_rhs(rhs, xyz) for x, rhs in row.items()}
              for a, row in rows.items()}
    delta = {key: "q" for key in update}
    return Sst("q", "".join(rows), "q", delta, xyz, update, {frozenset("q"): ("x",)})


def unrolled_output(t, w, k):
    """First k output letters of t on w, from the run unrolled column by column.

    Past the lasso entry every loop applies the same substitution, and
    whether a loop grows the output, and which variables are non-empty
    after it, depend only on which are non-empty before it.  A loop that
    grows the output starts from a set of non-empty variables that no loop
    without growth starts from, so between two growing loops (and before
    the first) at most 2^|X| - 1 loops add nothing; otherwise a set repeats
    and no loop grows the output again.  The k-th letter, if there is one,
    is therefore written within k * 2^|X| loops, and whatever the run holds
    after entry_col + (k * 2^|X| + 1) * cycle_cols columns is final up to k.
    """
    ana = analyze_run(t, w)
    columns = ana.entry_col + (k * 2 ** len(t.variables) + 1) * ana.cycle_cols
    vals = dict.fromkeys(t.variables, "")
    q = t.initial
    for col in range(1, columns + 1):
        a = w.letter_at(col)
        vals = apply_subst(t.update[(q, a)], vals)
        q = t.delta[(q, a)]
    return "".join(vals[x] for x in ana.output_seq)[:k].ljust(k, PAD)


def test_mirror_conversion_states():
    """Only p is entered by a left move, so the crossing maps hold p alone:
    from the end marker or a letter, p first crosses to the right in q.
    The third component is the set of states the last cell's crossing
    visits: {t} on a letter, all three on a separator, whose crossing
    walks back to the previous separator.  No row enters the initial
    state, whose V alone is empty.  The mirror has no look-behind, so the
    fourth component is None."""
    s = twowst_to_sst_sf(mirror_twowst())
    from_marker = (("p", ("q", frozenset("p"))),)
    from_separator = (("p", ("q", frozenset("pq"))),)
    assert s.initial == ("t", from_marker, frozenset(), None)
    assert s.states == (s.initial, ("t", from_separator, frozenset("t"), None),
                        ("t", from_marker, frozenset("tpq"), None))
    assert s.variables == ("X_p", "O")
    assert s.initial not in s.delta.values()
    assert list(s.F.items()) == [(frozenset([s.states[1]]), ("O",))]


def test_output_rules_only_for_sets_a_run_can_settle_in():
    """A one-way source over p and r: a keeps the state, b swaps it.  A
    guarded state is (state, (), {previous state}, None), the four after
    the first letter form one component, and 12 of its subsets have a
    Muller union of V.  Only 5 are loops; {(p, {p}), (r, {r})}, for one,
    has no transition between its states, and {(r, {p})} no loop."""
    delta = {
        ("p", None, "a", None): ("p", "a", RIGHT),
        ("p", None, "b", None): ("r", "b", RIGHT),
        ("r", None, "a", None): ("r", "c", RIGHT),
        ("r", None, "b", None): ("p", "d", RIGHT),
    }
    t = TwoWst("pr", "ab", "p", delta, [{"p", "r"}, {"p"}])
    s = twowst_to_sst_sf(t)
    comp = s.states[1:]
    assert len(comp) == 4 and all(len(st[2]) == 1 for st in comp)
    unions = [frozenset().union(*(st[2] for i, st in enumerate(comp) if n >> i & 1))
              for n in range(1, 1 << len(comp))]
    assert sum(u in t.muller_sets for u in unions) == 12
    assert len(s.F) == 5
    assert frozenset(st for st in comp if st[2] == {st[0]}) not in s.F
    assert frozenset(st for st in comp if (st[0], st[2]) == ("r", {"p"})) not in s.F
    for w in (UPWord("", "a"), UPWord("", "b"), UPWord("b", "a"), UPWord("", "ab"),
              UPWord("a", "abb"), UPWord("ab", "aab")):
        assert _output_or_none(run_output_sst_sf, s, w, 12) == _output_or_none(
            run_2wst, t, w, 12), w


def test_rightward_loop_appends_to_the_output_variable():
    t = TwoWst("q", "a", "q", {("q", None, "a", None): ("q", "g", RIGHT)}, [{"q"}])
    s = twowst_to_sst_sf(t)
    key = (s.initial, None, "a", None)
    # no left move, so no crossing variable
    assert s.variables == ("O",)
    assert s.update[key] == {"O": (("var", "O"), ("lit", "g"))}


def test_stay_step_is_composed_into_one_crossing():
    delta = {
        ("q", None, "a", None): ("t", "g", STAY),
        ("t", None, "a", None): ("t", "h", RIGHT),
    }
    t = TwoWst("qt", "a", "q", delta, [{"t"}])
    s = twowst_to_sst_sf(t)
    key = (s.initial, None, "a", None)
    assert s.update[key]["O"] == (("var", "O"), ("lit", "g"), ("lit", "h"))


def test_conversion_agrees_with_two_way_runs():
    machines = [
        (mirror_twowst(), mirror_corpus()[:8]),
        (alternating_copier_twowst(), [UPWord("", "a")]),
        (plain_copier_twowst(), [UPWord("", "ab"), UPWord("ba", "b")]),
    ]
    for t, words in machines:
        s = twowst_to_sst_sf(t)
        for w in words:
            assert run_output_sst_sf(s, w, 60) == run_2wst(t, w, 60)


def test_conversion_keeps_the_muller_sets_of_the_source():
    """A word with infinitely many separators makes the mirror visit all
    three states forever, which its one accepting set {t} refuses; the
    converted and the eliminated machine reject it too."""
    t = mirror_twowst()
    s = twowst_to_sst_sf(t)
    elim = eliminate_lookaround(s)
    for w in (UPWord("", "a#"), UPWord("", "#"), UPWord("ab", "ab#")):
        for run, machine in ((run_2wst, t), (run_output_sst_sf, s), (run_output, elim)):
            with pytest.raises(NotInDomain):
                run(machine, w, 9)


def test_head_that_never_leaves_a_cell_is_reported():
    """The head treads in place on the first letter: the cell has no
    crossing, so the converted machine has no row and rejects as stuck, and
    its elimination has an empty domain."""
    t = TwoWst("q", "a", "q", {("q", None, "a", None): ("q", "x", STAY)}, [{"q"}])
    s = twowst_to_sst_sf(t)
    assert s.delta == {}
    w = UPWord("", "a")
    with pytest.raises(NotInDomain, match="treads in place"):
        run_2wst(t, w, 5)
    with pytest.raises(NotInDomain, match="stuck"):
        run_output_sst_sf(s, w, 5)
    with pytest.raises(ValueError, match="empty domain"):
        eliminate_lookaround(s)


def test_head_stuck_at_the_end_marker_is_reported():
    """The end marker loops in state q, but the head starts on the first
    letter and never goes back: the marker has no crossing, and the run
    escapes to the right printing nothing, in both machines."""
    delta = {
        ("q", None, MARK, None): ("q", "", STAY),
        ("q", None, "a", None): ("q", "", RIGHT),
    }
    t = TwoWst("q", "a", "q", delta, [{"q"}])
    s = twowst_to_sst_sf(t)
    w = UPWord("", "a")
    assert run_2wst(t, w, 5) == run_output_sst_sf(s, w, 5) == PAD * 5
    assert run_output(eliminate_lookaround(s), w, 5) == PAD * 5


def test_crossings_that_meet_are_all_kept():
    """States 0 and 2 both cross the end marker into state 2.  On ba(b)^w
    the head turns back on b in state 2, crosses the marker and travels on
    in 2 printing nothing; the conversion must keep 2's crossing."""
    delta = {
        (0, None, "b", None): (2, "", LEFT),
        (0, None, MARK, None): (2, "", RIGHT),
        (2, None, MARK, None): (2, "", RIGHT),
        (2, None, "a", None): (2, "", RIGHT),
        (2, None, "b", None): (2, "", RIGHT),
    }
    t = TwoWst([0, 1, 2], "ab", 0, delta, [{2}])
    s = twowst_to_sst_sf(t)
    w = UPWord("ba", "b")
    assert run_2wst(t, w, 6) == run_output_sst_sf(s, w, 6) == PAD * 6
    assert run_output(eliminate_lookaround(s), w, 6) == PAD * 6


def test_state_looping_in_a_cell_the_run_never_reaches():
    """z treads in place on every letter, but the run stays in q: only the
    crossing of z is missing, and the conversion goes through."""
    delta = {
        ("q", None, "a", None): ("q", "a", RIGHT),
        ("z", None, "a", None): ("z", "", STAY),
    }
    t = TwoWst("qz", "a", "q", delta, [{"q"}])
    s = twowst_to_sst_sf(t)
    w = UPWord("", "a")
    assert run_2wst(t, w, 6) == run_output_sst_sf(s, w, 6) == "aaaaaa"
    assert run_output(eliminate_lookaround(s), w, 6) == "aaaaaa"


def test_guarded_end_marker_transition_is_rejected():
    delta = {("q", None, MARK, "y"): ("q", "", RIGHT)}
    for al in "ab#":
        delta[("q", None, al, None)] = ("q", al, RIGHT)
    t = TwoWst("q", "ab#", "q", delta, [{"q"}], lookahead=mirror_lookahead_dma())
    with pytest.raises(ValueError, match="must not carry guards"):
        twowst_to_sst_sf(t)


def test_conversion_state_cap():
    with pytest.raises(CapExceeded, match="state blowup"):
        twowst_to_sst_sf(mirror_twowst(), cap=1)


def test_guarded_transducer_validation():
    """Rows may copy, as on a plain Sst; guards and letters are checked."""
    ahead = Dma("uv", "a", "u", {("u", "a"): "u", ("v", "a"): "u"}, [{"u"}])
    doubling = SstSf("z", "a", "z", {("z", None, "a", None): "z"}, ("X",),
                     {("z", None, "a", None): {"X": parse_rhs("XaX", ("X",))}},
                     {frozenset("z"): ("X",)})
    assert run_output_sst_sf(doubling, UPWord("", "a"), 5) == "aaaaa"
    with pytest.raises(ValueError, match="unknown lookahead guard"):
        SstSf("z", "a", "z", {("z", None, "a", "w"): "z"}, ("X",),
              {("z", None, "a", "w"): {"X": parse_rhs("Xa", ("X",))}},
              {frozenset("z"): ("X",)}, lookahead=ahead)
    with pytest.raises(ValueError, match="unknown letter"):
        SstSf("z", "a", "z", {("z", None, "b", None): "z"}, ("X",),
              {("z", None, "b", None): {"X": parse_rhs("Xa", ("X",))}},
              {frozenset("z"): ("X",)})


@pytest.mark.parametrize("build, key, other", [
    (lambda update, F: Sst("z", "a", "z", {("z", "a"): "z"}, ("X",), update, F),
     ("z", "a"), ("z", "b")),
    (lambda update, F: SstSf("z", "a", "z", {("z", None, "a", None): "z"}, ("X",), update, F),
     ("z", None, "a", None), ("z", None, "b", None)),
], ids=["Sst", "SstSf"])
def test_plain_and_guarded_transducers_make_the_same_checks(build, key, other):
    rule = {frozenset("z"): ("X",)}
    assert build({key: {"X": parse_rhs("Xa", ("X",))}}, rule).F == rule
    refused = [
        ({key: {"X": (("var", "X"), ("bad", "a"))}}, rule, "malformed rhs item"),
        ({key: {"X": parse_rhs("XY", ("X", "Y"))}}, rule, "reads unknown variable 'Y'"),
        ({key: {"Y": ()}}, rule, "writes unknown variable 'Y'"),
        ({other: {"X": ()}}, rule, "update for %r, which is not a transition" % (other,)),
        ({}, {frozenset("z"): ("X",), ("z",): ("X",)}, "output rules repeat a state set"),
        ({}, {frozenset("y"): ("X",)}, "bad output state set"),
        ({}, {frozenset("z"): ("X", "X")}, "must be distinct and non-empty"),
        ({}, {frozenset("z"): ("Y",)}, "uses unknown variables"),
    ]
    for update, F, message in refused:
        with pytest.raises(ValueError, match=re.escape(message)):
            build(update, F)


@pytest.mark.parametrize("rows", [{"X": "aX"}, {"Y": "aY"}])
def test_guarded_runner_checks_the_output_shape_of_the_loop(rows):
    """The rule X Y needs X kept fixed and Y grown at the right inside its
    state set; a guarded machine that breaks it is refused when built."""
    xy = ("X", "Y")
    key = ("z", None, "a", None)
    with pytest.raises(ValueError, match="output variable '[XY]' must (be unchanged|extend itself)"):
        SstSf("z", "a", "z", {key: "z"}, xy,
              {key: {x: parse_rhs(rhs, xy) for x, rhs in rows.items()}},
              {frozenset("z"): xy})


def test_overlapping_guards_are_an_error_at_run_time():
    ahead = Dma("uv", "a", "u", {("u", "a"): "u", ("v", "a"): "u"}, [{"u"}])
    update = {
        ("z", None, "a", None): {"X": parse_rhs("Xa", ("X",))},
        ("z", None, "a", "u"): {"X": parse_rhs("Xb", ("X",))},
    }
    delta = {key: "z" for key in update}
    amb = SstSf("z", "a", "z", delta, ("X",), update, {frozenset("z"): ("X",)},
                lookahead=ahead)
    with pytest.raises(ValueError, match="ambiguous guards"):
        run_output_sst_sf(amb, UPWord("", "a"), 5)


def test_word_with_no_firing_transition_is_rejected():
    stuck = SstSf("z", "ab", "z", {("z", None, "a", None): "z"}, ("X",),
                  {("z", None, "a", None): {"X": parse_rhs("Xa", ("X",))}},
                  {frozenset("z"): ("X",)})
    with pytest.raises(NotInDomain, match="stuck"):
        run_output_sst_sf(stuck, UPWord("", "ab"), 5)


def test_useful_configurations_of_the_mirror():
    s = twowst_to_sst_sf(mirror_twowst())
    useful = useful_configs(s)
    claims = sorted(sorted(c.claims) for c in useful)
    assert claims == [[], [], ["m"], ["m", "n"], ["m", "y"], ["n"], ["y"]]
    assert all(not {"y", "n"} <= set(c.claims) for c in useful)


@pytest.mark.parametrize("source", ["mirror", "f1.2wst", "behind.2wst"])
def test_configuration_words_spell_the_shortest_paths(source):
    """The word _config_graph gives a configuration is the path _bfs_path
    finds to it, so the subset states follow it to an accepting component."""
    t = mirror_twowst() if source == "mirror" else parse_machine(str(MACHINES / source))
    start, adj, words = _config_graph(twowst_to_sst_sf(t), 10 ** 4)
    assert list(words) == list(adj) and words[start] == ""

    def succ(n):
        return [(a, c2) for a, _key, c2 in adj[n]]

    for c in adj:
        if c != start:
            assert words[c] == "".join(a for a, _node in _bfs_path(start, c, succ))


def test_elimination_of_the_mirror_lookahead():
    s = twowst_to_sst_sf(mirror_twowst())
    elim = eliminate_lookaround(s)
    assert len(elim.states) == 5
    assert len(elim.variables) == 4
    assert sorted(elim.F.values()) == [("O@1",), ("O@1",)]
    assert run_output(elim, UPWord("ab#", "a"), 20) == "baab#" + "a" * 15


def test_eliminated_mirror_is_aperiodic_and_1_bounded():
    s = twowst_to_sst_sf(mirror_twowst())
    elim = eliminate_lookaround(s)
    assert len(sst_monoid(elim)) == 6
    assert is_1_bounded(elim) == (True, None)
    assert is_aperiodic_sst(elim) == (True, None)


def test_pipeline_run_agrees_with_the_two_way_run():
    t = mirror_twowst()
    s = twowst_to_sst_sf(t)
    elim = eliminate_lookaround(s)
    for w in mirror_corpus()[:10]:
        assert run_output(elim, w, 60) == run_2wst(t, w, 60)


def test_elimination_cap():
    s = twowst_to_sst_sf(mirror_twowst())
    with pytest.raises(CapExceeded, match="state blowup"):
        eliminate_lookaround(s, cap=2)


def test_alternating_copier_runs_standalone():
    """The accepting loop hops between two subset states, each holding one
    configuration, so the output stays in slot 0 and one rule covers it."""
    t = alternating_copier_twowst()
    s = twowst_to_sst_sf(t)
    elim = eliminate_lookaround(s)
    assert sorted(elim.F.values()) == [("O@0",)]
    assert run_output(elim, UPWord("", "a"), 12) == "a" * 12
    assert run_output_sst_sf(s, UPWord("", "a"), 12) == "a" * 12


def test_end_marker_output_is_written_by_the_first_row():
    """The head bounces off the end marker, writing x, before it reads
    anything.  The row leaving the initial state writes that x as a literal
    where it read the marker's crossing, and the elimination needs no
    state of its own for it."""
    delta = {
        ("s", None, "a", None): ("m", "", LEFT),
        ("m", None, MARK, None): ("c", "x", RIGHT),
        ("c", None, "a", None): ("c", "a", RIGHT),
    }
    t = TwoWst("scm", "a", "s", delta, [{"c"}])
    s = twowst_to_sst_sf(t)
    assert s.update[(s.initial, None, "a", None)]["O"] == parse_rhs("Oxa", ("O",))
    elim = eliminate_lookaround(s)
    assert len(elim.states) == 3
    w = UPWord("", "a")
    assert run_2wst(t, w, 6) == run_output_sst_sf(s, w, 6) == "xaaaaa"
    assert run_output(elim, w, 6) == "xaaaaa"


def test_vacuous_guards_eliminate_to_singleton_states():
    wrap = wrapped_sst(mirror_sst())
    useful = useful_configs(wrap)
    assert sorted((c.state, sorted(c.claims)) for c in useful) == [(1, []), (2, [])]
    elim = eliminate_lookaround(wrap)
    assert len(elim.states) == 2
    assert all(len(subset) == 1 for subset in elim.states)
    assert sorted(elim.F.values()) == [("x@0", "z@0")]
    base = mirror_sst()
    for w in [UPWord("ab#", "a"), UPWord("", "ab"), UPWord("abbb#ba#", "ab")]:
        expect = run_output(base, w, 40)
        assert run_output_sst_sf(wrap, w, 40) == expect
        assert run_output(elim, w, 40) == expect


@pytest.mark.parametrize("rows, expect", [
    # x misses growth on the first loops only, then gains an a on every one
    ({"x": "xz", "z": "y", "y": "a"}, "a" * 8),
    # y grows forever but never reaches the output variable x
    ({"x": "x", "y": "ya"}, PAD * 8),
])
def test_streaming_runners_decide_padding_exactly(rows, expect):
    t = one_state_sst({"a": rows})
    wrap = wrapped_sst(t)
    w = UPWord("", "a")
    assert run_output(t, w, 8) == expect
    assert run_output_sst_sf(wrap, w, 8) == expect
    assert run_output(eliminate_lookaround(wrap), w, 8) == expect


def test_streaming_runners_agree_with_the_unrolled_run():
    """run_output, the guarded runner on a vacuous wrapper and run_output of
    the wrapper's elimination all give the unrolled output."""
    rng = random.Random(5)
    for _ in range(200):
        t = random_copyless_sst(rng)
        wrap = wrapped_sst(t)
        elim = eliminate_lookaround(wrap)
        for w in domain_words(t, rng, 3):
            for k in (8, 64):
                expect = unrolled_output(t, w, k)
                assert run_output(t, w, k) == expect, (w, k)
                assert run_output_sst_sf(wrap, w, k) == expect, (w, k)
                assert run_output(elim, w, k) == expect, (w, k)



def _output_or_none(run, *args):
    try:
        return run(*args)
    except NotInDomain:
        return None


def test_eliminated_machine_runs_like_its_guarded_source():
    """run_output of the elimination gives what the guarded runner gives,
    rejections included, on compiled random two-way machines and on vacuous
    wrappers of random copyless transducers, and every elimination is
    1-bounded.  Conversions refused for their size are skipped; a source
    whose initial configuration is not useful rejects every word."""
    rng = random.Random(3)
    sources = []
    while len(sources) < 300:
        try:
            sources.append(twowst_to_sst_sf(random_twowst(rng)))
        except CapExceeded:
            pass
    sources += [wrapped_sst(random_copyless_sst(rng)) for _ in range(200)]
    for s in sources:
        words = [random_upword(rng, "ab", 2, 2) for _ in range(4)]
        try:
            elim = eliminate_lookaround(s)
        except ValueError as exc:
            assert "empty domain" in str(exc)
            for w in words:
                with pytest.raises(NotInDomain):
                    run_output_sst_sf(s, w, 8)
            continue
        assert is_1_bounded(elim) == (True, None)
        for w in words:
            for k in (8, 64):
                expect = _output_or_none(run_output_sst_sf, s, w, k)
                assert _output_or_none(run_output, elim, w, k) == expect, (w, k)


def test_conversion_runs_like_the_two_way_machine_on_random_draws():
    """3,000 random two-way machines (seed 11, 1,500 each with up to 3 and
    up to 4 states), 6 words each at k = 10: the guarded machine gives
    run_2wst's output or rejection on every word.  Only conversions past
    the default state cap are skipped.  No row of a converted machine
    enters its initial state, so the rows that leave it can write the end
    marker's output.  Every eleventh converted machine is also eliminated,
    and the elimination is 1-bounded and runs like the source, or has an
    empty domain where the source rejects every word."""
    rng = random.Random(11)
    skipped = eliminated = 0
    for i in range(3000):
        t = random_twowst(rng, max_states=3 if i < 1500 else 4)
        words = [random_upword(rng, "ab", 3, 3) for _ in range(6)]
        try:
            s = twowst_to_sst_sf(t)
        except CapExceeded:
            skipped += 1
            continue
        assert s.initial not in s.delta.values(), i
        expect = [_output_or_none(run_2wst, t, w, 10) for w in words]
        assert [_output_or_none(run_output_sst_sf, s, w, 10) for w in words] == expect, i
        if i % 11:
            continue
        try:
            elim = eliminate_lookaround(s)
        except ValueError as exc:
            assert "empty domain" in str(exc)
            assert expect == [None] * len(words), i
            continue
        eliminated += 1
        assert is_1_bounded(elim) == (True, None), i
        assert [_output_or_none(run_output, elim, w, 10) for w in words] == expect, i
    assert (skipped, eliminated) == (3, 134)


def random_lookbehind_twowst(rng, max_states=3):
    """random_twowst with a random two-state lookbehind DFA over ab.  Each
    letter row is split, with probability 2/5, into a row for lookbehind
    state u and a freshly drawn one for v, so the guards of a state and
    letter are exclusive.  End-marker rows stay unguarded."""
    base = random_twowst(rng, max_states)
    behind = Dfa("uv", "ab", "u", {(r, a): rng.choice("uv") for r in "uv" for a in "ab"})
    n = len(base.states)
    delta = {}
    for (q, _r, a, _p), row in base.delta.items():
        if a == MARK or rng.random() >= 0.4:
            delta[(q, None, a, None)] = row
            continue
        delta[(q, "u", a, None)] = row
        delta[(q, "v", a, None)] = (rng.randrange(n), rng.choice(("", "a", "b")),
                                    rng.choice((RIGHT, RIGHT, RIGHT, STAY, LEFT)))
    return TwoWst(base.states, "ab", 0, delta, base.muller_sets, lookbehind=behind)


def test_lookbehind_sources_convert_and_eliminate_exactly():
    """On random look-behind sources (seed 5, 400 draws, 6 words, k = 10)
    the guarded machine and its elimination both run like the two-way
    one, rejections included.  The conversion keeps the look-behind state
    in its own states, so no row of the guarded machine has a look-behind
    guard.  An elimination with an empty domain comes from a source that
    rejects every word drawn.  2 conversions exceed the default state cap;
    the 171 eliminated draws accept 380 runs."""
    rng = random.Random(5)
    capped = eliminated = accepted = 0
    for i in range(400):
        t = random_lookbehind_twowst(rng)
        words = [random_upword(rng, "ab", 3, 3) for _ in range(6)]
        try:
            s = twowst_to_sst_sf(t)
        except CapExceeded:
            capped += 1
            continue
        assert s.lookbehind is None and all(key[1] is None for key in s.delta), i
        expect = [_output_or_none(run_2wst, t, w, 10) for w in words]
        assert [_output_or_none(run_output_sst_sf, s, w, 10) for w in words] == expect, i
        try:
            elim = eliminate_lookaround(s)
        except ValueError as exc:
            assert "empty domain" in str(exc)
            assert expect == [None] * len(words), i
            continue
        eliminated += 1
        accepted += sum(out is not None for out in expect)
        assert [_output_or_none(run_output, elim, w, 10) for w in words] == expect, i
    assert (capped, eliminated, accepted) == (2, 171, 380)


@pytest.mark.parametrize("seed, draw, kept", [
    (11, lambda rng: random_twowst(rng, max_states=4), 95),
    (5, random_lookbehind_twowst, 73),
], ids=["unguarded", "lookbehind"])
def test_aperiodicity_survives_the_chain(seed, draw, kept):
    """The paper's theorem: an aperiodic two-way machine compiles to an
    aperiodic streaming one.  On 300 draws, every elimination of an
    aperiodic source is aperiodic.  Conversions past the state cap and
    eliminations with an empty domain are skipped; the count of aperiodic
    sources left pins the draw."""
    rng = random.Random(seed)
    aperiodic = 0
    for i in range(300):
        t = draw(rng)
        try:
            elim = eliminate_lookaround(twowst_to_sst_sf(t))
        except CapExceeded:
            continue
        except ValueError as exc:
            assert "empty domain" in str(exc)
            continue
        if is_aperiodic_2wst(t)[0]:
            aperiodic += 1
            assert is_aperiodic_sst(elim)[0], i
    assert aperiodic == kept


# y and z swap a and b on every loop, and x takes y's letter
SWAPPING_ROWS = {"b": {"y": "a", "z": "b"}, "a": {"x": "xy", "y": "z", "z": "y"}}


@pytest.mark.parametrize("prefix, period, rows, expect", [
    pytest.param("b", "a", SWAPPING_ROWS, "ab" * 32, id="read-set-cycles-with-period-2"),
    pytest.param("b", "a", {"b": {"y": "a"}, "a": {"x": "xz", "z": "y", "y": ""}},
                 "a" + PAD * 63, id="read-set-cycles-with-an-empty-block"),
    pytest.param("", "a", {"a": {"x": "xa", "y": "yb"}},
                 "a" * 64, id="dead-variable-grows-beside-the-tail"),
    # y grows forever, passed between y and z; letter a reads z into x, but
    # over the whole loop ab the tail reads nothing, so y never matters
    pytest.param("", "ab", {"a": {"x": "xz", "z": "ya", "y": ""}, "b": {"y": "z", "z": ""}},
                 PAD * 64, id="variable-read-by-one-letter-but-not-by-the-loop"),
])
def test_streaming_runners_stop_by_the_read_set(prefix, period, rows, expect):
    """One machine per way the output loop can stop: the read set R's
    values repeat with a non-empty or an empty block of output, and
    variables outside R, growing or not, are never computed.  Values of a
    copyless R end up constant, so a longer period needs a copyful machine,
    which the guarded runner takes too."""
    t = one_state_sst(rows)
    w = UPWord(prefix, period)
    k = len(expect)
    assert unrolled_output(t, w, k) == expect
    assert run_output(t, w, k) == expect
    wrap = wrapped_sst(t)
    assert run_output_sst_sf(wrap, w, k) == expect
    assert run_output(eliminate_lookaround(wrap), w, k) == expect


def test_streaming_work_does_not_grow_with_k(monkeypatch):
    """Once the read set's values repeat, the rest of the output is a
    repeated block, so f1.sst, the compiled mirror and a machine whose read
    values cycle with period 2 apply and compose as many substitutions at
    k=40 as at k=10^5."""
    src = mirror_twowst()
    machines = [mirror_sst(), eliminate_lookaround(twowst_to_sst_sf(src))]
    swapping = one_state_sst(SWAPPING_ROWS)
    calls = []
    for name in ("apply_subst", "compose_subst"):
        real = getattr(sst, name)
        monkeypatch.setattr(sst, name, lambda *args, real=real: calls.append(1) or real(*args))

    def work(t, w, k):
        del calls[:]
        return run_output(t, w, k), len(calls)

    for w in mirror_corpus():
        for t in machines:
            short, long = work(t, w, 40), work(t, w, 10 ** 5)
            assert short == (run_2wst(src, w, 40), long[1]), w
            assert long[0] == run_2wst(src, w, 10 ** 5), w
    w = UPWord("b", "a")
    short, long = work(swapping, w, 40), work(swapping, w, 10 ** 5)
    assert short == ("ab" * 20, long[1])
    assert long[0] == "ab" * 50000


def test_colliding_updates_take_the_least_configuration():
    tb = tie_break_machine()
    elim = eliminate_lookaround(tb)
    assert elim.variables == ("X@0", "X@1")
    claimed_both = [
        S for S in elim.states
        if sorted(sorted(c.claims) for c in S) == [["u"], ["v"]]
    ]
    assert len(claimed_both) == 1
    subst = elim.update[(claimed_both[0], "a")]
    assert subst["X@0"] == (("var", "X@0"), ("lit", "a"))
    assert subst["X@1"] == (("var", "X@0"), ("lit", "b"))
    assert sorted(elim.F.values()) == [("X@0",)]
    assert run_output(elim, UPWord("", "a"), 6) == "aaaaaa"


def test_run_model_dispatches_on_the_machine_kind():
    w = UPWord("ab#", "a")
    expect = "baab#aaaaa"
    assert run_model(mirror_sst(), w, 10) == expect
    assert run_model(mirror_twowst(), w, 10) == expect
    assert run_model(twowst_to_sst_sf(mirror_twowst()), w, 10) == expect
    assert run_model(mirror_fot(), w, 10) == expect
    with pytest.raises(TypeError, match="no runner"):
        run_model("nope", w, 5)


def test_negative_k_is_refused_and_k_0_still_checks_the_domain():
    w = UPWord("ab#", "a")
    guarded = twowst_to_sst_sf(mirror_twowst())
    sources = [(run_output, mirror_sst()), (run_2wst, mirror_twowst()), (run_fot, mirror_fot())]
    compiled = [(run_output_sst_sf, guarded), (run_output, eliminate_lookaround(guarded))]
    for run, machine in sources + compiled:
        for k in (-1, -3):
            with pytest.raises(ValueError, match="k must be >= 0"):
                run(machine, w, k)
        assert run(machine, w, 0) == ""
        assert run(machine, w, 3) == "baa"
        with pytest.raises(NotInDomain):
            run(machine, UPWord("", "a#"), 0)


def test_compare_outputs_equal_and_cross_model():
    corpus = [UPWord("ab#", "a"), UPWord("", "ab"), UPWord("abbb#ba#", "ab")]
    rows = compare_outputs(mirror_twowst(), mirror_twowst(), corpus, k=40)
    assert [(v, d) for _, v, d in rows] == [("equal", None)] * 3
    rows = compare_outputs(mirror_twowst(), mirror_fot(), corpus[2:], k=40)
    assert rows == [(UPWord("abbb#ba#", "ab"), "equal", None)]
    rows = compare_outputs(mirror_fot(), mirror_sst(), corpus[2:], k=40)
    assert rows == [(UPWord("abbb#ba#", "ab"), "equal", None)]


def test_compare_outputs_flags_divergence_and_rejections():
    base = mirror_sst()
    update = {key: dict(subst) for key, subst in base.update.items()}
    update[(2, "#")]["x"] = parse_rhs("xy!", base.variables)
    mutated = Sst(list(base.states), "ab#", 1, base.delta, base.variables,
                  update, dict(base.F))
    rows = compare_outputs(mirror_sst(), mutated, [UPWord("ab#", "a")], k=40)
    assert rows == [(UPWord("ab#", "a"), "mismatch", 5)]
    rows = compare_outputs(mirror_sst(), mutated, [UPWord("", "a#")], k=40)
    assert rows == [(UPWord("", "a#"), "both-reject", None)]
    silent = Sst(list(base.states), "ab#", 1, base.delta, base.variables,
                 base.update, {})
    rows = compare_outputs(mirror_sst(), silent, [UPWord("ab#", "a")], k=40)
    assert rows == [(UPWord("ab#", "a"), "mismatch", -1)]
