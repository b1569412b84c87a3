import random

import pytest

from omegatrans import sst
from omegatrans.constructions import (
    SstSf,
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
    is_copyless,
    parse_rhs,
    run_output,
    sst_monoid,
)
from omegatrans.fot import run_fot
from omegatrans.twowst import LEFT, MARK, RIGHT, STAY, Dfa, TwoWst, run_2wst
from omegatrans.words import UPWord


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
    """A plain transducer dressed up with a one-state lookbehind.

    The guards are vacuous, so the guarded machine computes what base does,
    and eliminating them should give back singleton subset states.
    """
    behind = Dfa("v", base.alphabet, "v", {("v", al): "v" for al in base.alphabet})
    delta = {}
    update = {}
    for (q, al), q2 in base.delta.items():
        delta[(q, "v", al, None)] = q2
        update[(q, "v", al, None)] = base.update[(q, al)]
    return SstSf(list(base.states), base.alphabet, base.initial, delta, base.variables,
                 update, dict(base.F), lookbehind=behind)


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
    vals = t.initial_values()
    q = t.initial
    for col in range(1, columns + 1):
        a = w.letter_at(col)
        vals = apply_subst(t.update[(q, a)], vals)
        q = t.delta[(q, a)]
    return "".join(vals[x] for x in ana.output_seq)[:k].ljust(k, PAD)


def test_mirror_conversion_states():
    s = twowst_to_sst_sf(mirror_twowst())
    assert s.initial == ("t", (("p", "q"),))
    assert set(s.states) == {("t", (("p", "q"),)), ("t", (("t", "t"), ("p", "q")))}
    assert s.variables == ("X_t", "X_p", "X_q", "O")
    assert all(v == "" for v in s.initial_values().values())


def test_rightward_loop_appends_to_the_output_variable():
    t = TwoWst("q", "a", "q", {("q", None, "a", None): ("q", "g", RIGHT)}, [{"q"}])
    s = twowst_to_sst_sf(t)
    key = (s.initial, None, "a", None)
    assert s.update[key]["O"] == (("var", "O"), ("lit", "g"))
    assert s.update[key]["X_q"] == ()


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


def test_conversion_accepts_whatever_the_guards_allow():
    """The converted machine owns no state-repetition condition of its own:
    every nonempty state set is accepting and rejection comes only from the
    guards.  A word with infinitely many separators slips through, still
    mirrored block by block, even though the two-way machine rejects it."""
    t = mirror_twowst()
    s = twowst_to_sst_sf(t)
    w = UPWord("", "a#")
    with pytest.raises(NotInDomain):
        run_2wst(t, w, 9)
    assert run_output_sst_sf(s, w, 9) == "aa#aa#aa#"
    assert run_output(eliminate_lookaround(s), w, 9) == "aa#aa#aa#"


def test_head_that_never_leaves_a_cell_is_reported():
    t = TwoWst("q", "a", "q", {("q", None, "a", None): ("q", "x", STAY)}, [{"q"}])
    with pytest.raises(ValueError, match="recursion divergence"):
        twowst_to_sst_sf(t)


def test_head_stuck_at_the_end_marker_is_reported():
    delta = {
        ("q", None, MARK, None): ("q", "", STAY),
        ("q", None, "a", None): ("q", "", RIGHT),
    }
    t = TwoWst("q", "a", "q", delta, [{"q"}])
    with pytest.raises(ValueError, match="end marker"):
        twowst_to_sst_sf(t)


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
    ahead = Dma("uv", "a", "u", {("u", "a"): "u", ("v", "a"): "u"}, [{"u"}])
    with pytest.raises(ValueError, match="is not copyless"):
        SstSf("z", "a", "z", {("z", None, "a", None): "z"}, ("X",),
              {("z", None, "a", None): {"X": parse_rhs("XX", ("X",))}},
              {frozenset("z"): ("X",)})
    with pytest.raises(ValueError, match="unknown lookahead guard"):
        SstSf("z", "a", "z", {("z", None, "a", "w"): "z"}, ("X",),
              {("z", None, "a", "w"): {"X": parse_rhs("Xa", ("X",))}},
              {frozenset("z"): ("X",)}, lookahead=ahead)
    with pytest.raises(ValueError, match="unknown letter"):
        SstSf("z", "a", "z", {("z", None, "b", None): "z"}, ("X",),
              {("z", None, "b", None): {"X": parse_rhs("Xa", ("X",))}},
              {frozenset("z"): ("X",)})


@pytest.mark.parametrize("rows", [{"X": "aX"}, {"Y": "aY"}])
def test_guarded_runner_checks_the_output_shape_of_the_loop(rows):
    """The rule X Y needs X kept fixed and Y grown at the right inside its
    state set; a guarded machine that breaks it is refused when built."""
    xy = ("X", "Y")
    key = ("z", None, "a", None)
    with pytest.raises(ValueError, match="output variable '[XY]' must (be unchanged|extend itself)"):
        SstSf("z", "a", "z", {key: "z"}, xy,
              {key: {x: parse_rhs(rhs, xy) for x, rhs in rows.items()}},
              {frozenset("z"): xy}, start_values={"X": "b"})


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
    assert all(c.behind == () for c in useful)


def test_elimination_of_the_mirror_lookahead():
    s = twowst_to_sst_sf(mirror_twowst())
    elim = eliminate_lookaround(s)
    assert len(elim.states) == 5
    assert len(elim.variables) == 8
    assert sorted(elim.F.values()) == [("O@0",), ("O@0",), ("O@1",), ("O@1",)]
    assert run_output(elim, UPWord("ab#", "a"), 20) == "baab#" + "a" * 15


def test_eliminated_mirror_is_aperiodic_and_1_bounded():
    s = twowst_to_sst_sf(mirror_twowst())
    elim = eliminate_lookaround(s)
    assert len(sst_monoid(elim).elements) == 6
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


def test_start_values_are_written_by_a_fresh_initial_state():
    """The head bounces off the end marker, writing x into X_m's start value
    before it reads anything; the eliminated machine writes x itself."""
    delta = {
        ("s", None, "a", None): ("m", "", LEFT),
        ("m", None, MARK, None): ("c", "x", RIGHT),
        ("c", None, "a", None): ("c", "a", RIGHT),
    }
    t = TwoWst("scm", "a", "s", delta, [{"c"}])
    s = twowst_to_sst_sf(t)
    assert s.start_values["X_m"] == "x"
    w = UPWord("", "a")
    assert run_2wst(t, w, 6) == run_output_sst_sf(s, w, 6) == "xaaaaa"
    assert run_output(eliminate_lookaround(s), w, 6) == "xaaaaa"


def test_vacuous_guards_eliminate_to_singleton_states():
    wrap = wrapped_sst(mirror_sst())
    useful = useful_configs(wrap)
    assert sorted((c.state, c.behind, sorted(c.claims)) for c in useful) == [
        (1, ("v",), []),
        (2, ("v",), []),
    ]
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
    wrappers of random copyless transducers.  Conversions refused for a
    cell the head never leaves or for their size are skipped; a source
    whose initial configuration is not useful rejects every word."""
    rng = random.Random(3)
    sources = []
    while len(sources) < 300:
        try:
            sources.append(twowst_to_sst_sf(random_twowst(rng)))
        except CapExceeded:
            pass
        except ValueError as exc:
            assert "recursion divergence" in str(exc)
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
        for w in words:
            for k in (8, 64):
                expect = _output_or_none(run_output_sst_sf, s, w, k)
                assert _output_or_none(run_output, elim, w, k) == expect, (w, k)


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
    which only the plain runner takes."""
    t = one_state_sst(rows)
    w = UPWord(prefix, period)
    k = len(expect)
    assert unrolled_output(t, w, k) == expect
    assert run_output(t, w, k) == expect
    if all(is_copyless(subst) for subst in t.update.values()):
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
    # Only the sources reject (a#)^w: the compiled machines accept every
    # state set (a known defect of twowst_to_sst_sf).
    for run, machine in sources:
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
