import pathlib

import pytest

from omegatrans.cli import main
from omegatrans.constructions import eliminate_lookaround, run_model, twowst_to_sst_sf
from omegatrans.fixtures import (
    alternating_copier_twowst,
    last_letter_dma,
    mirror_corpus,
    mirror_fot,
    mirror_lookahead_dma,
    mirror_sst,
    mirror_twowst,
    output_graph_demo_sst,
    plain_copier_twowst,
    settling_loops_dma,
    settling_loops_sst,
)
from omegatrans.formats import (
    FormatError,
    parse_corpus,
    parse_machine,
    parse_machine_text,
    print_machine,
    printable_machine,
)
from omegatrans.muller import Dma
from omegatrans.sst import NotInDomain, Sst
from omegatrans.twowst import Dfa, TwoWst

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"

_FIELDS = (
    "states", "alphabet", "initial", "delta", "muller_sets", "variables",
    "update", "F", "copies", "domain", "labels",
    "order",
)


def fields(m):
    """Comparable snapshot of a machine, look-around automata included."""
    out = {}
    for name in _FIELDS:
        if hasattr(m, name):
            out[name] = getattr(m, name)
    for name in ("lookahead", "lookbehind"):
        sub = getattr(m, name, None)
        out[name] = fields(sub) if sub is not None else None
    return out


def test_round_trip_of_every_fixture():
    builders = [
        settling_loops_dma, last_letter_dma, mirror_lookahead_dma,
        mirror_sst, settling_loops_sst, output_graph_demo_sst,
        mirror_twowst, alternating_copier_twowst, plain_copier_twowst,
        mirror_fot,
    ]
    for build in builders:
        m = build()
        text = print_machine(m)
        back = parse_machine_text(text)
        assert fields(back) == fields(m), build.__name__
        assert print_machine(back) == text, build.__name__


def test_round_trip_of_structured_pipeline_machines():
    s = twowst_to_sst_sf(mirror_twowst())
    elim = eliminate_lookaround(s)
    for m in (s, elim):
        text = print_machine(m)
        back = parse_machine_text(text)
        assert fields(back) == fields(printable_machine(m))
        assert print_machine(back) == text


def test_renaming_gives_plain_tokens():
    elim = eliminate_lookaround(twowst_to_sst_sf(mirror_twowst()))
    text = print_machine(elim)
    assert text.startswith("kind: sst\nstates: s0 s1 s2 s3 s4\n")


def _tupled(t):
    """t with every state s of its look-around automata renamed (s, 0), in
    the automata and in the guards of t's rows."""
    def tup(a):
        if a is None:
            return None
        parts = ([(q, 0) for q in a.states], a.alphabet, (a.initial, 0),
                 {((q, 0), x): (q2, 0) for (q, x), q2 in a.delta.items()})
        if isinstance(a, Dfa):
            return Dfa(*parts)
        return Dma(*parts, [frozenset((q, 0) for q in P) for P in a.muller_sets])

    def guard(p):
        return None if p is None else (p, 0)

    return TwoWst(t.states, t.alphabet, t.initial,
                  {(q, guard(b), a, guard(p)): row for (q, b, a, p), row in t.delta.items()},
                  t.muller_sets, lookahead=tup(t.lookahead), lookbehind=tup(t.lookbehind))


def _outcome(m, word):
    try:
        return run_model(m, word, 20)
    except NotInDomain as exc:
        return "rejected: %s" % exc


@pytest.mark.parametrize("name", ["f1.2wst", "behind.2wst"])
def test_look_around_automata_with_structured_states_print_and_run(name):
    """printable_machine renames the states of the embedded look-around
    automata and the guards that name them, on the two-way machine and on
    its conversion; printed and parsed back, both run like the original on
    the corpus."""
    source = parse_machine(MACHINES / name)
    tupled = _tupled(source)
    assert any(isinstance(g, tuple) for k in tupled.delta for g in (k[1], k[3]))
    corpus = parse_corpus(MACHINES / "corpus.txt")
    for original, m in ((source, tupled), (twowst_to_sst_sf(source), twowst_to_sst_sf(tupled))):
        text = print_machine(m)
        back = parse_machine_text(text)
        assert print_machine(back) == text
        assert type(back) is type(original)
        for w in corpus:
            assert _outcome(back, w) == _outcome(original, w), (type(m).__name__, w)


def test_shipped_corpus_matches_its_generator():
    assert parse_corpus(MACHINES / "corpus.txt") == mirror_corpus()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1: the first line"):
        parse_machine_text("states: a b\n")
    with pytest.raises(FormatError, match="line 3: unknown directive"):
        parse_machine_text("kind: dma\nstates: q\nwat: 3\n")
    with pytest.raises(FormatError, match="line 5: letters are single"):
        parse_machine_text(
            "kind: dma\nstates: q\ninitial: q\nalphabet: a\n"
            "delta: q,ab -> q\nmuller: {q}\n"
        )
    with pytest.raises(FormatError, match="duplicate transition"):
        parse_machine_text(
            "kind: dma\nstates: q\ninitial: q\nalphabet: a\n"
            "delta: q,a -> q\ndelta: q,a -> q\nmuller: {q}\n"
        )


def test_a_missing_directive_is_reported_at_its_kind_line():
    """The main block's kind line is line 2, after a comment; the lookahead
    section's is line 19 of f1.2wst."""
    with pytest.raises(FormatError, match="line 2: missing 'initial' line"):
        parse_machine_text("# one state\nkind: dma\nstates: q\nalphabet: a\n"
                           "delta: q,a -> q\nmuller: {q}\n")
    lines = (MACHINES / "f1.2wst").read_text().splitlines()
    assert lines[18] == "kind: dma" and lines[19].startswith("states:")
    del lines[19]
    with pytest.raises(FormatError, match="line 19: missing 'states' line"):
        parse_machine_text("\n".join(lines) + "\n")


def test_a_guarded_machine_takes_no_start_line():
    """Every streaming machine starts with its variables empty."""
    with pytest.raises(FormatError,
                       match="line 9: unknown directive 'start' for kind 'sst-sf'"):
        parse_machine_text(_ONE_STATE_SST_SF + "start: X := bb\n")


def test_a_guarded_machine_takes_no_lookbehind_section(tmp_path):
    """The conversion keeps the look-behind state in the guarded machine's
    own states, so an sst-sf file takes only a lookahead section."""
    text = (_ONE_STATE_SST_SF + "lookbehind:\nkind: dfa\nstates: u\ninitial: u\n"
            "alphabet: ab\ndelta: u,a -> u\ndelta: u,b -> u\n")
    with pytest.raises(FormatError, match="line 9: kind 'sst-sf' takes no look-around "
                                          "section 'lookbehind'"):
        parse_machine_text(text)
    path = tmp_path / "behind.sst-sf"
    path.write_text(text)
    assert main(["run", "-k", "4", str(path), "(a)^w"]) == 2


@pytest.mark.parametrize("line", [
    "pos: x,a: La(x)",
    "pos: 1,a: La(x)\nord: 1,x: x < y",
])
def test_copy_numbers_that_are_not_counts_are_refused_with_a_line(line):
    text = "kind: fot\nalphabet: a\ncopies: 1\ndom: E x. (La(x))\n" + line + "\n"
    lineno = text.count("\n")
    with pytest.raises(FormatError, match="line %d: copy numbers are counts, got 'x'" % lineno):
        parse_machine_text(text)


@pytest.mark.parametrize("line, key", [
    ("pos: 1,a: x = x", "pos"),
    ("ord: 2,3: x = x", "ord"),
])
def test_a_repeated_fot_key_is_refused_with_its_line(line, key):
    text = (MACHINES / "f1.fot").read_text() + line + "\n"
    with pytest.raises(FormatError, match="line %d: duplicate %s line" % (text.count("\n"), key)):
        parse_machine_text(text)


@pytest.mark.parametrize("line", ["ord: 1,7: x < y", "ord: 9,1: x < y"])
def test_an_order_line_for_a_copy_the_machine_lacks_is_refused(line):
    text = (MACHINES / "f1.fot").read_text() + line + "\n"
    with pytest.raises(FormatError, match="order formula for unknown copies"):
        parse_machine_text(text)


def test_a_bad_fot_domain_is_refused_at_its_own_line():
    text = "kind: fot\nalphabet: a\ncopies: 1\ndom: E x. (\npos: 1,a: La(x)\nord: 1,1: x < y\n"
    with pytest.raises(FormatError, match="line 4: bad formula"):
        parse_machine_text(text)


@pytest.mark.parametrize("line, key", [
    ("start: X := bb", "start"),
    ("muller: {q}", "muller"),
    ("trans: q, _, a, _ -> q, \"a\", +1", "trans"),
    ("copies: 2", "copies"),
])
def test_directives_of_another_kind_are_refused_with_a_line(line, key):
    text = _ONE_STATE_SST + line + "\n"
    with pytest.raises(FormatError,
                       match="line 9: unknown directive '%s' for kind 'sst'" % key):
        parse_machine_text(text)


def test_every_shipped_and_golden_file_parses():
    paths = sorted(p for p in MACHINES.iterdir() if p.name != "corpus.txt")
    paths += sorted(GOLDEN.iterdir())
    assert len(paths) == 13
    for path in paths:
        parse_machine(path)


def test_validation_errors_become_format_errors():
    with pytest.raises(FormatError, match="delta is not total"):
        parse_machine_text(
            "kind: dma\nstates: q r\ninitial: q\nalphabet: a\n"
            "delta: q,a -> q\nmuller: {q}\n"
        )
    with pytest.raises(FormatError, match="takes no look-around"):
        parse_machine_text(
            "kind: dma\nstates: q\ninitial: q\nalphabet: a\n"
            "delta: q,a -> q\nmuller: {q}\nlookahead:\nkind: dma\n"
        )


def test_guarded_machine_with_a_malformed_output_rule_is_refused(tmp_path):
    # the rule X Y needs X kept fixed inside {z}, but X grows
    text = (
        "kind: sst-sf\nstates: z\ninitial: z\nalphabet: a\nvars: X Y\n"
        "delta: z, _, a, _ -> z\nupdate: z, _, a, _: X := aX\n"
        "output: {z} -> X Y\n"
    )
    with pytest.raises(FormatError, match="output variable 'X' must be unchanged"):
        parse_machine_text(text)
    path = tmp_path / "bad.sst-sf"
    path.write_text(text)
    assert main(["run", "-k", "4", str(path), "(a)^w"]) == 2


def test_comments_and_blank_lines_are_skipped():
    m = parse_machine_text(
        "# a one-state loop\nkind: dma\n\nstates: q\ninitial: q\n"
        "alphabet: a\ndelta: q,a -> q\n\nmuller: {q}\n"
    )
    assert m.states == ("q",)


def test_ambiguous_right_hand_side_is_refused():
    m = Sst([1], "a", 1, {(1, "a"): 1}, ("a",),
            {(1, "a"): {"a": (("var", "a"), ("lit", "a"))}},
            {frozenset({1}): ("a",)})
    with pytest.raises(ValueError, match="ambiguous in the text format"):
        print_machine(m)


def test_every_shipped_machine_prints_back_unchanged():
    paths = sorted(p for p in MACHINES.iterdir() if p.name != "corpus.txt")
    assert [p.suffix for p in paths] == [".2wst", ".2wst", ".fot", ".sst", ".2wst", ".dma",
                                         ".sst"]
    for path in paths:
        text = path.read_text()
        assert print_machine(parse_machine_text(text)) == text, path.name


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, build", [
    ("f1", None),
    ("alt-copier", alternating_copier_twowst),
    ("plain-copier", plain_copier_twowst),
])
def test_compile_chain_prints_the_pinned_bytes(tmp_path, capsys, name, build):
    """compile and eliminate-la write the same bytes as the separate sst and
    sst-sf printers they replaced (tests/golden holds their output)."""
    source = MACHINES / "f1.2wst"
    if build is not None:
        source = tmp_path / (name + ".2wst")
        source.write_text(print_machine(build()))
    guarded = tmp_path / (name + ".sst-sf")
    plain = tmp_path / (name + ".sst")
    assert main(["compile", "2wst-to-sst", str(source), "-o", str(guarded)]) == 0
    assert main(["eliminate-la", str(guarded), "-o", str(plain)]) == 0
    capsys.readouterr()
    for path in (guarded, plain):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


_ONE_STATE_SST = (
    "kind: sst\nstates: q\ninitial: q\nalphabet: a\nvars: X\n"
    "delta: q,a -> q\nupdate: q,a: X := Xa\noutput: {q} -> X\n"
)
_ONE_STATE_SST_SF = (
    "kind: sst-sf\nstates: q\ninitial: q\nalphabet: ab\nvars: X\n"
    "delta: q, _, a, _ -> q\nupdate: q, _, a, _: X := Xa\noutput: {q} -> X\n"
)
_ONE_STATE_2WST = (
    "kind: 2wst\nstates: q\ninitial: q\nalphabet: ab\n"
    "trans: q, _, a, _ -> q, \"a\", +1\nmuller: {q}\n"
)


@pytest.mark.parametrize("text, message", [
    (_ONE_STATE_SST + "delta: r,b -> q\n", r"outside states × alphabet: \('r', 'b'\)"),
    (_ONE_STATE_SST + "delta: q,b -> q\n", r"outside states × alphabet: \('q', 'b'\)"),
    ("kind: dma\nstates: q\ninitial: q\nalphabet: a\n"
     "delta: q,a -> q\ndelta: q,b -> q\nmuller: {q}\n",
     r"outside states × alphabet: \('q', 'b'\)"),
    (_ONE_STATE_SST + "update: q,b: X := Xb\n",
     r"update for \('q', 'b'\), which is not a transition"),
    (_ONE_STATE_SST_SF + "update: q, _, b, _: X := Xb\n",
     r"update for \('q', None, 'b', None\), which is not a transition"),
    (_ONE_STATE_2WST + "lookbehind:\nkind: dfa\nstates: u\ninitial: u\nalphabet: ab\n"
     "delta: u,a -> u\ndelta: u,b -> u\ndelta: u,c -> u\n",
     r"outside states × alphabet: \('u', 'c'\)"),
], ids=["sst-foreign-state-and-letter", "sst-foreign-letter", "dma-foreign-letter",
        "sst-update-without-transition", "sst-sf-update-without-transition",
        "embedded-dfa-foreign-letter"])
def test_transition_tables_are_exact(tmp_path, text, message):
    with pytest.raises(FormatError, match=message):
        parse_machine_text(text)
    path = tmp_path / "bad"
    path.write_text(text)
    assert main(["check-aperiodic", str(path)]) == 2


_AHEAD_OVER_A = "kind: dma\nstates: x\ninitial: x\nalphabet: a\ndelta: x,a -> x\nmuller: {x}\n"


@pytest.mark.parametrize("text, side", [
    (_ONE_STATE_2WST + "lookahead:\n" + _AHEAD_OVER_A, "lookahead"),
    (_ONE_STATE_2WST + "lookbehind:\nkind: dfa\nstates: u\ninitial: u\nalphabet: a\n"
     "delta: u,a -> u\n", "lookbehind"),
    (_ONE_STATE_SST_SF + "lookahead:\n" + _AHEAD_OVER_A, "lookahead"),
], ids=["2wst-lookahead", "2wst-lookbehind", "sst-sf-lookahead"])
def test_look_around_automata_read_every_letter_of_their_machine(tmp_path, capsys, text, side):
    """A guard automaton that lacks a letter of the machine could not
    follow a word with that letter, so the machine is refused at parse
    time, and the command line exits 2 with one error line."""
    message = "the %s automaton has no letter 'b'" % side
    with pytest.raises(FormatError, match=message):
        parse_machine_text(text)
    path = tmp_path / "bad"
    path.write_text(text)
    capsys.readouterr()
    assert main(["run", str(path), "ab(a)^w"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
