import pathlib

import pytest

from omegatrans.cli import main
from omegatrans.constructions import eliminate_lookaround, twowst_to_sst_sf
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
from omegatrans.sst import Sst

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"

_FIELDS = (
    "states", "alphabet", "initial", "delta", "muller_sets", "variables",
    "update", "F", "output", "start_values", "copies", "domain", "labels",
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


def test_shipped_files_match_the_fixtures():
    assert fields(parse_machine(MACHINES / "f1.sst")) == fields(mirror_sst())
    assert fields(parse_machine(MACHINES / "f1.2wst")) == fields(mirror_twowst())
    assert fields(parse_machine(MACHINES / "f1.fot")) == fields(mirror_fot())
    assert fields(parse_machine(MACHINES / "settling.dma")) == fields(
        settling_loops_dma()
    )
    assert fields(parse_machine(MACHINES / "settling.sst")) == fields(
        settling_loops_sst()
    )
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
