import os
import pathlib
import subprocess
import sys

import pytest

from omegatrans import cli
from omegatrans.cli import main
from omegatrans.fixtures import plain_copier_twowst
from omegatrans.formats import print_machine

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"
F1_SST = str(MACHINES / "f1.sst")
F1_2WST = str(MACHINES / "f1.2wst")
F1_FOT = str(MACHINES / "f1.fot")
SETTLING_DMA = str(MACHINES / "settling.dma")
SETTLING_SST = str(MACHINES / "settling.sst")
CORPUS = str(MACHINES / "corpus.txt")
CORPUS_WORDS = (MACHINES / "corpus.txt").read_text().split()


def test_run_prints_the_output_prefix(capsys):
    assert main(["run", F1_SST, "ab#(a)^w", "-k", "20"]) == 0
    assert capsys.readouterr().out == "baab#" + "a" * 15 + "\n"


def test_run_reports_rejection(capsys):
    assert main(["run", F1_SST, "(a#)^w", "-k", "20"]) == 1
    assert "rejected" in capsys.readouterr().out


def test_fot_run_rejects_words_with_infinitely_many_separators(capsys):
    for word in ("(a#)^w", "(#)^w"):
        assert main(["run", "-k", "8", F1_FOT, word]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("rejected: "), word
        assert captured.err == ""
        assert main(["run", "-k", "8", F1_SST, word]) == 1
        capsys.readouterr()


def test_compare_writes_a_tsv_report(capsys, tmp_path):
    report = tmp_path / "report.tsv"
    rc = main(["compare", F1_2WST, F1_FOT, "--corpus", CORPUS, "-k", "60",
               "--report", str(report)])
    assert rc == 0
    assert "equal: 50" in capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert lines[0] == "word\tverdict\tdivergence-index"
    assert len(lines) == 51
    assert all(line.split("\t")[1] == "equal" for line in lines[1:])


def test_compare_flags_a_mutated_machine(capsys, tmp_path):
    mutated = tmp_path / "mutated.sst"
    text = (MACHINES / "f1.sst").read_text()
    assert "x := xy#" in text
    mutated.write_text(text.replace("x := xy#", "x := xy!"))
    rc = main(["compare", F1_SST, str(mutated), "--corpus", CORPUS, "-k", "40"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ab#(a)^w\tmismatch\t5" in out


def test_compare_samples_without_a_corpus(capsys):
    assert main(["compare", F1_SST, F1_SST, "--sample", "5", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith("\tequal\t-") for line in lines[1:])


def test_compare_rejects_words_outside_the_alphabet(tmp_path, capsys):
    source = tmp_path / "copier.2wst"
    source.write_text(print_machine(plain_copier_twowst()))
    guarded = tmp_path / "copier.sst-sf"
    plain = tmp_path / "copier.sst"
    assert main(["compile", "2wst-to-sst", str(source), "-o", str(guarded)]) == 0
    assert main(["eliminate-la", str(guarded), "-o", str(plain)]) == 0
    capsys.readouterr()
    rc = main(["compare", str(plain), str(source), "--corpus", CORPUS, "-k", "20"])
    assert rc == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 50
    # the copier reads a and b only, so every word with a separator is
    # outside both machines' domains
    assert all(verdict == ("both-reject" if "#" in word else "equal")
               for word, verdict, _ in rows)
    assert {verdict for _, verdict, _ in rows} == {"equal", "both-reject"}


def test_end_marker_output_survives_the_file_round_trip(tmp_path, capsys):
    """marker.2wst prints x at the end marker before it reads a letter;
    compiled and eliminated through files, it still prints that x."""
    guarded = tmp_path / "marker.sst-sf"
    plain = tmp_path / "marker.sst"
    assert main(["compile", "2wst-to-sst", str(MACHINES / "marker.2wst"),
                 "-o", str(guarded)]) == 0
    assert main(["eliminate-la", str(guarded), "-o", str(plain)]) == 0
    capsys.readouterr()
    for machine in (MACHINES / "marker.2wst", guarded, plain):
        assert main(["run", "-k", "12", str(machine), "(a)^w"]) == 0
        assert capsys.readouterr().out == "x" + "a" * 11 + "\n", machine.name


def test_lookbehind_guards_survive_the_file_round_trip(tmp_path, capsys):
    """behind.2wst prints a for an a read where its look-behind DFA is in
    u, and b for every other letter; the DFA leaves u on the first letter
    and comes back to it on an a after a.  Compiled, the guarded machine
    carries the DFA's state in its own and has no look-behind guard, and
    compiled and eliminated through files it runs like the source."""
    guarded = tmp_path / "behind.sst-sf"
    plain = tmp_path / "behind.sst"
    assert main(["compile", "2wst-to-sst", str(MACHINES / "behind.2wst"),
                 "-o", str(guarded)]) == 0
    assert main(["eliminate-la", str(guarded), "-o", str(plain)]) == 0
    capsys.readouterr()
    assert "lookbehind:" not in guarded.read_text()
    assert all(line.split(",")[1].strip() == "_"
               for line in guarded.read_text().splitlines() if line.startswith("delta:"))
    for word, out in [("(b)^w", "b" * 12), ("a(b)^w", "a" + "b" * 11), ("(a)^w", "ab" * 6)]:
        for machine in (MACHINES / "behind.2wst", guarded, plain):
            assert main(["run", "-k", "12", str(machine), word]) == 0
            assert capsys.readouterr().out == out + "\n", (machine.name, word)


def test_monoid_cap_exits_3(capsys):
    # monoid generates every element; check-aperiodic stops at the first
    # witness, so only a cap below the witness's element exits 3
    assert main(["monoid", SETTLING_DMA, "--cap", "2"]) == 3
    assert main(["check-aperiodic", SETTLING_DMA, "--cap", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: monoid exceeded 2 elements",
                                         "error: monoid exceeded 1 elements"]


def test_check_aperiodic_returns_a_witness_found_inside_the_cap(capsys):
    assert main(["check-aperiodic", SETTLING_DMA, "--cap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "not aperiodic (witness: a)\n"
    assert captured.err == ""


def test_check_verbs_exit_by_verdict(capsys):
    assert main(["check-aperiodic", SETTLING_DMA]) == 1
    assert "witness: a" in capsys.readouterr().out
    assert main(["check-aperiodic", F1_2WST]) == 0
    assert main(["check-aperiodic", F1_SST]) == 0
    assert main(["check-1bounded", SETTLING_SST]) == 1
    assert "witness: ab" in capsys.readouterr().out
    assert main(["check-1bounded", F1_SST]) == 0


def test_check_1bounded_names_the_count_that_reaches_2(capsys):
    assert main(["check-1bounded", SETTLING_SST]) == 1
    assert capsys.readouterr().out == (
        "not 1-bounded (witness: ab; X -> Y from state t reaches 2)\n")
    assert main(["check-1bounded", F1_SST]) == 0
    assert capsys.readouterr().out == "1-bounded\n"
    assert main(["check-1bounded", SETTLING_SST, "--cap", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 1-boundedness search exceeded its cap of 1 sets of copy-path pairs\n")


def test_monoid_lists_elements_shortlex(capsys):
    assert main(["monoid", SETTLING_DMA]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size: 11"
    assert lines[1].startswith("ε: TransitionMatrix(")
    words = [line.split(":")[0] for line in lines[1:]]
    assert words == sorted(words, key=lambda w: (len(w.replace("ε", "")), w))


def test_behavior_prints_crossing_tables(capsys):
    assert main(["behavior", F1_2WST, "ab#"]) == 0
    out = capsys.readouterr().out
    left, right = out.split("enter-right:")
    assert "t -> t (0,)" in left
    assert "p -> t (0,)" in left
    assert "q -> t (0,)" in left
    assert "p -> q (0,)" in right


def test_graph_emits_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    rc = main(["graph", F1_SST, "ab#(a)^w", "--horizon", "6",
               "--dot", str(dot)])
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph output_graph {")
    assert 'xin_0 [label="x,0,in"];' in text


def test_compile_and_eliminate_round_trip_through_files(tmp_path, capsys):
    guarded = tmp_path / "f1.sstsf"
    plain = tmp_path / "f1elim.sst"
    assert main(["compile", "2wst-to-sst", F1_2WST, "-o", str(guarded)]) == 0
    assert guarded.read_text().startswith("kind: sst-sf\n")
    assert main(["eliminate-la", str(guarded), "-o", str(plain)]) == 0
    capsys.readouterr()
    assert main(["run", str(plain), "ab#(a)^w", "-k", "20"]) == 0
    assert capsys.readouterr().out == "baab#" + "a" * 15 + "\n"


def test_construction_caps_exit_3(tmp_path, capsys):
    guarded = tmp_path / "f1.sstsf"
    assert main(["compile", "2wst-to-sst", F1_2WST, "--cap", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: state blowup: more than 1 states in the conversion"
    ]
    assert main(["compile", "2wst-to-sst", F1_2WST, "-o", str(guarded)]) == 0
    capsys.readouterr()
    assert main(["eliminate-la", str(guarded), "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: state blowup: more than 2 reachable configurations"
    ]


def test_fot_run_at_k_2100_prints_what_the_sst_prints(capsys):
    assert main(["run", "-k", "2100", F1_SST, "(a)^w"]) == 0
    want = capsys.readouterr().out
    assert want == "a" * 2100 + "\n"
    assert main(["run", "-k", "2100", F1_FOT, "(a)^w"]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert captured.err == ""


def test_negative_k_exits_2(capsys):
    for path in (F1_SST, F1_2WST, F1_FOT):
        assert main(["run", "-k", "-3", path, "ab#(a)^w"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: output length k must be >= 0, got -3\n"
        assert main(["run", "-k", "0", path, "ab#(a)^w"]) == 0
        assert capsys.readouterr().out == "\n"
    assert main(["compare", F1_2WST, F1_SST, "--corpus", CORPUS, "-k", "-3"]) == 2
    assert capsys.readouterr().out == ""


# Runs in a fresh interpreter, so that no other test has loaded numpy yet.
LAZY_NUMPY = """
import contextlib, io, os, sys
import omegatrans, omegatrans.cli
from omegatrans.cli import main
from omegatrans.formats import parse_machine

machines, tmp = sys.argv[1], sys.argv[2]
sst, twowst, fot = (os.path.join(machines, "f1." + kind) for kind in ("sst", "2wst", "fot"))
assert "numpy" not in sys.modules, "import"
assert "omegatrans.fixtures" not in sys.modules, "import"
assert "argparse" not in sys.modules, "import"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


verbs = [
    ["compile", "2wst-to-sst", twowst, "-o", os.path.join(tmp, "f1.sst-sf")],
    ["eliminate-la", os.path.join(tmp, "f1.sst-sf"), "-o", os.path.join(tmp, "f1.sst")],
    ["check-1bounded", sst],
    ["check-aperiodic", sst],
    ["check-aperiodic", twowst],
    ["monoid", sst],
    ["monoid", twowst],
    ["compare", twowst, sst, "--sample", "5"],
    ["run", "-k", "40", twowst, "ab#(a)^w"],
]
for argv in verbs:
    run(argv)
    assert "numpy" not in sys.modules, argv
want = run(["run", "-k", "40", sst, "ab#(a)^w"])
parse_machine(fot)
assert "numpy" not in sys.modules, "parse f1.fot"
got = run(["run", "-k", "40", fot, "ab#(a)^w"])
assert "numpy" in sys.modules, "run f1.fot"
assert got == want, (got, want)
"""


def test_only_first_order_evaluation_loads_numpy(tmp_path):
    src = str(MACHINES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", LAZY_NUMPY, str(MACHINES), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_usage_and_parse_errors_exit_2(capsys):
    assert main(["monoid", str(MACHINES / "missing.dma")]) == 2
    assert main(["check-1bounded", F1_2WST]) == 2
    assert main(["run", F1_SST, "not-a-word"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def _verbs(machine, word, tmp_path):
    """Every verb of the command line, applied to one machine and one word."""
    corpus = tmp_path / "one.txt"
    corpus.write_text(word + "\n")
    prefix, period = word.split("(")
    out = str(tmp_path / "out")
    return [
        ["run", "-k", "12", machine, word],
        ["compare", "-k", "12", machine, machine, "--corpus", str(corpus)],
        ["compare", "-k", "12", machine, F1_SST, "--sample", "2"],
        ["check-aperiodic", machine],
        ["check-1bounded", machine],
        ["monoid", machine],
        ["behavior", machine, prefix, "--continuation", "(" + period],
        ["graph", "--horizon", "6", machine, word],
        ["compile", "2wst-to-sst", machine, "-o", out],
        ["eliminate-la", machine, "-o", out],
    ]


def test_every_verb_on_every_shipped_machine_exits_with_a_code(tmp_path, capsys):
    """No verb raises on any file of machines/: it exits 0-3, and an exit of
    2 or 3 comes with exactly one `error:` line."""
    word = "ab#(a)^w"
    assert word in CORPUS_WORDS
    machines = sorted(p for p in MACHINES.iterdir() if p.name != "corpus.txt")
    assert len(machines) == 7
    for path in machines:
        for argv in _verbs(str(path), word, tmp_path):
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc in (0, 1, 2, 3), argv
            if rc >= 2:
                assert len(captured.err.splitlines()) == 1, argv
                assert captured.err.startswith("error: "), argv
            else:
                assert captured.err == "", argv


def test_run_and_compare_name_the_kinds_they_can_run(capsys):
    assert main(["run", SETTLING_DMA, "a(b)^w"]) == 2
    assert main(["compare", F1_SST, SETTLING_DMA, "--sample", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: %s is a dma file; this verb needs sst/sst-sf/2wst/fot" % SETTLING_DMA
    ] * 2
    assert main(["eliminate-la", F1_SST]) == 2
    assert capsys.readouterr().err == (
        "error: %s is a sst file; this verb needs sst-sf\n" % F1_SST)


def test_behavior_checks_the_letters_of_the_continuation(capsys):
    assert main(["behavior", F1_2WST, "ab", "--continuation", "x(y)^w"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 'x' is not in the machine's alphabet\n"
    assert main(["behavior", F1_2WST, "ab", "--continuation", "#(a)^w"]) == 0


@pytest.fixture
def fresh_parser(monkeypatch):
    """main with no parser built yet; the count of build_parser calls."""
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    return calls


def test_main_builds_the_parser_once(fresh_parser, capsys):
    assert main(["check-1bounded", F1_SST]) == 0
    assert main(["check-aperiodic", F1_SST]) == 0
    assert capsys.readouterr().out == "1-bounded\naperiodic\n"
    assert len(fresh_parser) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_an_option_of_one_call_is_not_kept_by_the_next(fresh_parser, capsys):
    assert main(["run", "-k", "8", F1_SST, "(a)^w"]) == 0
    assert main(["run", F1_SST, "(a)^w"]) == 0
    assert capsys.readouterr().out == "a" * 8 + "\n" + "a" * 40 + "\n"
    assert main(["check-aperiodic", SETTLING_DMA, "--cap", "1"]) == 3
    assert main(["check-aperiodic", SETTLING_DMA]) == 1
    captured = capsys.readouterr()
    assert captured.out == "not aperiodic (witness: a)\n"
    assert captured.err == "error: monoid exceeded 1 elements\n"
    assert len(fresh_parser) == 1


def test_a_usage_error_leaves_the_parser_usable(fresh_parser, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb", F1_SST])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-verb'" in capsys.readouterr().err
    assert main(["run", "-k", "5", F1_SST, "ab#(a)^w"]) == 0
    assert capsys.readouterr().out == "baab#\n"
    assert len(fresh_parser) == 1
