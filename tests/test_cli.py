import pathlib

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


def test_run_prints_the_output_prefix(capsys):
    assert main(["run", F1_SST, "ab#(a)^w", "-k", "20"]) == 0
    assert capsys.readouterr().out == "baab#" + "a" * 15 + "\n"


def test_run_reports_rejection(capsys):
    assert main(["run", F1_SST, "(a#)^w", "-k", "20"]) == 1
    assert "rejected" in capsys.readouterr().out


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


def test_monoid_cap_exits_3(capsys):
    assert main(["monoid", SETTLING_DMA, "--cap", "2"]) == 3
    assert main(["check-aperiodic", SETTLING_DMA, "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: monoid exceeded 2 elements"] * 2


def test_check_verbs_exit_by_verdict(capsys):
    assert main(["check-aperiodic", SETTLING_DMA]) == 1
    assert "witness: a" in capsys.readouterr().out
    assert main(["check-aperiodic", F1_2WST]) == 0
    assert main(["check-aperiodic", F1_SST]) == 0
    assert main(["check-1bounded", SETTLING_SST]) == 1
    assert "witness: ab" in capsys.readouterr().out
    assert main(["check-1bounded", F1_SST]) == 0


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


def test_usage_and_parse_errors_exit_2(capsys):
    assert main(["monoid", str(MACHINES / "missing.dma")]) == 2
    assert main(["check-1bounded", F1_2WST]) == 2
    assert main(["run", F1_SST, "not-a-word"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
