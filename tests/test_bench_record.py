"""The committed benchmark records (BENCH_*.json) match BENCHMARK.json.

Only reads the files; it does not run the benchmark.
"""

import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
RECORDS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


@pytest.mark.parametrize("name", RECORDS)
def test_bench_record_names_the_end_to_end_metrics(name):
    spec = _load("BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = _load(name)
    assert name == "BENCH_%d.json" % record["pr"]
    assert set(record["workloads"]) == {"decide", "compile", "stream"}
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload, result in record["workloads"].items():
        metrics = result["metrics"]
        assert {m: metrics[m]["unit"] for m in metrics} == units, workload
        assert all(isinstance(metrics[m]["value"], (int, float)) for m in metrics), workload
        assert isinstance(result["attempted"], int) and result["attempted"] > 0, workload
        assert isinstance(result["failed"], int) and 0 <= result["failed"], workload
        if "paired" in result:
            assert set(result["paired"]) == set(units), workload
            for summary in result["paired"].values():
                pairs = record["parent"]["pairs"]
                assert summary["pairs"] == pairs and 0 <= summary["change_wins"] <= pairs
                for side in ("parent", "change"):
                    assert len(summary[side]["runs"]) == pairs, workload
                    assert summary[side]["q1"] <= summary[side]["median"] <= summary[side]["q3"]
    assert record["tier1"]["wall_s"] > 0


def test_paired_summary_counts_strict_wins_of_the_better_direction():
    parent = [5.0, 4.0, 3.0, 2.0, 1.0]
    change = [4.0, 4.0, 3.5, 1.0, 0.5]
    lower = bench_record.paired_summary(parent, change, "lower")
    assert lower["pairs"] == 5
    assert lower["change_wins"] == 3  # the tie 4.0 = 4.0 wins nothing
    assert lower["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert lower["change"] == {"median": 3.5, "q1": 1.0, "q3": 4.0, "runs": change}
    higher = bench_record.paired_summary(parent, change, "higher")
    assert higher["change_wins"] == 1
    assert higher["better"] == "higher"


def test_paired_summary_interpolates_quartiles_and_takes_a_single_pair():
    summary = bench_record.paired_summary([1, 2, 3, 4], [2, 2, 2, 2], "lower")
    assert summary["parent"]["median"] == 2.5
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == (1.75, 3.25)
    assert summary["change_wins"] == 2
    one = bench_record.paired_summary([0.9], [0.8], "lower")
    assert one["change"] == {"median": 0.8, "q1": 0.8, "q3": 0.8, "runs": [0.8]}
    assert one["change_wins"] == 1
    with pytest.raises(ValueError):
        bench_record.paired_summary([1.0, 2.0], [1.0], "lower")
