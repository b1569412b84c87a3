"""The committed benchmark records (BENCH_*.json) match BENCHMARK.json.

Only reads the files; it does not run the benchmark.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
    assert record["tier1"]["wall_s"] > 0
