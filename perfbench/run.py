"""Benchmark of the omegatrans package: the decide, compile and stream workloads.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-check

One process, one thread, one client, closed loop: each operation starts when
the previous one has returned and been checked.  A run repeats whole rounds
(every operation of the workload once, in a fixed order) for about
--seconds, and never fewer than one round.  --trace 0 measures untraced and
prints the end-to-end metrics; --trace 1 measures half the time untraced and
half traced and prints the per-layer metrics.  The last line of standard
output is the JSON result; the log goes to standard error.  See README.md
for what every metric means.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("decide", "compile", "stream")
SETUP_REPS = 5
MODULES = ("cli", "constructions", "fixtures", "fologic", "formats", "fot", "muller",
           "outputgraph", "sst", "twowst", "words")


def log(message):
    print(message, file=sys.stderr, flush=True)


def import_package():
    """Import the package from the checkout's src, as a namespace of modules."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    mods = {name: importlib.import_module("omegatrans." + name) for name in MODULES}
    return types.SimpleNamespace(package=importlib.import_module("omegatrans"), **mods)


def import_seconds():
    """Median time to import the package in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, %r); "
            "import omegatrans, omegatrans.cli; print(time.perf_counter() - t)"
            % os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def draw(M, name, seed, size, workdir):
    if name == "decide":
        return workloads.draw_decide(M, seed, size), workloads.setup_decide
    if name == "compile":
        return workloads.draw_compile(M, seed, size, ROOT, workdir), workloads.setup_compile
    return workloads.draw_stream(M, seed, size, ROOT), workloads.setup_stream


class Round:
    def __init__(self):
        self.times = []
        self.failures = []
        self.spans = None


def typical_times(rounds):
    """Each operation's latency at its median over the rounds.

    Slow spells of a shared machine hit a few operations of a round; the
    per-operation median drops them where a whole-round median would not.
    """
    return [statistics.median(ts) for ts in zip(*(r.times for r in rounds))]


def run_round(ops, tracer, first_op_id):
    r = Round()
    span_start = len(tracer.spans) if tracer else 0
    for i, op in enumerate(ops):
        call, check = op.prepare()
        root = tracer.begin_op(first_op_id + i, "op:" + op.label) if tracer else None
        t0 = time.perf_counter()
        try:
            result, exc = call(), None
        except Exception as err:  # a failed operation is counted, not fatal
            result, exc = None, err
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(root)
        r.times.append(dt)
        try:
            reason = check(result, exc)
        except Exception as err:
            reason = "check raised %r" % (err,)
        if reason is not None:
            r.failures.append((op, reason))
        gc.collect(0)
    if tracer:
        r.spans = tracer.spans[span_start:]
    gc.collect()
    return r


def run_for(ops, budget, tracer=None, first_op_id=0):
    """Whole rounds for about budget seconds (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(ops, tracer, first_op_id + len(rounds) * len(ops)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > budget:
            return rounds


def end_to_end(rounds, setup_s):
    times = [t for r in rounds for t in r.times]
    failed = sum(len(r.failures) for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(typical_times(rounds)), "s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "ok_ratio": (1 - failed / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced):
    spec = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    values = layers.median_metrics([layers.round_metrics(r.spans) for r in traced])
    values["trace.overhead_s"] = sum(typical_times(traced)) - sum(typical_times(untraced))
    return {name: (values[name], spec[name]) for name in spec}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def report_failures(rounds):
    seen = {}
    for r in rounds:
        for op, reason in r.failures:
            key = (op.label, op.subject, op.known_defect)
            seen.setdefault(key, [0, reason])[0] += 1
    for (label, subject, known), (count, reason) in sorted(seen.items(), key=str):
        tag = "known defect: %s" % known if known else "UNEXPECTED"
        log("failed %dx %s [%s]: %s (%s)" % (count, label, subject, reason[:300], tag))


def measure(args):
    missing = [p for p in ("src/omegatrans/__init__.py", "machines/f1.2wst", "BENCHMARK.json")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("error: run from a checkout of the repository; missing %s" % ", ".join(missing))
        return 2
    import_s = import_seconds()
    M = import_package()
    workdir = os.path.join(ROOT, ".perfbench", "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        drawn, setup = draw(M, args.workload, args.seed, args.size, workdir)
        log("%s seed %d: %s" % (args.workload, args.seed, json.dumps(drawn.summary)))
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            ops = setup(M, drawn)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        gc.collect()
        gc.freeze()
        gc.disable()
        if args.trace:
            untraced = run_for(ops, args.seconds / 2)
            tracer = Tracer()
            tracer.install([M.package] + [getattr(M, m) for m in MODULES], layers.specs(M))
            try:
                traced = run_for(ops, args.seconds / 2, tracer,
                                 first_op_id=len(untraced) * len(ops))
            finally:
                tracer.uninstall()
            rounds = untraced + traced
            metrics = per_layer(untraced, traced)
            spans_path = os.path.join(ROOT, ".perfbench",
                                      "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
            tracer.dump(spans_path)
            log("spans written to %s" % os.path.relpath(spans_path, ROOT))
        else:
            rounds = run_for(ops, args.seconds)
            metrics = end_to_end(rounds, setup_s)
        gc.enable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(rounds)
    attempted = sum(len(r.times) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    log("%d rounds of %d operations; round times %s s" % (
        len(rounds), len(ops), ", ".join("%.3f" % sum(r.times) for r in rounds)))
    result = {
        "correct": all(op.known_defect for op, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def self_check():
    """Each workload at tiny size: names and units must match BENCHMARK.json
    and per-layer counts must repeat exactly across two traced runs."""
    spec = load_spec()
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        results = {}
        for run, trace in (("plain", "0"), ("traced-1", "1"), ("traced-2", "1")):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", trace, "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print("%s %s: exit %d\n%s" % (name, run, proc.returncode, proc.stderr))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units[trace]:
                print("%s %s: metric names or units differ from BENCHMARK.json" % (name, run))
                ok = False
            if not result["correct"]:
                print("%s %s: unexpected wrong output\n%s" % (name, run, proc.stderr))
                ok = False
            results[run] = result
        for metric, entry in results["traced-1"]["metrics"].items():
            if entry["unit"] in ("count", "bytes"):
                again = results["traced-2"]["metrics"][metric]["value"]
                if again != entry["value"]:
                    print("%s: %s is %r then %r" % (name, metric, entry["value"], again))
                    ok = False
        for run in ("plain", "traced-1"):
            r = results[run]
            print("%s %s: attempted %d failed %d correct %s" % (
                name, run, r["attempted"], r["failed"], r["correct"]))
            for metric, entry in r["metrics"].items():
                print("  %-38s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and print every metric")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
