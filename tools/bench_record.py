"""Record the benchmark and the Tier-1 wall time of the checkout in BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_record.py --pr N --seed 1
    python3 tools/bench_record.py --pr N --seed 1 --parent REV --pairs 10

For every workload of BENCHMARK.json it runs the benchmark's command with
``--workload W --seed SEED --seconds S --trace 0`` in a subprocess, and keeps
the end-to-end metrics with the operations attempted and failed.  Then it
times the Tier-1 suite (the command in ROADMAP.md).  The record is written
to BENCH_<pr>.json at the repository root; the benchmark's own log goes to
standard error as it runs.

With --parent REV, the committed files of REV are extracted (git archive)
into a temporary directory, which is removed afterwards, also when a run
fails.  Each workload then runs --pairs times on each side, the side that
goes first alternating from pair to pair, and its record gains a "paired"
object: per end-to-end metric, the parent's and the checkout's medians and
quartiles, their values pair by pair, and the number of pairs the checkout
won.  The single-run fields are those of the checkout's run in the first
pair, so the record reads like one without --parent.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, name, seed, seconds, root=ROOT):
    """The end-to-end result of one untraced run of a workload in the checkout at root."""
    command = [sys.executable if arg in ("python", "python3") else arg
               for arg in spec["command"]]
    command += ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "0"]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = [m["name"] for m in spec["end_to_end"]]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {m: result["metrics"][m] for m in wanted},
    }


def paired_summary(parent, change, better):
    """Medians and quartiles of one metric's paired runs, and the pairs the change won.

    parent[i] and change[i] were measured in pair i; better is "lower" or
    "higher".  A tie wins nothing.  Quartiles interpolate between the
    sorted values (statistics.quantiles, inclusive method).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, at least one")

    def spread(values):
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "runs": list(values)}

    sign = 1 if better == "higher" else -1
    return {
        "better": better,
        "pairs": len(parent),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent": spread(parent),
        "change": spread(change),
    }


def extract(rev, into):
    """The committed files of rev, extracted under the directory into."""
    path = os.path.join(into, "parent")
    os.mkdir(path)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def run_pairs(spec, name, seed, seconds, pairs, parent_root):
    """The checkout's first run of a workload, with the "paired" object added."""
    runs = {"parent": [], "change": []}
    roots = {"parent": parent_root, "change": ROOT}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            print("bench_record: %s pair %d %s" % (name, i + 1, side), file=sys.stderr,
                  flush=True)
            runs[side].append(run_workload(spec, name, seed, seconds, roots[side]))
    record = dict(runs["change"][0])
    record["paired"] = {
        m["name"]: paired_summary([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                  [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                  m["better"])
        for m in spec["end_to_end"]
    }
    return record


def run_tier1():
    """Wall time, exit code and summary line of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--parent", help="git revision to pair the checkout against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="with --parent: runs per workload on each side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    if args.parent is not None:
        commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        record["parent"] = {"rev": args.parent, "commit": commit.stdout.strip(),
                            "pairs": args.pairs}
        tmp = tempfile.mkdtemp(prefix="bench_record-")
        try:
            parent_root = extract(args.parent, tmp)
            for workload in spec["workloads"]:
                record["workloads"][workload["name"]] = run_pairs(
                    spec, workload["name"], args.seed, seconds, args.pairs, parent_root)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    else:
        for workload in spec["workloads"]:
            name = workload["name"]
            print("bench_record: %s" % name, file=sys.stderr, flush=True)
            record["workloads"][name] = run_workload(spec, name, args.seed, seconds)
    print("bench_record: tier-1", file=sys.stderr, flush=True)
    record["tier1"] = run_tier1()
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
