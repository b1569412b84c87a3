"""Record the benchmark and the Tier-1 wall time of the checkout in BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_record.py --pr N --seed 1

For every workload of BENCHMARK.json it runs the benchmark's command with
``--workload W --seed SEED --seconds S --trace 0`` in a subprocess, and keeps
the end-to-end metrics with the operations attempted and failed.  Then it
times the Tier-1 suite (the command in ROADMAP.md).  The record is written
to BENCH_<pr>.json at the repository root; the benchmark's own log goes to
standard error as it runs.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, name, seed, seconds):
    """The end-to-end result of one untraced run of a workload."""
    command = [sys.executable if arg in ("python", "python3") else arg
               for arg in spec["command"]]
    command += ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = [m["name"] for m in spec["end_to_end"]]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {m: result["metrics"][m] for m in wanted},
    }


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
    args = parser.parse_args(argv)
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
