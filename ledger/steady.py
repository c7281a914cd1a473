#!/usr/bin/env python3
"""Steadiness check for the layer ledger.

Runs each workload --runs times (default 10) for BENCHMARK.json's
run_seconds, each run with another seed, alternating the workload order
from round to round, and prints for every end-to-end metric its median,
quartiles and spread (inter-quartile distance over the median) against
the metric's bound:

    python3 ledger/steady.py                       # BENCHMARK.json's workloads
    python3 ledger/steady.py --runs 5 --workloads serve_mixed fetch_fanout

Run it from the repository root. "ok" means the spread is below a third of
the bound; "wide" means it is within the bound but not below a third;
"FAIL" means it exceeds the bound. The failed share of operations must be
identical across runs. Raw results are appended to ledger/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        raise SystemExit("incorrect answers: %s seed %d" % (workload, seed))
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names)
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    results = {w: [] for w in args.workloads}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log_path = os.path.join(HERE, "out", "steady.jsonl")
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else args.workloads[::-1]
        for workload in order:
            seed = args.seed_base + r
            result, wall = run_once(spec, workload, seed)
            results[workload].append(result)
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": wall, "result": result})
                          + "\n")
            print("run %2d %-13s seed %-4d %6.1f s wall, %d attempted"
                  % (r + 1, workload, seed, wall, result["attempted"]),
                  flush=True)

    worst = "ok"
    for workload in args.workloads:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("\n%s: %d runs, failed share %s" % (
            workload, len(runs), sorted(shares)))
        if len(shares) != 1:
            worst = "FAIL"
        print("  %-32s %12s %12s %12s %8s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = metric["bound"]
            if spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "FAIL"
            if verdict == "FAIL" or (verdict == "wide" and worst == "ok"):
                worst = verdict
            print("  %-32s %12.4f %12.4f %12.4f %8.4f %6s  %s" % (
                metric["name"], q1, median, q3, spread, bound, verdict))
    print("\noverall: %s" % worst)
    return 0 if worst != "FAIL" else 1


if __name__ == "__main__":
    sys.exit(main())
