#!/usr/bin/env python3
"""Repeats bench_e2e/run.py over several seeds and summarizes each metric.

Run from the repository root:

    python3 bench_e2e/repeat.py --runs 10 --seconds 15 --trace 0 [--workload W ...] [--out FILE]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) as a
share of the median, plus each invocation's own wall time. Seeds run from 1
to --runs, so two calls with the same arguments run the same inputs. With
--out the summary (and every raw value) is written as JSON; LEDGER.md's
baseline tables come from such files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["diy7-power", "corpus6i-json", "corpus6i-warm"]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or WORKLOADS:
        values, invocations, failures = {}, [], 0
        units = {}
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            invocations.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: {invocations[-1]:.1f}s correct={result['correct']}",
                  file=sys.stderr, flush=True)
        summary[workload] = {
            "runs": args.runs, "failed_runs": failures,
            "invocation_s": summarize(invocations),
            "metrics": {n: dict(summarize(v), unit=units[n]) for n, v in values.items()},
        }
        print(f"\n{workload}: {args.runs} runs, {failures} failed, "
              f"invocation median {statistics.median(invocations):.1f}s")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, s in summary[workload]["metrics"].items():
            print(f"  {name:36s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {s['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
