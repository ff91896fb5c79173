#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads exact,...]

Runs two sets of `--runs` untraced runs per workload, each run of run_seconds
(BENCHMARK.json) on its own seed, as the acceptance gate does: set 1 uses
seeds 1..runs and set 2 seeds runs+1..2*runs. For every (end-to-end metric,
workload) pair it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (quartile distance over the
median) and set 2's median against set 1's. A pair is steady when both
spreads and the change between the medians, in either direction, stay within
the metric's bound; "tight" marks a spread below a third of the bound. Exits
1 when a pair is not steady or a run fails. Fewer runs or one workload
(`--runs 5 --workloads exact`) make a quick check while tuning.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    raw = {}
    for workload in args.workloads.split(","):
        raw[workload] = []
        for s in range(SETS):
            values = []
            for seed in range(1 + s * args.runs, 1 + (s + 1) * args.runs):
                values.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"# {workload} set {s + 1} seed {seed} done",
                      file=sys.stderr, flush=True)
            raw[workload].append(values)

    steady = True
    print(f"{'workload':<10} {'metric':<15} {'set':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} "
          f"{'vs set 1':>9}  verdict")
    for workload, sets in raw.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                q1, med, q3 = statistics.quantiles([r[name] for r in runs],
                                                   n=4)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                if first_median is None:
                    first_median = med
                change = (med - first_median) / abs(first_median)
                ok = abs(change) <= bound and spread <= bound
                steady &= ok
                verdict = "ok" if ok else "NOT STEADY"
                if ok and spread < bound / 3:
                    verdict += " (tight)"
                print(f"{workload:<10} {name:<15} {s + 1:>3} {med:>14.6g} "
                      f"{q1:>14.6g} {q3:>14.6g} {spread:>8.2%} {bound:>6.2f} "
                      f"{change:>+9.2%}  {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
