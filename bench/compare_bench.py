#!/usr/bin/env python3
"""Bench regression gate: diff fresh bench JSON against committed baselines.

Usage:
    compare_bench.py [--baseline-dir bench/baselines] FRESH.json [FRESH2.json ...]
    compare_bench.py --update-baseline FRESH.json [...]

Three input formats are recognized by content:

  * the exact-kernel bench (``{"bench": "exact_kernels", "rows": [...]}``):
    rows are keyed by (instance, kernel, threads). Serial rows carry
    deterministic ``visited_nodes`` counts, so ANY increase over the
    baseline fails the gate — that is the strong, noise-free signal that
    a search-kernel change regressed its pruning. Rows with threads > 1
    are exempt from the node gate (parallel node counts race on the
    incumbent) but still face the wall-clock gate.
  * the routing simulator (``{"bench": "routing_sim", "rows": [...]}``):
    rows are keyed by (instance, traffic, threads). The engine is
    deterministic for ANY thread count, so the makespan column is gated
    like a visited-node count on every row — any drift fails. The
    cross-run wall gate is skipped (the in-binary throughput floors are
    the performance gate); instead, each row carrying a
    ``min_phops_per_s`` floor is re-checked here when the fresh run had
    its perf gates on (``"gated": true``).
  * google-benchmark output (``{"benchmarks": [...]}``, e.g.
    BENCH_solvers.json): entries are keyed by name and face the
    wall-clock gate only.

The wall-clock gate fails a row when it is both >25% slower than the
baseline AND slower by more than the absolute noise floor (0.1 s) —
micro-rows flap by multiples under CI jitter, and for them the
node-count gate is the meaningful one anyway.

A baseline row missing from the fresh output fails (a silently dropped
instance is a regression too), unless it needs more threads than the
CPUs the fresh run recorded (routing_sim's ``"cpus"``: the bench only
runs its 4-thread row where 4 CPUs are available). Fresh rows absent
from the baseline are reported but pass, so adding instances does not
require a lockstep baseline update. ``--update-baseline`` rewrites the committed files from
the fresh ones.

Exit status: 0 clean, 1 regression (or malformed input), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

REL_TOLERANCE = 0.25  # >25% slower fails...
ABS_FLOOR_SECONDS = 0.1  # ...but only beyond CI timing noise

# SIMD dispatch gate: the vector level is compared against the SAME
# RUN's scalar row (the ``bb-bitset@<level>`` dispatch rows), never
# across runs, whose relative clocks flap under frequency scaling. The
# floor sits below the >= 1.5x target so shared-runner jitter cannot
# flap the build, while a level silently degrading toward scalar speed
# still fails.
SPEEDUP_FLOORS = {"avx2": 1.2}

_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load(path: pathlib.Path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def rows_by_key(doc: dict) -> dict[tuple, dict]:
    """Normalizes either format to {key: {"seconds": s, "nodes": n|None}}."""
    out: dict[tuple, dict] = {}
    if doc.get("bench") == "routing_sim":
        for r in doc["rows"]:
            key = (r["instance"], r["traffic"], r["threads"])
            out[key] = {
                "seconds": float(r["seconds"]),
                # Thread-count-deterministic, so gated on every row.
                "nodes": int(r["makespan"]),
                "metric": "makespan",
                # Cross-run wall times flap with the runner; the
                # in-binary min_phops_per_s floors are the perf gate.
                "no_wall": True,
                "threads": int(r["threads"]),
            }
    elif "rows" in doc:  # exact-kernel format
        for r in doc["rows"]:
            key = (r["instance"], r["kernel"], r["threads"])
            nodes = r.get("visited_nodes")
            if r["threads"] > 1:
                nodes = None  # racy under the shared incumbent
            out[key] = {"seconds": float(r["seconds"]), "nodes": nodes}
    elif "benchmarks" in doc:  # google-benchmark format
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            unit = _TIME_UNITS.get(b.get("time_unit", "ns"), 1e-9)
            out[(b["name"],)] = {
                "seconds": float(b["real_time"]) * unit,
                "nodes": None,
            }
    else:
        raise ValueError("unrecognized bench JSON (neither rows nor benchmarks)")
    return out


_DISPATCH_LEVELS = {"scalar": 0, "avx2": 1}
_TOP_RANK = max(_DISPATCH_LEVELS.values())


def dispatch_rank(doc: dict) -> int:
    """Docs without the dispatch fields, or naming a level this gate does
    not know, rank as the top level — every row is assumed reachable and
    the wall gate stays on."""
    return _DISPATCH_LEVELS.get(str(doc.get("dispatch_active")), _TOP_RANK)


def row_dispatch_rank(key: tuple) -> int:
    """Rows named ``bb-bitset@<level>`` need that dispatch level to run;
    everything else runs anywhere."""
    kernel = str(key[1]) if len(key) > 1 else ""
    if "@" not in kernel:
        return 0
    return _DISPATCH_LEVELS.get(kernel.rsplit("@", 1)[1], 0)


def compare(fresh: dict[tuple, dict], base: dict[tuple, dict],
            label: str, fresh_rank: int = _TOP_RANK,
            base_rank: int = _TOP_RANK,
            fresh_cpus: int | None = None) -> list[str]:
    failures = []
    # A run pinned below the baseline's dispatch level (scalar-only
    # machine, or the CI scalar-fallback leg's --dispatch=scalar) cannot
    # reproduce the baseline's vector timings; only the deterministic
    # node counts stay comparable.
    gate_wall = fresh_rank >= base_rank
    if not gate_wall:
        print(f"note: {label}: fresh run pinned to a lower dispatch level"
              " than the baseline; wall-clock gate skipped, node gate kept")
    for key, b in sorted(base.items()):
        name = "/".join(str(k) for k in key)
        f = fresh.get(key)
        if f is None:
            if row_dispatch_rank(key) > fresh_rank:
                print(f"note: {label}: baseline row {name} needs a dispatch"
                      " level the fresh run does not have — skipped")
                continue
            if fresh_cpus is not None and b.get("threads", 1) > fresh_cpus:
                print(f"note: {label}: baseline row {name} needs more CPUs"
                      f" than the fresh run had ({fresh_cpus}) — skipped")
                continue
            failures.append(f"{label}: row {name} vanished from the fresh run")
            continue
        if b["nodes"] is not None and f["nodes"] is not None \
                and f["nodes"] > b["nodes"]:
            metric = b.get("metric", "visited-node count")
            failures.append(
                f"{label}: {name} {metric} {f['nodes']}"
                f" (baseline {b['nodes']}) — deterministic regression")
        slower = f["seconds"] - b["seconds"]
        # Pinned-dispatch rows (bb-bitset@<level>) are gated within-run
        # by the per-level speedup floors instead: their cross-run wall
        # times flap with CPU frequency scaling. Node counts stay exact.
        # Rows flagged no_wall (routing_sim) carry their own in-binary
        # throughput floors for the same reason.
        if b.get("no_wall") or f.get("no_wall"):
            continue
        if len(key) > 1 and "@" in str(key[1]):
            continue
        if gate_wall and slower > ABS_FLOOR_SECONDS and \
                f["seconds"] > b["seconds"] * (1.0 + REL_TOLERANCE):
            failures.append(
                f"{label}: {name} took {f['seconds']:.3f}s"
                f" (baseline {b['seconds']:.3f}s, +{slower:.3f}s)")
    for key in sorted(set(fresh) - set(base)):
        name = "/".join(str(k) for k in key)
        print(f"note: {label}: new row {name} has no baseline"
              " (run --update-baseline to pin it)")
    return failures


def level_speedups(rows: dict[tuple, dict]) -> dict[str, float]:
    """Within-run vector-over-scalar speedups from the bb-bitset@<level>
    dispatch rows: for each level, seconds(scalar)/seconds(level) on the
    instance with the most scalar signal (largest scalar time). The
    dispatch kernels are bit-identical by contract, so the time ratio is
    the nodes/s ratio."""
    by_instance: dict[str, dict[str, float]] = {}
    for key, v in rows.items():
        if len(key) < 3 or key[2] != 1:
            continue
        kernel = str(key[1])
        if not kernel.startswith("bb-bitset@"):
            continue
        level = kernel.rsplit("@", 1)[1]
        by_instance.setdefault(str(key[0]), {})[level] = v["seconds"]
    best_scalar = -1.0
    picked: dict[str, float] = {}
    for levels in by_instance.values():
        scalar = levels.get("scalar", 0.0)
        if scalar <= 0.0 or scalar <= best_scalar:
            continue
        best_scalar = scalar
        picked = {lvl: scalar / secs for lvl, secs in levels.items()
                  if lvl != "scalar" and secs > 0.0}
    return picked


def speedup_failures(fresh_rows: dict[tuple, dict],
                     base_rows: dict[tuple, dict], label: str) -> list[str]:
    """Gates each vector level against the SAME run's scalar row.

    A level present in the baseline but absent from the fresh run is
    skipped with a note (scalar-only machine, or a --dispatch pin) —
    that is the fallback configuration, not a kernel regression. Levels
    are never compared against each other.
    """
    fresh_sp = level_speedups(fresh_rows)
    base_sp = level_speedups(base_rows)
    failures = []
    for level, floor in sorted(SPEEDUP_FLOORS.items()):
        if level not in base_sp:
            continue  # the baseline never measured this level
        if level not in fresh_sp:
            print(f"note: {label}: no {level} dispatch row in the fresh run"
                  " (machine capability or pin); speedup gate skipped")
            continue
        sp = fresh_sp[level]
        if sp < floor:
            failures.append(
                f"{label}: {level}-over-scalar speedup {sp:.2f}x is below"
                f" the {floor:.2f}x floor (baseline {base_sp[level]:.2f}x)"
                " — SIMD dispatch regression")
        else:
            print(f"{label}: {level}-over-scalar speedup {sp:.2f}x"
                  f" (baseline {base_sp[level]:.2f}x, floor {floor:.2f}x)")
    return failures


def routing_sim_failures(doc: dict, label: str) -> list[str]:
    """Re-checks the routing-sim in-binary gates from the emitted JSON:
    the recorded failure count must be zero, and every row carrying a
    min_phops_per_s floor must clear it when the run had its perf gates
    on. (The bench already exits nonzero on these; re-deriving them here
    keeps the gate honest even when a wrapper swallowed the exit code.)
    """
    if doc.get("bench") != "routing_sim":
        return []
    failures = []
    if int(doc.get("failures", 0)) != 0:
        failures.append(f"{label}: bench recorded"
                        f" {doc['failures']} in-binary gate failure(s)")
    if not doc.get("gated", False):
        print(f"note: {label}: perf gates were off in this run"
              " (checked/sanitized build); throughput floors skipped")
        return failures
    for r in doc.get("rows", []):
        floor = float(r.get("min_phops_per_s", 0.0))
        if floor <= 0.0:
            continue
        got = float(r.get("phops_per_s", 0.0))
        name = f"{r['instance']}/{r['traffic']}/{r['threads']}"
        if got < floor:
            failures.append(
                f"{label}: {name} sustained {got / 1e6:.2f}M packets·hops/s,"
                f" below the {floor / 1e6:.2f}M floor")
        else:
            print(f"{label}: {name} {got / 1e6:.2f}M packets·hops/s"
                  f" (floor {floor / 1e6:.2f}M)")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="+", type=pathlib.Path,
                    help="fresh bench JSON files to gate")
    ap.add_argument("--baseline-dir", type=pathlib.Path,
                    default=pathlib.Path(__file__).parent / "baselines")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the committed baselines from the fresh files")
    args = ap.parse_args()

    if args.update_baseline:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in args.fresh:
            dest = args.baseline_dir / path.name
            shutil.copyfile(path, dest)
            print(f"baseline updated: {dest}")
        return 0

    failures: list[str] = []
    for path in args.fresh:
        base_path = args.baseline_dir / path.name
        if not base_path.exists():
            failures.append(f"no committed baseline {base_path} for {path}"
                            " (run --update-baseline once)")
            continue
        try:
            fresh_doc = load(path)
            base_doc = load(base_path)
            fresh_rows = rows_by_key(fresh_doc)
            base_rows = rows_by_key(base_doc)
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            failures.append(f"{path}: {e}")
            continue
        failures.extend(compare(fresh_rows, base_rows, path.name,
                                dispatch_rank(fresh_doc),
                                dispatch_rank(base_doc),
                                fresh_doc.get("cpus")))
        failures.extend(speedup_failures(fresh_rows, base_rows, path.name))
        failures.extend(routing_sim_failures(fresh_doc, path.name))

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"bench gate clean ({len(args.fresh)} file(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
