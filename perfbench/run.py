#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <exact|partition|routing|service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build tree lives in
$CARGO_TARGET_DIR (default .bench_build) under the checkout; the first
run configures and compiles the library in Release, later runs only
re-check it. The last line of standard output is the program's JSON
result, its metrics given the units BENCHMARK.json declares (a per-layer
metric the workload does not reach reads 0). The exit code is nonzero when
any answer failed its check, when the program reports a metric
BENCHMARK.json does not declare or misses an end-to-end one, or when the
build fails. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact", "partition", "routing", "service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout keeps only
    the program's lines."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def with_units(values, trace):
    """The program's {name: value} metrics as BENCHMARK.json declares them
    for the mode, in its order, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise ValueError(f"undeclared metrics {sorted(unknown)}")
    out = {}
    for m in declared:
        if m["name"] not in values and not trace:
            raise ValueError(f"missing end-to-end metric {m['name']}")
        out[m["name"]] = {"value": values.get(m["name"], 0),
                          "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "perfbench")
    workdir = build_root / "perfbench-work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out",
                str(build_root / f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        result["metrics"] = with_units(result["metrics"], args.trace)
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        sys.stdout.write(lines[-1] + "\n")
        fail(f"perfbench exited {proc.returncode} without a result ({e})")
    except ValueError as e:
        fail(f"metrics differ from BENCHMARK.json: {e}")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
