#!/usr/bin/env python3
"""Builds gmreg_bench from this checkout and runs benchmark workloads.

Run from the root of the checkout:

    python3 perfbench/run.py --workload train-gm-eager --seed 1 --trace 0
    python3 perfbench/run.py --seed 1 [--trace 1]   # every workload

With --workload the last line of standard output is the run's JSON result:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Without --workload every workload runs in a child
process of its own; a crash is recorded with its signal, the rest still run,
and the exit code is non-zero. The build goes to .bench_build/ (CMake,
Release); spans of traced runs go to .bench_build/traces/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "gmreg_bench")
# Longer than any workload needs; the benchmark must end within 180 s.
CHILD_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds gmreg_bench (a no-op when current)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "gmreg_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload in a child process.

    Returns (result, lines, error): the parsed result line and the lines
    before it, or None, all stdout lines and why the run failed.
    """
    traces = os.path.join(BUILD_DIR, "traces")
    workdir = os.path.join(BUILD_DIR, "work")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    trace_file = os.path.join(traces, f"{workload}-seed{seed}.jsonl")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace-file={trace_file}",
           f"--workdir={workdir}"] + (["--trace"] if trace else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out.splitlines(), f"timed out after {CHILD_TIMEOUT_S} s"
    lines = out.splitlines()
    if proc.returncode < 0:
        return None, lines, f"killed by signal {-proc.returncode}"
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, lines, f"exit code {proc.returncode} and no result"
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result.get("metrics", {})) != want:
        return None, lines, (f"reported metrics {sorted(result['metrics'])}, "
                             f"want {sorted(want)}")
    return result, lines[:-1], None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    if args.workload is not None:
        result, lines, error = run_workload(spec, args.workload, args.seed,
                                            seconds, args.trace)
        if result is None:
            # No result line on standard output when the run failed.
            print("\n".join(lines), file=sys.stderr)
            print(f"run.py: {args.workload}: {error}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result))
        return 0 if result["correct"] and result["failed"] == 0 else 1

    # Every workload, each isolated in its own process.
    summary = []
    for name in names:
        result, lines, error = run_workload(spec, name, args.seed, seconds,
                                            args.trace)
        print("\n".join(lines))
        if result is None:
            # A crash fails every op of the workload.
            summary.append((name, error, "all", "all"))
        else:
            summary.append((name, "ok" if result["correct"] else "WRONG",
                            result["attempted"], result["failed"]))
    print(f"\n{'workload':<24} {'attempted':>10} {'failed':>8}  outputs")
    for name, outputs, attempted, failed in summary:
        print(f"{name:<24} {attempted:>10} {failed:>8}  {outputs}")
    bad = [r for r in summary if r[1] != "ok" or r[3] != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
