#!/usr/bin/env python3
"""Compare BENCH_*.json summaries against the previous CI run's baseline.

CI restores the last run's summaries via actions/cache into a baseline
directory, runs the benchmarks, and then calls

    bench_compare.py --baseline .bench-baseline --current build/bench \
        --files BENCH_kernels.json BENCH_serve_throughput.json \
        --threshold 0.15 --history .bench-baseline/BENCH_history.jsonl

Each BENCH file is one flat JSON record (bench/bench_util.h JsonSummary).
Only scalar metrics with a known direction are compared:

  higher-is-better:  keys ending in ".gflops", "_qps" or "_per_s" (rates
                     such as the E-step's estep.k4.mweights_per_s)
  lower-is-better:   keys ending in "p95_ms" or containing "p95_ms."

A metric regresses when it moves against its direction by more than
--threshold (relative). Missing baseline files are skipped — the first run
after a cache wipe seeds the baseline instead of failing. --history appends
the current records (stamped with the commit) to a JSONL trajectory so the
uploaded artifact carries the whole history, not just one point.

Exit status: 0 when no metric regresses, 1 otherwise.
"""

import argparse
import json
import os
import sys


def classify(key):
    """Returns 'up' (higher is better), 'down', or None (not compared).

    Thread-scaling speedup rows (``<shape>.mtN.speedup``) are informational:
    on a 1-core CI runner the scheduler decides whether budget N beats
    budget 1, so gating on them would flake. The matching ``.mtN.gflops``
    absolute-throughput rows still gate like every other ``.gflops`` row.
    """
    if ".mt" in key and key.endswith(".speedup"):
        return None
    if key.endswith((".gflops", "_qps", "_per_s", ".speedup")):
        return "up"
    if key.endswith("p95_ms") or "p95_ms." in key:
        return "down"
    return None


def load_record(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_file(name, baseline, current, threshold):
    """Returns (regressions, compared_count) for one summary pair."""
    regressions = []
    compared = 0
    for key, cur in sorted(current.items()):
        direction = classify(key)
        if direction is None or not isinstance(cur, (int, float)):
            continue
        prev = baseline.get(key)
        if not isinstance(prev, (int, float)) or prev <= 0:
            continue
        compared += 1
        ratio = cur / prev
        if direction == "up" and ratio < 1.0 - threshold:
            regressions.append((key, prev, cur, ratio - 1.0))
        elif direction == "down" and ratio > 1.0 + threshold:
            regressions.append((key, prev, cur, ratio - 1.0))
    label = "OK" if not regressions else "REGRESSED"
    print(f"{name}: {compared} metrics compared, "
          f"{len(regressions)} regressions [{label}]")
    for key, prev, cur, delta in regressions:
        print(f"  {key}: {prev:.4g} -> {cur:.4g} ({delta:+.1%})")
    return regressions, compared


def append_history(history_path, files, current_dir, commit):
    os.makedirs(os.path.dirname(history_path) or ".", exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as out:
        for name in files:
            path = os.path.join(current_dir, name)
            if not os.path.isfile(path):
                continue
            record = load_record(path)
            record["commit"] = commit
            record["file"] = name
            out.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with the previous run's BENCH files")
    parser.add_argument("--current", required=True,
                        help="directory with this run's BENCH files")
    parser.add_argument("--files", nargs="+", required=True,
                        help="BENCH_*.json file names to compare")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression tolerance (default 0.15)")
    parser.add_argument("--history", default=None,
                        help="JSONL trajectory to append current records to")
    parser.add_argument("--commit", default=os.environ.get("GITHUB_SHA", ""),
                        help="commit id stamped into the history records")
    args = parser.parse_args()

    if args.history:
        append_history(args.history, args.files, args.current, args.commit)

    any_regression = False
    for name in args.files:
        cur_path = os.path.join(args.current, name)
        base_path = os.path.join(args.baseline, name)
        if not os.path.isfile(cur_path):
            print(f"{name}: missing from current run — benchmark did not "
                  f"write it", file=sys.stderr)
            return 1
        if not os.path.isfile(base_path):
            print(f"{name}: no baseline yet, seeding from this run")
            continue
        regressions, _ = compare_file(
            name, load_record(base_path), load_record(cur_path),
            args.threshold)
        any_regression = any_regression or bool(regressions)

    return 1 if any_regression else 0


if __name__ == "__main__":
    sys.exit(main())
