#!/usr/bin/env python3
"""Compares two checkouts on the benchmark, and writes baselines.

    # >= 10 alternating pairs of parent and change, same seed per pair:
    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        [--pairs 10] [--seed 1000] [--workload NAME ...] [--save runs.jsonl]
    # re-read saved runs:
    python3 perfbench/compare.py report runs.jsonl
    # >= 5 runs of this checkout, summarized for perfbench/baselines/:
    python3 perfbench/compare.py baseline --runs 5 --out FILE

The rules: a metric improved on a workload when the change wins at least
9 of 10 pairs (ties count for neither) and the medians differ by more than
the parent's spread between quartiles. It regressed when the change's
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json. When either side's spread between quartiles, as a share
of its median, exceeds the bound, the verdict is "unresolved" unless every
change run is better than every parent run. The share of failed ops is
compared per workload.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """One untraced run; returns the result dict plus the run's details."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    details = {}
    for line in lines:
        m = re.match(r"\s+(\S+)\s+(-?[\d.e+-]+)\s+\S+$", line)
        if m:
            details[m.group(1)] = float(m.group(2))
    result["details"] = details
    result["exit_code"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, parent, change):
    """parent/change: per-pair values, same seed at the same index."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if not lower:
        worse = -worse
    better = [(c < p) if lower else (c > p) for p, c in zip(parent, change)]
    wins = sum(better)
    ties = sum(1 for p, c in zip(parent, change) if p == c)
    pq1, _, pq3 = quartiles(parent)
    if lower:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > (pq3 - pq1):
        text = "GAIN"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        text = "unresolved"
    elif worse > bound:
        text = "REGRESSION"
    else:
        text = "no regression"
    return text, p_med, c_med, worse, wins, ties


def report(spec, runs, out=sys.stdout):
    """runs: list of {"side", "workload", "pair", "result"}."""
    regressions = 0
    print(f"{'workload':<22} {'metric':<15} {'parent':>11} {'change':>11} "
          f"{'worse':>7} {'bound':>6} {'wins':>6} {'p.spread':>8} "
          f"{'c.spread':>8}  verdict", file=out)
    for w in spec["workloads"]:
        name = w["name"]
        by_side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == name:
                by_side[r["side"]][r["pair"]] = r["result"]
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [by_side["parent"][i]["metrics"].get(key, {}).get("value")
                 for i in pairs]
            c = [by_side["change"][i]["metrics"].get(key, {}).get("value")
                 for i in pairs]
            if None in p or None in c:
                print(f"{name:<22} {key:<15} missing values", file=out)
                regressions += 1
                continue
            text, p_med, c_med, worse, wins, ties = verdict(metric, p, c)
            regressions += text == "REGRESSION"
            print(f"{name:<22} {key:<15} {p_med:>11.5g} {c_med:>11.5g} "
                  f"{100 * worse:>6.1f}% {metric['bound']:>6.2f} "
                  f"{wins:>2}/{len(pairs):<3} {100 * spread(p):>7.1f}% "
                  f"{100 * spread(c):>7.1f}%  {text}", file=out)
    print(f"\n{'workload':<22} {'pairs':>5} {'parent failed':>14} "
          f"{'change failed':>14} {'parent wrong':>13} {'change wrong':>13}",
          file=out)
    for w in spec["workloads"]:
        name = w["name"]
        row = []
        for side in ("parent", "change"):
            rs = [r["result"] for r in runs
                  if r["workload"] == name and r["side"] == side]
            attempted = sum(r["attempted"] for r in rs) or 1
            row.append((sum(r["failed"] for r in rs) / attempted,
                        sum(1 for r in rs if not r["correct"]), len(rs)))
        if row[0][2] == 0 and row[1][2] == 0:
            continue
        if row[1][0] > row[0][0] or row[1][1] > 0:
            regressions += 1
        print(f"{name:<22} {min(row[0][2], row[1][2]):>5} "
              f"{100 * row[0][0]:>13.3f}% {100 * row[1][0]:>13.3f}% "
              f"{row[0][1]:>13} {row[1][1]:>13}", file=out)
    return regressions


def cmd_pairs(args):
    spec = load_spec(args.change)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                result = run_once(checkouts[side], name, seed, seconds)
                runs.append({"side": side, "workload": name, "pair": i,
                             "seed": seed, "result": result})
                print(f"pair {i} {side:<6} {name:<22} "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
                if args.save:
                    with open(args.save, "a") as f:
                        f.write(json.dumps(runs[-1]) + "\n")
    return 1 if report(spec, runs) else 0


def cmd_report(args):
    spec = load_spec(ROOT)
    with open(args.runs) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    return 1 if report(spec, runs) else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cmd_baseline(args):
    spec = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    commit = args.commit
    if commit is None:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or "unknown"
    summary = {"cpu": cpu_model(), "nproc": os.cpu_count(), "commit": commit,
               "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    worst = {}
    tiers = set()
    for name in names:
        results = []
        for i in range(args.runs):
            results.append(run_once(ROOT, name, args.seed + i, seconds))
            print(f"{name} run {i}: correct={results[-1]['correct']}",
                  file=sys.stderr)
        tiers |= {r["details"]["kernel_tier"] for r in results
                  if "kernel_tier" in r["details"]}
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "correct": all(r["correct"] for r in results)}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in results
                      if key in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            entry[key] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / abs(med) if med else None,
                          "unit": metric["unit"], "values": values}
            if med:
                worst[key] = max(worst.get(key, 0.0), (q3 - q1) / abs(med))
        summary["workloads"][name] = entry
    summary["kernel_tier"] = sorted(tiers)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(f"{'metric':<16} {'worst spread':>12} {'bound >= 3x':>12}")
    for key, s in worst.items():
        print(f"{key:<16} {100 * s:>11.1f}% {min(0.25, 3 * s):>12.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workload", action="append")
    p.add_argument("--save")
    p.set_defaults(func=cmd_pairs)
    r = sub.add_parser("report")
    r.add_argument("runs")
    r.set_defaults(func=cmd_report)
    b = sub.add_parser("baseline")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--seconds", type=int)
    b.add_argument("--workload", action="append")
    b.add_argument("--commit")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_baseline)
    args = parser.parse_args()
    if args.command == "pairs" and args.pairs < 10:
        parser.error("--pairs must be at least 10")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
