#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --workload NAME [--seeds 1-10]
        [--trace 0|1] [--seconds S] [--repeat-seed N] [--record]

For every metric it prints the median and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)), beside the bound
BENCHMARK.json gives it. --repeat-seed N runs seed N a second time and lists
the work counters that came out exactly equal, and how far the others moved;
--record writes both, with the values of that seed, into
perfbench/counters.json, which run.py compares every later run of the same
seed against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench-work", "last-run", "report.json")
    with open(work) as f:
        counters = json.load(f)["counters"]
    return result, counters


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--repeat-seed", type=int)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    by_seed = {}
    for seed in args.seeds:
        result, counters = run_once(args.workload, seed, seconds, args.trace)
        by_seed[seed] = counters
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.3f}"
        else:
            spread = "n/a"
        bound = bounds.get(name)
        print(f"  {name:28s} median {med:<12.6g} spread {spread:>6s}"
              + (f"  bound {bound}" if bound is not None else ""))

    if args.repeat_seed is None:
        return
    seed = args.repeat_seed
    first = by_seed.get(seed) or run_once(args.workload, seed, seconds,
                                          args.trace)[1]
    again = run_once(args.workload, seed, seconds, args.trace)[1]
    exact = sorted(k for k in first if first[k] == again.get(k))
    spread = {k: abs(first[k] - again[k]) / abs(first[k])
              for k in sorted(first) if k not in exact and first[k]}
    print(f"\ncounters equal across two runs of seed {seed}: {', '.join(exact)}")
    for k, v in spread.items():
        print(f"  {k} moved {v:.2%} between them")
    if args.record:
        path = os.path.join(HERE, "counters.json")
        with open(path) as f:
            record = json.load(f)
        record.setdefault("exact", {})[args.workload] = exact
        record.setdefault("spread", {})[args.workload] = spread
        record.setdefault("runs", {}).setdefault(args.workload, {})[str(seed)] = {
            k: first[k] for k in sorted(first)}
        with open(path, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded in {path}")


if __name__ == "__main__":
    main()
