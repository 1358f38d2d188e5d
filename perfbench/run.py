#!/usr/bin/env python3
"""Runs one benchmark workload end to end and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steps, each in its own process:
  1. build    perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build
  2. gen      the seeded graph and query inputs      (pbench gen)
  3. run      the measured process                  (pbench run)
  4. check    every logged answer against its oracle (pbench check)

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1. A wrong answer, a failed step or a
missing library exits nonzero without that line. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEP_TIMEOUT = 170  # seconds; the first build gets BUILD_TIMEOUT
BUILD_TIMEOUT = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd, log_path=None, timeout=STEP_TIMEOUT, env=None, echo=True):
    """Runs cmd to completion; returns (exit code, stdout)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if log_path:
        with open(log_path, "w") as f:
            f.write(proc.stdout)
    if echo and proc.stdout:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}", 2)
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, out = run_step(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             log, BUILD_TIMEOUT, echo=False)
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("cmake configure failed", 2)
    code, out = run_step(["cmake", "--build", build_dir, "-j",
                          str(os.cpu_count() or 1)],
                         log, BUILD_TIMEOUT, echo=False)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed", 2)
    return os.path.join(build_dir, "pbench")


def inputs(pbench, work_dir, workload, seed):
    """Generates (or reuses) the inputs; keeps one seed per workload."""
    root = os.path.join(work_dir, "inputs")
    name = f"{workload}-seed{seed}"
    path = os.path.join(root, name)
    done = os.path.join(path, "done")
    if os.path.isfile(done):
        return path
    if os.path.isdir(root):
        for old in os.listdir(root):
            if old.startswith(workload + "-seed"):
                shutil.rmtree(os.path.join(root, old))
    os.makedirs(path)
    code, _ = run_step([pbench, "gen", "--workload", workload,
                        "--seed", str(seed), "--out", path])
    if code != 0:
        fail("input generation failed")
    open(done, "w").close()
    return path


def compare_counters(workload, seed, counters):
    """Prints how the work counters differ from the recorded values."""
    with open(os.path.join(HERE, "counters.json")) as f:
        record = json.load(f)
    entry = record.get("runs", {}).get(workload, {}).get(str(seed))
    if entry is None:
        print(f"counters: no recorded values for {workload} seed {seed}")
        return
    exact = set(record.get("exact", {}).get(workload, []))
    spread = record.get("spread", {}).get(workload, {})
    changed = []
    for name, want in sorted(entry.items()):
        got = counters.get(name)
        if got is None:
            changed.append(f"{name}: missing (recorded {want:.17g})")
        elif got != want:
            kind = ("exact counter" if name in exact else
                    f"moved {spread.get(name, 0):.2%} between recorded runs")
            changed.append(f"{name}: {got:.17g} (recorded {want:.17g}, {kind})")
    if not changed:
        print(f"counters: all {len(entry)} equal the recorded values")
    for line in changed:
        print(f"counters: changed {line}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the repo root", 2)
    with open(bench_path) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    pbench = build(build_dir)
    work_dir = os.path.dirname(build_dir)
    in_dir = inputs(pbench, os.path.join(work_dir, "perfbench-work"),
                    args.workload, args.seed)
    run_dir = os.path.join(work_dir, "perfbench-work", "last-run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    answers = os.path.join(run_dir, "answers.txt")
    report_path = os.path.join(run_dir, "report.json")

    nproc = os.cpu_count() or 1
    env = dict(os.environ)
    env.setdefault("OMP_NUM_THREADS", str(nproc))
    cmd = [pbench, "run", "--workload", args.workload, "--in", in_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--answers", answers, "--report", report_path]
    if args.trace:
        traces = os.path.join(work_dir, "perfbench-work", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, _ = run_step(cmd, env=env)
    if code != 0:
        fail(f"measured run failed (exit {code})")
    with open(report_path) as f:
        report = json.load(f)
    print("meta: " + ", ".join(f"{k}={v}" for k, v in report["meta"].items()))

    code, _ = run_step([pbench, "check", "--workload", args.workload,
                        "--in", in_dir, "--answers", answers])
    if code != 0:
        fail("wrong answer; no result reported")
    compare_counters(args.workload, args.seed, report["counters"])

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"report lacks metric {m['name']} ({m['unit']})")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
