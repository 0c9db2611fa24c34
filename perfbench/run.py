#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --write-golden

Run from the root of a checkout. The program and the benchmark are
built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. The last line of standard output of a
single-workload run is its JSON result; build logs go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["comb_pipeline", "seq_pipeline", "daemon_mixed", "shard_resume"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target):
        target = os.path.relpath(target, ROOT)
    return target


def build():
    """Configure (once) and build; returns the build directory."""
    for need in ("src/CMakeLists.txt", "circuits", "perfbench/golden/verdicts.tsv"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout" % need)
    bdir = os.path.join(ROOT, target_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--root", ".",
            "--out-dir", os.path.join(target_dir(), "perfbench-out")]


def run_one(bdir, args, capture):
    try:
        proc = subprocess.run([os.path.join(bdir, "perfbench")] + args, cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode, proc.stdout


def run_all(bdir, opts):
    """Every workload in turn; one table of every metric per workload."""
    status = 0
    for w in WORKLOADS:
        code, out = run_one(bdir, bench_args(w, opts.seed, opts.seconds, opts.trace),
                            capture=True)
        lines = out.strip().splitlines() if out else []
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        print("== %s (exit %d)" % (w, code))
        for line in lines[:-1]:
            print("  " + line)
        if result is None or not result["correct"] or code:
            status = 1
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate perfbench/golden/verdicts.tsv")
    opts = p.parse_args()

    if opts.write_golden:
        golden = os.path.join(ROOT, "perfbench", "golden", "verdicts.tsv")
        if not os.path.exists(golden):
            os.makedirs(os.path.dirname(golden), exist_ok=True)
            open(golden, "w").close()
        bdir = build()
        sys.exit(run_one(bdir, ["--write-golden", golden, "--root", "."],
                         capture=False)[0])
    bdir = build()
    if opts.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode)
    if opts.all:
        sys.exit(run_all(bdir, opts))
    if not opts.workload:
        p.error("--workload, --all, --selftest or --write-golden is required")
    code, _ = run_one(bdir, bench_args(opts.workload, opts.seed, opts.seconds,
                                       opts.trace), capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
