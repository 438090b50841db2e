#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload stm-grid|kv-read|kv-2pc \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the libraries from src/) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the benchmark binary. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is one JSON object. Exits non-zero, without that line, when the
build, a correctness check or the result's shape fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def revision():
    """Git revision when the checkout is a repository, else a hash of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def build():
    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    build_dir = out_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["stm-grid", "kv-read", "kv-2pc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build_dir = build()
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    extra = []
    if args.trace:
        extra = ["--spans",
                 str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        # Pass the report through without its result line, if any.
        print("\n".join(l for l in lines if not l.startswith("{")))
        fail(f"benchmark exited with code {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or result["correct"] is not True or result["attempted"] < 1:
        fail("malformed result line")
    print("\n".join(lines), flush=True)

if __name__ == "__main__":
    main()
