#!/usr/bin/env python3
"""Time-to-tau benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into .bench_build/, generates the workload's Matrix Market input
from --seed, runs the harness, and prints a provenance line followed by the
result line {"correct", "attempted", "failed", "metrics"}. Exits nonzero
when the build or the run fails, or when any solve fails its correctness
checks. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("seq-m2-fill", "seq-m6-lowrank", "dist-m2-np4")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    bdir = BUILD / "perfbench"
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "lra_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "lra_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--inject", default="",
                    help="METHOD:SHARE busy-wait after each solve of METHOD "
                         "(sensitivity self-check only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    inputs = BUILD / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    mtx = inputs / f"{args.workload}-{args.seed}.mtx"
    cmd = [str(exe), "run", f"--workload={args.workload}", f"--mtx={mtx}",
           f"--seed={args.seed}", f"--seconds={args.seconds:g}",
           f"--trace={args.trace}"]
    if args.inject:
        cmd.append(f"--inject={args.inject}")
    try:
        subprocess.run([str(exe), "gen", f"--workload={args.workload}",
                        f"--seed={args.seed}", f"--out={mtx}"],
                       check=True, timeout=60)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    finally:
        mtx.unlink(missing_ok=True)

    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        print(f"harness exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("malformed result line", file=sys.stderr)
        return 1
    print(lines[-2])
    print(lines[-1])
    return 0 if proc.returncode == 0 and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
