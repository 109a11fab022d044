#!/usr/bin/env python3
"""Steadiness and sensitivity checks for the time-to-tau benchmark.

Run from the repository root; both modes call perfbench/run.py once per seed
and judge the end-to-end metrics against the bounds in BENCHMARK.json.

    python3 perfbench/selfcheck.py spread --workload W [--seeds 10]
        Per metric: median over seeds and the inter-quartile spread as a
        share of the median (statistics.quantiles(values, n=4)). A metric
        is steady when its spread is below a third of its bound.

    python3 perfbench/selfcheck.py sensitivity --workload W --method M
                                   [--seeds 5]
        Three sets over the same seeds: A and B uninjected, C with a
        busy-wait of INJECT_SHARE x the solve time after every solve of M
        (a 1.5x slowdown of one method, twice its 0.25 bound). Passes
        when B is within every bound of A (no false alarm) and C's
        M.time_to_tau_s is worse than A's by more than its bound (the delay
        is caught).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
INJECT_SHARE = 0.5


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_set(workload, seeds, seconds, inject=""):
    """{metric: [value per seed]} of one set of runs; exits on a failure."""
    values = {}
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        if inject:
            cmd += ["--inject", inject]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  seed {seed}{' inject ' + inject if inject else ''}: "
              f"{result['attempted']} solves, {result['failed']} failed",
              flush=True)
    return values


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (positive = worse)."""
    delta = (new - base) / base
    return delta if metric["better"] == "lower" else -delta


def cmd_spread(args):
    spec, bounds = load_bounds()
    values = run_set(args.workload, range(1, args.seeds + 1),
                     spec["run_seconds"])
    ok = True
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, metric in bounds.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        steady = spread < metric["bound"] / 3
        ok &= steady
        print(f"{name:32} {med:12.6g} {spread:8.4f} {metric['bound']:6.2f}"
              f"{'' if steady else '  NOT STEADY'}")
    return 0 if ok else 1


def cmd_sensitivity(args):
    spec, bounds = load_bounds()
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    target = f"{args.method}.time_to_tau_s"
    if target not in bounds:
        sys.exit(f"no end-to-end metric {target}")
    print("set A (uninjected)")
    a = run_set(args.workload, seeds, seconds)
    print("set B (uninjected)")
    b = run_set(args.workload, seeds, seconds)
    inject = f"{args.method}:{INJECT_SHARE}"
    print(f"set C (inject {inject})")
    c = run_set(args.workload, seeds, seconds, inject)

    false_alarms = []
    for name, metric in bounds.items():
        w = worse_by(metric, statistics.median(a[name]),
                     statistics.median(b[name]))
        print(f"B vs A {name:32} {w:+8.4f} (bound {metric['bound']})")
        if w > metric["bound"]:
            false_alarms.append(name)
    caught = worse_by(bounds[target], statistics.median(a[target]),
                      statistics.median(c[target]))
    print(f"C vs A {target:32} {caught:+8.4f} "
          f"(bound {bounds[target]['bound']})")
    flagged = caught > bounds[target]["bound"]
    print(f"uninjected runs pass the bounds: {not false_alarms}"
          f"{'' if not false_alarms else ' ' + str(false_alarms)}")
    print(f"injected delay flagged: {flagged}")
    return 0 if flagged and not false_alarms else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, default=10)
    se = sub.add_parser("sensitivity")
    se.add_argument("--workload", required=True)
    se.add_argument("--method", required=True)
    se.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()
    return cmd_spread(args) if args.mode == "spread" else cmd_sensitivity(args)


if __name__ == "__main__":
    sys.exit(main())
