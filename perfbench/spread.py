#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, per metric, the median and
the distance between the first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to a third of the
metric's bound from BENCHMARK.json: the target a steady benchmark stays
under. Run from the repository root:

    python3 perfbench/spread.py --workload exec-ccsd --seeds 1 2 3 4 5

`python3 perfbench/spread.py --selftest` checks the spread arithmetic on
synthetic data.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """Inter-quartile distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selftest():
    def close(a, b):
        return abs(a - b) < 1e-12

    # 1..10: quartiles 2.75 and 8.25 (exclusive method), median 5.5.
    assert close(spread(range(1, 11)), 1.0)
    # Two samples: quartiles 0.75 and 2.25, median 1.5.
    assert close(spread([2, 1]), 1.0)
    # Odd count, unsorted: quartiles 1.25 and 6.5, median 3.
    assert close(spread([3, 1, 4, 1.5, 9]), 1.75)
    assert spread([7, 7, 7, 7]) == 0
    # Scale-free: the spread is a share of the median.
    assert close(spread([x * 1000 for x in range(1, 11)]), 1.0)
    print("spread self-test passed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    if not args.workload or not args.seeds:
        ap.error("--workload and --seeds are required")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
        # The host figures (GEMM probe, CPU share while measuring), so a
        # slow run can be told apart from a busy host.
        for line in out.stdout.splitlines():
            if line.startswith("host"):
                print("  " + line, flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"{name:28s} median {med:.6g}")
            continue
        bound = bounds.get(name)
        target = f"  (target < {bound / 3:.4f})" if bound else ""
        print(f"{name:28s} median {med:.6g}  spread {spread(vs):.4f}{target}")


if __name__ == "__main__":
    main()
