#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --runs <n> [--seconds <n>]
                                [--first-seed <n>]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) with
tracing off, then prints for each metric its median and its spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
Run from the root of a checkout.
"""
import json
import os
import statistics
import subprocess
import sys


def main():
    argv = sys.argv[1:]
    opts = {"--workload": None, "--runs": "10", "--seconds": None,
            "--first-seed": "1"}
    if len(argv) % 2 or any(f not in opts for f in argv[0::2]):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    opts.update(dict(zip(argv[0::2], argv[1::2])))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    if opts["--workload"] is None:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    seconds = opts["--seconds"] or str(bench["run_seconds"])

    values = {}
    for k in range(int(opts["--runs"])):
        seed = str(int(opts["--first-seed"]) + k)
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             opts["--workload"], "--seed", seed, "--seconds", seconds,
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode:
            print("seed %s: exit %d" % (seed, out.returncode))
            sys.exit(1)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %s: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("\n%-16s %16s %8s %8s %s" % ("metric", "median", "spread",
                                       "bound/3", "values"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print("%-16s %16.6g %8.4f %8s %s%s" % (
            name, med, spread, "%.4f" % (bound / 3) if bound else "-",
            " ".join("%.4g" % v for v in vals), flag))


if __name__ == "__main__":
    main()
