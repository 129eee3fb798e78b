"""Repeat one workload over consecutive seeds and summarise each metric.

    python3 perfbench/spread.py --workload attacks-mid --runs 10 --seconds 30

Runs ``run.py --trace 0`` once per seed (first-seed, first-seed + 1, ...),
one after another, and prints for every end-to-end metric the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), min and max,
and the quartile distance as a share of the median.

The bounds in BENCHMARK.json were set from these figures.  The timing
metrics (``setup_s``, ``op_s_p50``, ``ops_per_s``) sit at 0.25, the largest
bound allowed: on a shared two-vCPU host their spread reached 19 %, more
than a third of any allowed bound, and two sets of runs on seeds 1-10 and
11-20 still agreed within 0.25.  ``board_kib_per_op`` (spread at most 0.15 %) and
``peak_rss_mib`` (at most 2.6 %) stay under a third of their bounds of 0.02
and 0.1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        values_now = " ".join(f"{name}={metric['value']:.5g}"
                              for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values_now}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>7s}")
    for name, vals in values.items():
        s = summarise(vals)
        print(f"{name:28s} {units[name]:6s} {s['median']:12.5g} {s['q1']:12.5g} "
              f"{s['q3']:12.5g} {s['min']:12.5g} {s['max']:12.5g} {s['spread']:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
