#!/usr/bin/env python3
"""Does the benchmark repeat?  Two sets of runs of the same checkout, compared.

    python3 benchmarks/e2e/stability.py [--runs 10] [--workload NAME ...]

Runs sets A and B of ``--runs`` runs per workload, one seed per run,
interleaved A,B,A,B... so drift of the host lands on both.  For every
end-to-end metric it prints both medians, how much worse B's median is than
A's (in the metric's own direction), the bound from BENCHMARK.json, and PASS
or FAIL: neither median may be worse than the other by more than the bound.
Each set's spread -- the distance between the quartiles of its values as a
share of their median -- is printed beside it as a diagnostic, marked ``!``
where it is wider than the bound (the ledger's driver refuses a benchmark
whose spread over ten seeds is).  ``--counts`` adds two traced runs and
requires every per-layer metric with unit ``count`` to be identical.

If a metric fails, look at the host factors in ``out/run_*.json`` first (a
run whose factor sat at 1.4 was measured on a disturbed host), then add
rounds in run.py's table before touching a bound (README.md says where the
bounds come from).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int, label: str = "") -> dict:
    """One run's metrics; its raw samples are kept as out/stability_<label>_*."""
    command = [
        *BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(command)} reported failures: {result}")
    if label:
        raw = HERE / "out" / f"run_{workload}_{seed}.json"
        raw.replace(raw.with_name(f"stability_{label}_{workload}_{seed}.json"))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument(
        "--workload", action="append",
        help="default: every workload of BENCHMARK.json; batch_sharded by name only",
    )
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    ok = True
    for workload in args.workload or names:
        sets: dict[str, dict[str, list[float]]] = {"A": {}, "B": {}}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for label in ("A", "B"):
                for name, value in run(workload, seed, args.seconds, 0, label).items():
                    sets[label].setdefault(name, []).append(value)
                print(f"  {workload} seed {seed} set {label} done", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs per set, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':26s} {'median A':>12s} {'median B':>12s} {'B worse':>8s} "
              f"{'bound':>6s}       {'spread A':>9s} {'spread B':>9s}")
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets["A"][name], sets["B"][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            passed = abs(worse) <= bound
            ok &= passed
            wide = name != "setup_s" and max(spread(a), spread(b)) > bound
            print(f"  {name:26s} {med_a:12.4f} {med_b:12.4f} {worse:+8.2%} {bound:6.2f}  "
                  f"{'PASS' if passed else 'FAIL'} {spread(a):9.2%} {spread(b):9.2%}"
                  f"{' !' if wide else ''}")
        if args.counts:
            units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            first = run(workload, args.first_seed, args.seconds, 1)
            second = run(workload, args.first_seed, args.seconds, 1)
            differ = [n for n, u in units.items() if u == "count" and first[n] != second[n]]
            ok &= not differ
            print(f"  exact counts over two traced runs: "
                  f"{'identical  PASS' if not differ else f'differ {differ}  FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
