"""Steadiness check: N seeds per workload, quartile spread of every metric.

The acceptance rule for the benchmark itself: over ten runs with ten
seeds, each end-to-end metric's interquartile distance (as
``statistics.quantiles(values, n=4)`` gives it), as a share of the median,
must stay within the metric's bound — and should stay below a third of it.

    python3 bench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import quartile_spread
from run import WORKLOADS, load_spec

RUN = Path(__file__).resolve().parent / "run.py"


def measure(workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced driver-style run; the metrics of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--out", help="write every run's values here as JSON")
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status, dump = 0, {}
    for workload in args.workload or WORKLOADS:
        runs = [measure(workload, args.first_seed + i, spec["run_seconds"])
                for i in range(args.seeds)]
        dump[workload] = runs
        print(f"== {workload}: {args.seeds} seeds from {args.first_seed}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med, spread = statistics.median(values), quartile_spread(values)
            if name == "setup_s" or spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict, status = "TOO WIDE", 1
            print(f"   {name:<14s} median {med:>12.6g}  spread {spread:7.2%}  "
                  f"bound {bound:.0%}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(dump, indent=1), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
