"""Compare two results files of ``run.py``: A is the base, B the candidate.

    python3 bench/compare.py A.json B.json

One row per workload and end-to-end metric: both medians, the ratio B/A
(base: A), the bound, and a verdict:

``better`` / ``worse``  B's median differs from A's by more than the bound
``within``              it does not
``unresolved``          the runs of one side spread wider than the bound and
                        the two sides overlap (needs ``--repeat`` >= 2)

``makespan_s`` on the two simulated workloads is virtual time: at equal
seeds it must repeat exactly, so there any difference is a verdict.
Digests are compared too.  Exit code 1 on a ``worse`` row or, at equal
seeds, a digest that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from harness import quartile_spread
from run import load_spec

#: workloads whose makespan_s is simulated time, exact for a seed
VIRTUAL_MAKESPAN = ("pilot_flood", "service_shared")


def _spread(values: list[float]) -> float | None:
    """IQR (four or more runs) or range (two, three) over the median."""
    if len(values) < 2:
        return None
    if len(values) >= 4:
        return quartile_spread(values)
    return (max(values) - min(values)) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float, exact: bool) -> str:
    """Where B stands against A for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)  # > 0: B is better
    if exact:
        return "within" if med_a == med_b else ("better" if gain > 0 else "worse")
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    return "worse" if gain < -bound else "within"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b))
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    spec = load_spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    status = 0
    print(f"base A = {args.a} ({a['host']['git_rev'][:12]}, seed {a['seed']}), "
          f"B = {args.b} ({b['host']['git_rev'][:12]}, seed {b['seed']})")
    print(f"{'workload':<15s} {'metric':<12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        runs_a = a["workloads"][name]["untraced"]
        runs_b = b["workloads"].get(name, {}).get("untraced", [])
        if not runs_a or not runs_b:
            print(f"{name:<15s} missing on one side")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = [r["end_to_end"][key] for r in runs_a]
            vb = [r["end_to_end"][key] for r in runs_b]
            exact = same_seed and key == "makespan_s" and name in VIRTUAL_MAKESPAN
            v = verdict(va, vb, metric["better"], metric["bound"], exact)
            status |= v == "worse"
            med_a, med_b = statistics.median(va), statistics.median(vb)
            print(f"{name:<15s} {key:<12s} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{med_b / med_a:>7.3f} {metric['bound']:>6.0%}  {v}"
                  f"{' (exact)' if exact else ''}")
        if same_seed:
            digests = {r["info"]["digest"] for r in runs_a + runs_b}
            equal = len(digests) == 1
            status |= not equal
            print(f"{name:<15s} digest {'equal' if equal else 'DIFFERS'}")
            # counts made by the program repeat exactly for a seed
            ta = a["workloads"][name].get("traced") or {}
            tb = b["workloads"][name].get("traced") or {}
            for key in counts:
                if key in ta.get("per_layer", {}) and key in tb.get("per_layer", {}):
                    ca, cb = ta["per_layer"][key], tb["per_layer"][key]
                    if ca != cb:
                        status = 1
                        print(f"{name:<15s} {key} DIFFERS: {ca} vs {cb}")
    return status


if __name__ == "__main__":
    sys.exit(main())
