"""Campaign benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as the driver runs it (last stdout line is the result)::

    python3 bench/run.py --workload pilot_flood --seed 3 --seconds 10 --trace 0

All four, each in its own subprocess, results written to ``bench/out/``::

    python3 bench/run.py --seed 3 [--traced] [--smoke] [--out FILE]

``--trace 1`` / ``--traced`` adds the bench-side span recorder and the
layer probes; end-to-end numbers always come from an untraced run.
See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread, so a run uses one core and
# two runs on this 2-core host do not contend for the same pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("campaign_loop", "screen_stream", "pilot_flood", "service_shared")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"   {name:<40s} {value:>16.6g} {units.get(name, '')}")


def run_one(args) -> int:
    """Run a single workload in this process; the driver's entry point."""
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found next to bench/; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    t0 = time.perf_counter()
    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - t0
    import workloads
    from harness import CheckFailed
    from spans import Recorder

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    rec = Recorder(args.workload) if args.trace else None
    try:
        outcome = module.run(args.seed, args.seconds, rec, sizes)
        if outcome.attempted < 1:
            raise CheckFailed("no operation attempted")
    except CheckFailed as exc:
        print(f"bench: {args.workload} output check FAILED: {exc}", file=sys.stderr)
        return 1
    # imports are set-up the user pays too: work moved into import time shows
    outcome.e2e["setup_s"] += import_s
    if rec is not None:
        rec.write(OUT, f"{args.workload}-seed{args.seed}")
        unknown = set(outcome.layers) - set(layer_units)
        if unknown:
            print(f"bench: metrics missing from BENCHMARK.json: {sorted(unknown)}",
                  file=sys.stderr)
            return 1

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    _print_metrics("end to end (untraced passes)", outcome.e2e, e2e_units)
    if rec is not None:
        _print_metrics("per layer", outcome.layers, layer_units)
    print(f"-- ops attempted={outcome.attempted} failed={outcome.failed}")
    print(f"-- info {json.dumps(outcome.info, sort_keys=True)}")

    if args.json:
        Path(args.json).write_text(json.dumps({
            "attempted": outcome.attempted, "failed": outcome.failed,
            "end_to_end": outcome.e2e, "per_layer": outcome.layers,
            "info": outcome.info,
        }), encoding="utf-8")
    if rec is None:
        metrics = {n: {"value": outcome.e2e[n], "unit": u} for n, u in e2e_units.items()}
    else:
        # a layer that did no work on this workload reads 0
        metrics = {n: {"value": outcome.layers.get(n, 0.0), "unit": u}
                   for n, u in layer_units.items()}
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def host_facts() -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def _subprocess_run(name: str, trace: int, args) -> dict | None:
    """One workload run in a fresh interpreter; its full outcome, or None."""
    part = OUT / f".{name}-{os.getpid()}-{trace}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--json", str(part)]
    if args.smoke:
        cmd.append("--smoke")
    code = subprocess.run(cmd, check=False).returncode
    if code != 0:
        print(f"bench: {name} trace={trace} exited {code}", file=sys.stderr)
        return None
    outcome = json.loads(part.read_text(encoding="utf-8"))
    part.unlink()
    return outcome


def run_all(args) -> int:
    """Every workload in its own subprocess; writes one results file."""
    OUT.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
               "host": host_facts(), "workloads": {}}
    status = 0
    for name in names:
        runs = [_subprocess_run(name, 0, args) for _ in range(args.repeat)]
        traced = _subprocess_run(name, 1, args) if args.traced else None
        every = runs + ([traced] if args.traced else [])
        if None in every:
            status = 1
            every = [r for r in every if r is not None]
        if len({r["info"]["digest"] for r in every}) > 1:
            print(f"bench: {name} digest differs between runs of one seed",
                  file=sys.stderr)
            status = 1
        results["workloads"][name] = {
            "untraced": [r for r in runs if r is not None], "traced": traced,
        }
    out = Path(args.out) if args.out else OUT / (
        f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    out.write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    print(f"bench: wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run this one workload in-process, traced or not")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also make the traced runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 sizes, every output check on")
    parser.add_argument("--json", help="also dump this run's full outcome here")
    parser.add_argument("--out", help="all-workloads mode: results file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        from harness import reap_children

        try:
            return run_one(args)
        finally:
            # on every path out, a crash too: no process outlives the run
            killed = reap_children()
            if killed:
                print(f"bench: killed {killed} process(es) a workload left running",
                      file=sys.stderr)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
