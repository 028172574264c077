"""``pilot_flood``: the runtime as a hot path, no science kernel at all.

``Pilot.run`` on the simulated executor over mixed-shape tasks with
crashes, stragglers, hangs, retries and timeouts.  A science speedup must
leave this flat; a change to the drive loop or the placers must move it
or hold it.  ``makespan_s`` is virtual time at drain: it repeats exactly
for a seed, so a faster-but-worse scheduler shows.
"""

from __future__ import annotations

import multiprocessing
import time

import workloads
from harness import (
    OVERHEAD, Outcome, check, median, peak_rss_mb, run_passes, timed, trace_overhead,
)
from repro.rct.backends import create_executor
from repro.rct.cluster import SUMMIT_NODE, Cluster
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec
from repro.telemetry import NULL_TRACER, ExecutorClock, Tracer, chrome_trace_json

NAME = "pilot_flood"
LAYER_METRICS = {
    "rct.sim.events_per_s_nofault": "1/s",
    "rct.pilot.attempts": "count",
    "rct.pilot.retries": "count",
    "rct.pilot.timeouts": "count",
    "rct.pilot.dropped": "count",
    "rct.pilot.utilization": "frac",
    "rct.tasklog.digest_s": "s",
    "rct.taskgen_s": "s",
    "rct.thread.tasks_per_s": "1/s",
    "rct.process.tasks_per_s": "1/s",
    "telemetry.traced_events_per_s": "1/s",
    "telemetry.overhead_frac": "frac",
    "telemetry.spans": "count",
    "telemetry.export.chrome_json_s": "s",
}
#: ~1 ms of pure-Python arithmetic per real-backend task on this host
_BURN_SPIN = 15_000


def sim_pilot(n_nodes: int, seed: int | None, telemetry: bool = False) -> Pilot:
    """A pilot over ``n_nodes`` simulated Summit nodes; faults iff seeded."""
    faults = retry = None
    if seed is not None:
        faults = FaultModel(seed=seed, failure_rate=0.05, straggler_rate=0.05,
                            hang_rate=0.01)
        # six retries, not the issue's three: at 5 % + 1 % per attempt a
        # 64k-task flood would otherwise drop a task or two per run, and
        # the contract wants workloads on which no operation fails
        retry = RetryPolicy(max_retries=6, backoff_base=2.0,
                            timeout=workloads.RETRY_TIMEOUT, seed=seed)
    executor = create_executor("sim", launch_overhead=0.1, fault_model=faults)
    allocation = Cluster(n_nodes, spec=SUMMIT_NODE).allocate(n_nodes, now=0.0)
    tracer = Tracer(clock=ExecutorClock(executor)) if telemetry else NULL_TRACER
    return Pilot(allocation, executor, retry=retry, tracer=tracer, keep_records=False)


def flood(n_tasks: int, n_nodes: int, seed: int, rec=None, telemetry: bool = False) -> dict:
    """Generate, run, and account one pass."""
    t0 = time.perf_counter()
    gen_s, tasks = timed(workloads.mixed_tasks, n_tasks, seed)
    pilot = sim_pilot(n_nodes, seed, telemetry)
    setup_s = time.perf_counter() - t0
    with pilot:
        if rec is None:
            wall, _ = timed(pilot.run, tasks)
        else:
            with rec.span("Pilot.run", "rct") as span:
                pilot.run(tasks)
            wall = rec.duration(span)
    digest_s, digest = timed(pilot.log.digest)
    failures = pilot.failures
    check(failures.reconciles(), f"failures do not reconcile: {failures.summary()}")
    return dict(wall=wall, setup_s=setup_s, gen_s=gen_s,
                digest=digest, digest_s=digest_s,
                attempts=len(pilot.log),
                events_per_s=2 * len(pilot.log) / wall,
                makespan=pilot.executor.now,
                retries=failures.n_retries, timeouts=failures.n_timeouts,
                dropped=failures.n_dropped,
                node_seconds=pilot.node_hours() * 3600.0,
                spans=len(pilot.tracer.finished) if telemetry else 0,
                tracer=pilot.tracer if telemetry else None)


def run(seed: int, seconds: float, rec, sizes: dict) -> Outcome:
    s = sizes["pilot"]
    flood(s["warmup_tasks"], s["n_nodes"], seed)  # untimed: caches, allocator
    plain, traced = run_passes(
        lambda recorder: flood(s["n_tasks"], s["n_nodes"], seed, recorder),
        seconds, s["min_passes"], rec,
    )
    every = plain + traced
    check(len({p["digest"] for p in every}) == 1, "TaskLog digest differs between passes")
    check(len({p["makespan"] for p in every}) == 1, "virtual makespan differs between passes")
    last = every[-1]

    rate = median(p["events_per_s"] for p in plain)
    out = Outcome(
        attempted=s["n_tasks"],
        failed=last["dropped"],
        e2e={
            "setup_s": median(p["setup_s"] for p in every),
            "makespan_s": last["makespan"],
            "ops_per_s": rate,
            "peak_rss_mb": peak_rss_mb(),
        },
        info={"digest": last["digest"], "attempts": last["attempts"],
              "pass_walls": [p["wall"] for p in every]},
    )
    if rec is not None:
        layers = {
            "rct.pilot.attempts": last["attempts"],
            "rct.pilot.retries": last["retries"],
            "rct.pilot.timeouts": last["timeouts"],
            "rct.pilot.dropped": last["dropped"],
            "rct.pilot.utilization": (
                last["node_seconds"] / (s["n_nodes"] * last["makespan"])
            ),
            "rct.tasklog.digest_s": median(p["digest_s"] for p in every),
            "rct.taskgen_s": median(p["gen_s"] for p in every),
            OVERHEAD: trace_overhead(plain, traced),
        }
        layers.update(probes(seed, rate, last["digest"], rec, sizes))
        out.layers = layers
    return out


def real_backend_rate(backend: str, n_tasks: int, rec, **kwargs) -> float:
    """``Pilot.run`` of ~1 ms CPU tasks on a real two-worker backend."""
    def tasks(n: int, base: int) -> list[TaskSpec]:
        return [TaskSpec(name=f"burn{base + i}", uid=base + i, cpus=1,
                         fn=workloads.burn, args=(_BURN_SPIN,)) for i in range(n)]

    executor = create_executor(backend, max_workers=2, **kwargs)
    allocation = Cluster(1, spec=SUMMIT_NODE).allocate(1, now=0.0)
    with Pilot(allocation, executor, tracer=NULL_TRACER, keep_records=False) as pilot:
        pilot.run(tasks(4, 0))  # workers up before timing
        with rec.span(f"Pilot.run[{backend}]", "rct") as span:
            pilot.run(tasks(n_tasks, 4))
    check(pilot.failures.n_failures == 0, f"{backend} backend task failed")
    return n_tasks / rec.duration(span)


def probes(seed: int, untraced_rate: float, digest: str, rec, sizes: dict) -> dict[str, float]:
    s, p = sizes["pilot"], sizes["probe"]
    m: dict[str, float] = {}

    pilot = sim_pilot(s["n_nodes"], None)
    tasks = workloads.gpu_flood(p["flood"])
    with pilot, rec.span("Pilot.run[nofault]", "rct") as span:
        pilot.run(tasks)
    m["rct.sim.events_per_s_nofault"] = 2 * len(pilot.log) / rec.duration(span)

    # fork, not spawn: a spawn context starts multiprocessing's resource
    # tracker, a helper process that ends only after this one has — the
    # benchmark would leave a process behind.  Forked workers are joined by
    # the executor's shutdown.  Before the thread probe, so nothing forks
    # with pool threads alive.
    m["rct.process.tasks_per_s"] = real_backend_rate(
        "process", p["real_tasks"], rec,
        mp_context=multiprocessing.get_context("fork"),
    )
    m["rct.thread.tasks_per_s"] = real_backend_rate("thread", p["real_tasks"], rec)

    # the program's own tracer on the same flood: what `repro report` may cost
    with rec.span("flood[telemetry]", "telemetry"):
        traced = flood(s["n_tasks"], s["n_nodes"], seed, telemetry=True)
    check(traced["digest"] == digest, "tracing changed the TaskLog digest")
    m["telemetry.traced_events_per_s"] = traced["events_per_s"]
    m["telemetry.overhead_frac"] = 1.0 - traced["events_per_s"] / untraced_rate
    m["telemetry.spans"] = traced["spans"]
    with rec.span("chrome_trace_json", "telemetry") as span:
        chrome_trace_json(traced["tracer"])
    m["telemetry.export.chrome_json_s"] = rec.duration(span)
    return m
