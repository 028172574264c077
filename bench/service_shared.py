"""``service_shared``: three tenants on one pilot through the service loop.

Same ``rct`` layer as ``pilot_flood`` but reached through
``CampaignManager`` instead of ``Pilot.run``: isolates what the stride
ledger, per-tenant attribution and quota checks cost.  ``pilot_flood`` is
its bypass.
"""

from __future__ import annotations

import hashlib
import time

import workloads
from harness import (
    OVERHEAD, Outcome, check, median, peak_rss_mb, run_passes, timed, trace_overhead,
)
from repro.rct.backends import create_executor
from repro.rct.cluster import SUMMIT_NODE, Cluster
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec
from repro.service.manager import CampaignManager
from repro.service.tenant import Tenant
from repro.service.work import SyntheticWork
from repro.telemetry import NULL_TRACER

NAME = "service_shared"
LAYER_METRICS = {
    "service.solo_events_per_s": "1/s",
    "service.pilot_direct_events_per_s": "1/s",
    "service.relative_throughput": "ratio",
    "service.share_error_max": "frac",
    "service.tenants_identical": "count",
    "service.attempts": "count",
}
SHARE_TOLERANCE = 0.05


def make_pilot(sizes: dict) -> Pilot:
    n = sizes["service"]["n_nodes"]
    executor = create_executor("sim", launch_overhead=0.1)
    allocation = Cluster(n, spec=SUMMIT_NODE).allocate(n, now=0.0)
    # records kept: fair-share is judged afterwards from the tenant-tagged
    # attempt records, not from the manager's private ledger
    return Pilot(allocation, executor, failure_policy="drop_and_continue",
                 tracer=NULL_TRACER)


def serve(work: list[tuple[Tenant, SyntheticWork]], sizes: dict, rec=None) -> dict:
    """Submit every tenant's work to one fresh manager and drain it."""
    t0 = time.perf_counter()
    manager = CampaignManager(make_pilot(sizes))
    sids = {t.name: manager.submit(t, "job", w) for t, w in work}
    setup_s = time.perf_counter() - t0
    if rec is None:
        wall, _ = timed(manager.run_until_idle)
    else:
        with rec.span("run_until_idle", "service") as span:
            manager.run_until_idle()
        wall = rec.duration(span)
    pilot = manager.pilot
    check(pilot.failures.reconciles(), "failures do not reconcile")
    # scalars only: a pass's 10^4..10^5 attempt records die with its pilot
    return dict(
        wall=wall, setup_s=setup_s,
        attempts=len(pilot.log),
        events_per_s=2 * len(pilot.log) / wall,
        makespan=pilot.executor.now,
        dropped=pilot.failures.n_dropped,
        log_digest=pilot.log.digest(),
        digests={name: manager.result_digest(sid) for name, sid in sids.items()},
        share_error=(
            share_error(pilot.records, sizes["service"]["tasks_per_unit"])
            if len(work) > 1 else 0.0
        ),
    )


def share_error(records, tasks_per_unit: int) -> float:
    """Worst |achieved - target| share of GPU-seconds started while every
    tenant still had backlog (up to the first tenant's first unit draining).

    ``records`` are in start order, so a tenant's k-th record is its k-th
    start; its first unit has drained once ``tasks_per_unit`` have started.
    """
    starts: dict[str, list[tuple[float, float]]] = {n: [] for n in workloads.WEIGHTS}
    for r in records:
        starts[r.spec.tenant].append((r.start_time, r.spec.duration * r.spec.gpus))
    cut = min(s[tasks_per_unit - 1][0] for s in starts.values())
    served = {n: sum(g for t, g in s if t < cut) for n, s in starts.items()}
    total, weight = sum(served.values()), sum(workloads.WEIGHTS.values())
    return max(abs(served[n] / total - w / weight) for n, w in workloads.WEIGHTS.items())


def run(seed: int, seconds: float, rec, sizes: dict) -> Outcome:
    s = sizes["service"]
    # expected outputs: every tenant's campaign run alone on an idle pilot
    reference_s, solo = timed(lambda: {
        tenant.name: serve([(tenant, work)], sizes)["digests"][tenant.name]
        for tenant, work in workloads.tenant_work(seed, sizes)
    })
    plain, traced = run_passes(
        lambda recorder: serve(workloads.tenant_work(seed, sizes), sizes, recorder),
        seconds, s["min_passes"], rec,
    )
    every = plain + traced
    for p in every:
        check(p["digests"] == solo, f"shared digests {p['digests']} != solo {solo}")
    check(len({p["log_digest"] for p in every}) == 1,
          "TaskLog digest differs between passes")
    check(len({p["makespan"] for p in every}) == 1,
          "virtual makespan differs between passes")
    last = every[-1]
    error = last["share_error"]
    check(error <= SHARE_TOLERANCE, f"share error {error:.4f} > {SHARE_TOLERANCE}")

    n_tasks = len(workloads.WEIGHTS) * s["n_units"] * s["tasks_per_unit"]
    rate = median(p["events_per_s"] for p in plain)
    digest = hashlib.sha256(
        (last["log_digest"] + "".join(sorted(solo.values()))).encode()
    ).hexdigest()[:16]
    out = Outcome(
        attempted=n_tasks,
        failed=last["dropped"],
        e2e={
            "setup_s": reference_s + median(p["setup_s"] for p in every),
            "makespan_s": last["makespan"],
            "ops_per_s": rate,
            "peak_rss_mb": peak_rss_mb(),
        },
        info={"digest": digest, "attempts": last["attempts"],
              "pass_walls": [p["wall"] for p in every]},
    )
    if rec is not None:
        layers = {
            "service.share_error_max": error,
            "service.tenants_identical": len(solo),
            "service.attempts": last["attempts"],
            OVERHEAD: trace_overhead(plain, traced),
        }
        # same task count, one tenant: what sharing costs on top of the loop
        one = SyntheticWork(n_units=s["n_units"],
                            tasks_per_unit=len(workloads.WEIGHTS) * s["tasks_per_unit"],
                            duration=60.0, gpus=1, seed=seed)
        with rec.span("solo", "service"):
            solo_rate = serve([(Tenant(name="solo"), one)], sizes)["events_per_s"]
        # same task count, no manager at all
        tasks = [TaskSpec(name=f"t{i}", uid=i, cpus=1, gpus=1, duration=60.0)
                 for i in range(n_tasks)]
        with make_pilot(sizes) as direct, rec.span("Pilot.run", "rct") as span:
            direct.run(tasks)
        layers["service.solo_events_per_s"] = solo_rate
        layers["service.pilot_direct_events_per_s"] = (
            2 * len(direct.log) / rec.duration(span)
        )
        layers["service.relative_throughput"] = rate / solo_rate
        out.layers = layers
    return out
