"""CampaignManager: quotas, cancellation, isolation, determinism.

The contract under test: a fixed submission script + seed produces
bit-identical per-tenant results regardless of interleaving, each
tenant's results match a solo run of the same campaign, quotas actually
bound tenants, and a cancelled campaign's checkpoints stay resumable.
"""

import asyncio
import random

import pytest

from repro.rct.backends import create_executor
from repro.rct.cluster import Cluster, SUMMIT_NODE
from repro.rct.fault import FaultModel, RetryPolicy
from repro.service.manager import CampaignManager
from repro.service.tenant import Quota, Tenant
from repro.service.work import CampaignWork, SyntheticWork, WorkUnit
from repro.rct.pilot import Pilot

from tests.core.test_stageunits import tiny_config
from tests.service.test_incremental import submission_log


def make_manager(n_nodes=2, **pilot_kwargs):
    executor = create_executor("sim", launch_overhead=0.5)
    allocation = Cluster(n_nodes, spec=SUMMIT_NODE).allocate(n_nodes, now=0.0)
    pilot = Pilot(
        allocation, executor, failure_policy="drop_and_continue", **pilot_kwargs
    )
    return CampaignManager(pilot)


def synthetic(seed, n_units=3, tasks=6, duration=60.0):
    return SyntheticWork(
        n_units=n_units, tasks_per_unit=tasks, duration=duration, gpus=1, seed=seed
    )


def solo_digest(work_factory):
    """Digest of one submission run alone on a fresh substrate."""
    manager = make_manager()
    sid = manager.submit(Tenant(name="solo"), "only", work_factory())
    manager.run_until_idle()
    return manager.result_digest(sid)


# ------------------------------------------------------------- fair share
def test_equal_work_finishes_in_weight_order():
    manager = make_manager(n_nodes=1)
    tenants = [
        Tenant(name="gold", weight=4),
        Tenant(name="silver", weight=2),
        Tenant(name="bronze", weight=1),
    ]
    sids = [
        manager.submit(t, "job", synthetic(seed=i, n_units=4, tasks=6))
        for i, t in enumerate(tenants)
    ]
    done_at = {}

    def note():
        for sid in sids:
            if sid not in done_at and manager._subs[sid].state == "done":
                done_at[sid] = manager.pilot.executor.now

    while manager._step():
        note()
    note()
    assert all(manager._subs[sid].state == "done" for sid in sids)
    # identical workloads, so the heavier weight drains its backlog first
    assert done_at["gold/job"] < done_at["silver/job"] < done_at["bronze/job"]


# ----------------------------------------------------------------- quotas
def test_max_concurrent_tasks_quota_is_enforced():
    manager = make_manager(n_nodes=2)  # 12 GPU slots
    capped = Tenant(name="capped", quota=Quota(max_concurrent_tasks=2))
    free = Tenant(name="free", weight=1)
    manager.submit(capped, "job", synthetic(seed=0, tasks=8))
    manager.submit(free, "job", synthetic(seed=1, tasks=8))
    peak = {"capped": 0, "free": 0}
    while manager._step():
        for name in peak:
            peak[name] = max(peak[name], manager._tenant_busy.get(name, 0))
    assert peak["capped"] <= 2
    assert peak["free"] > 2  # the cluster allowed more; only the quota bound us


def test_node_seconds_budget_stops_the_tenant():
    manager = make_manager(n_nodes=1)
    broke = Tenant(name="broke", quota=Quota(node_seconds_budget=50.0))
    rich = Tenant(name="rich")
    sid_b = manager.submit(broke, "job", synthetic(seed=0))
    sid_r = manager.submit(rich, "job", synthetic(seed=1))
    manager.run_until_idle()
    sub = manager._subs[sid_b]
    assert sub.state == "quota_exhausted"
    assert "budget exhausted" in sub.error
    assert sub.node_seconds >= 50.0
    assert manager._subs[sid_r].state == "done"
    # a terminal submission holds no queued or running work
    assert len(sub._pending) == 0 and not sub._inflight


# ------------------------------------------------------------------ cancel
def test_cancel_mid_run_leaves_other_tenants_bit_identical():
    baseline = solo_digest(lambda: synthetic(seed=7))
    manager = make_manager(n_nodes=1)
    keep = manager.submit(Tenant(name="solo"), "only", synthetic(seed=7))
    drop = manager.submit(Tenant(name="victim"), "gone", synthetic(seed=8))
    # let real contention develop before cancelling
    for _ in range(10):
        manager._step()
    assert manager._subs[drop].state == "running"
    manager.cancel(drop)
    manager.run_until_idle()
    assert manager._subs[drop].state == "cancelled"
    assert manager._subs[keep].state == "done"
    assert manager.result_digest(keep) == baseline


def test_cancel_is_idempotent_and_drops_queued_work():
    manager = make_manager()
    sid = manager.submit(Tenant(name="t"), "job", synthetic(seed=0))
    manager._step()
    manager.cancel(sid)
    manager.cancel(sid)  # no-op on a terminal submission
    assert manager._subs[sid].state == "cancelled"
    assert len(manager._subs[sid]._pending) == 0
    manager.run_until_idle()


# ----------------------------------------------------- arrival determinism
def test_shuffled_arrival_gives_identical_per_tenant_results():
    def run(order):
        manager = make_manager(n_nodes=1)
        for name, seed in order:
            manager.at(0.0, "submit", tenant=Tenant(name=name), name="job",
                       work=synthetic(seed=seed))
        manager.run_until_idle()
        return {
            name: manager.result_digest(f"{name}/job") for name, _ in order
        }

    order = [("a", 1), ("b", 2), ("c", 3)]
    forward = run(order)
    shuffled = run(list(reversed(order)))
    assert forward == shuffled
    for name, seed in order:
        assert forward[name] == solo_digest(lambda s=seed: synthetic(seed=s))


# ------------------------------------------------------- campaign isolation
def test_campaign_solo_vs_shared_bit_identical():
    solo = solo_digest(lambda: CampaignWork(tiny_config(seed=3)))
    manager = make_manager(n_nodes=2)
    sid = manager.submit(
        Tenant(name="science"), "camp", CampaignWork(tiny_config(seed=3))
    )
    manager.submit(Tenant(name="noise", weight=4), "traffic",
                   synthetic(seed=9, n_units=6, tasks=10))
    manager.run_until_idle()
    assert manager._subs[sid].state == "done"
    assert manager.result_digest(sid) == solo


def test_cancelled_campaign_resumes_from_checkpoints(tmp_path):
    uninterrupted = solo_digest(lambda: CampaignWork(tiny_config(seed=5)))
    workdir = tmp_path / "ckpt"

    manager = make_manager()
    sid = manager.submit(
        Tenant(name="t"), "first", CampaignWork(tiny_config(seed=5), workdir=workdir)
    )
    while manager._subs[sid].units_done < 3:
        manager._step()
    manager.cancel(sid)
    manager.run_until_idle()
    assert manager._subs[sid].state == "cancelled"

    # resubmit onto the same workdir: completed units fast-forward at
    # zero simulated cost, and the final science is bit-identical
    manager2 = make_manager()
    sid2 = manager2.submit(
        Tenant(name="t"), "second", CampaignWork(tiny_config(seed=5), workdir=workdir)
    )
    manager2.run_until_idle()
    resumed = manager2._subs[sid2]
    assert resumed.state == "done"
    assert manager2.result_digest(sid2) == uninterrupted
    # the resumed run paid for strictly less than the whole campaign
    solo_mgr = make_manager()
    solo_sid = solo_mgr.submit(
        Tenant(name="t"), "whole", CampaignWork(tiny_config(seed=5))
    )
    solo_mgr.run_until_idle()
    assert resumed.node_seconds < solo_mgr._subs[solo_sid].node_seconds


def test_checkpoint_dir_refuses_a_different_campaign(tmp_path):
    workdir = tmp_path / "ckpt"
    CampaignWork(tiny_config(seed=1), workdir=workdir)
    with pytest.raises(ValueError, match="different campaign"):
        CampaignWork(tiny_config(seed=2), workdir=workdir)


# ------------------------------------------------------------- validation
def test_duplicate_submission_rejected():
    manager = make_manager()
    tenant = Tenant(name="t")
    manager.submit(tenant, "job", synthetic(seed=0))
    with pytest.raises(ValueError, match="already exists"):
        manager.submit(tenant, "job", synthetic(seed=0))


def test_tenant_config_is_immutable_per_run():
    manager = make_manager()
    manager.submit(Tenant(name="t", weight=1), "a", synthetic(seed=0))
    with pytest.raises(ValueError, match="immutable"):
        manager.submit(Tenant(name="t", weight=2), "b", synthetic(seed=1))


def test_oversized_task_fails_only_its_tenant():
    manager = make_manager(n_nodes=1)
    big = manager.submit(
        Tenant(name="big"), "job",
        SyntheticWork(n_units=1, tasks_per_unit=1, nodes=5, seed=0),
    )
    ok = manager.submit(Tenant(name="ok"), "job", synthetic(seed=1))
    manager.run_until_idle()
    assert manager._subs[big].state == "failed"
    assert "ValueError" in manager._subs[big].error
    assert manager._subs[ok].state == "done"


@pytest.mark.parametrize("seed", range(5))
def test_fail_fast_attempt_is_attributed_and_frees_its_quota_slot(seed):
    """On a fail_fast pilot the failing attempt still reaches the owner's
    ledger: its uid leaves ``_inflight`` (else a one-task quota is held
    forever and the tenant's next submission deadlocks), and it shows in
    the submission's attempts, node-seconds and failure summary."""
    executor = create_executor(
        "sim", launch_overhead=0.5,
        fault_model=FaultModel(seed=seed, failure_rate=0.3),
    )
    allocation = Cluster(2, spec=SUMMIT_NODE).allocate(2, now=0.0)
    manager = CampaignManager(
        Pilot(allocation, executor, failure_policy="fail_fast")
    )
    tenant = Tenant(name="a", quota=Quota(max_concurrent_tasks=1))
    sids = [
        manager.submit(tenant, name, synthetic(seed=seed + i))
        for i, name in enumerate(("one", "two"))
    ]
    manager.run_until_idle()
    assert manager._tenant_busy.get("a", 0) == 0
    failed = [manager._subs[sid] for sid in sids if manager._subs[sid].state == "failed"]
    assert failed  # 36 tasks at 30 %: some attempt did fail
    for sid in sids:
        sub = manager._subs[sid]
        assert sub.state in ("done", "failed")
        assert manager.status(sid)["n_inflight"] == 0
        assert sub.failures.reconciles()
        assert (
            submission_log(manager, sub).state_counts().get("FAILED", 0)
            == sub.failures.n_dropped
        )
    for sub in failed:
        assert "TaskFailedError" in sub.error
        assert sub.failures.n_dropped == 1
    spec = manager.pilot.spec
    assert sum(manager._subs[s].node_seconds for s in sids) == pytest.approx(
        manager.pilot.log.node_seconds_total(spec.gpus, spec.cpus)
    )


# ------------------------------------------------------- scripted events
def test_scripted_events_apply_in_time_then_schedule_order(monkeypatch):
    manager = make_manager()
    rng = random.Random(5)
    events = [(float(rng.randrange(500)), k) for k in range(5_000)]
    shuffled = events[:]
    rng.shuffle(shuffled)
    seq = {}
    for time, k in shuffled:
        seq[k] = len(seq)  # scheduling order breaks ties at one time
        manager.at(time, "cancel", sid=k)
    applied = []
    monkeypatch.setattr(manager, "_apply", lambda op, payload: applied.append(payload["sid"]))
    expected = [k for _, _, k in sorted((t, seq[k], k) for t, k in events)]
    clock = manager.pilot.executor
    for time in sorted({t for t, _ in events}):
        assert manager.next_wakeup() == time
        clock.wait_until(time)
        manager._drain_due()
    assert manager.next_wakeup() is None
    assert applied == expected


# ---------------------------------------------------------------- asyncio
def test_async_submit_and_cancel_via_serve():
    sync_digest = solo_digest(lambda: synthetic(seed=4))

    async def scenario():
        manager = make_manager()
        sid = await manager.submit_async(Tenant(name="solo"), "only",
                                         synthetic(seed=4))
        doomed = await manager.submit_async(Tenant(name="other"), "gone",
                                            synthetic(seed=5))
        await manager.cancel_async(doomed)
        status = await manager.serve()
        return manager, sid, doomed, status

    manager, sid, doomed, status = asyncio.run(scenario())
    assert manager._subs[sid].state == "done"
    assert manager._subs[doomed].state == "cancelled"
    assert manager.result_digest(sid) == sync_digest
    assert status["tenants"]["solo"]["submissions"]["only"]["state"] == "done"


# ------------------------------------------------------------ attribution
def test_per_tenant_accounting_totals_match_the_pilot():
    manager = make_manager(n_nodes=1)
    sids = [
        manager.submit(Tenant(name=f"t{i}"), "job", synthetic(seed=i))
        for i in range(3)
    ]
    manager.run_until_idle()
    spec = manager.pilot.spec
    total = sum(manager._subs[s].node_seconds for s in sids)
    pilot_total = sum(
        r.node_seconds(spec.gpus, spec.cpus) for r in manager.pilot.records
    )
    assert total == pytest.approx(pilot_total)
    for sid in sids:
        sub = manager._subs[sid]
        assert sub.n_tasks_done == 3 * 6
        assert len(submission_log(manager, sub)) > 0


class _ScienceFails(SyntheticWork):
    """Synthetic work whose second unit's science raises."""

    def units(self, ctx):
        for i, unit in enumerate(super().units(ctx)):
            if i == 1:
                unit = WorkUnit(unit.unit_id, unit.tasks, science=self._boom)
            yield unit

    @staticmethod
    def _boom():
        raise RuntimeError("science failed")


def _ledger(summaries):
    """The countable part of failure ledgers, summed."""
    total = {"failures": 0, "retries": 0, "dropped": 0, "timeouts": 0,
             "by_stage": {}, "histogram": {}}
    for f in summaries:
        total["failures"] += f.n_failures
        total["retries"] += f.n_retries
        total["dropped"] += f.n_dropped
        total["timeouts"] += f.n_timeouts
        for key, field_ in (("by_stage", f.dropped_by_stage),
                            ("histogram", f.retry_histogram)):
            for k, n in field_.items():
                total[key][k] = total[key].get(k, 0) + n
    return total


@pytest.mark.parametrize("ending", ["cancel", "budget", "science"])
def test_per_submission_failure_ledgers_sum_to_the_pilots(ending):
    """A submission that ends early drops its retries still in backoff;
    the pilot turns each into a drop, and so must the owner's ledger."""
    executor = create_executor(
        "sim", launch_overhead=0.5,
        fault_model=FaultModel(seed=1, failure_rate=0.3),
    )
    allocation = Cluster(2, spec=SUMMIT_NODE).allocate(2, now=0.0)
    pilot = Pilot(allocation, executor, failure_policy="drop_and_continue",
                  retry=RetryPolicy(max_retries=3, backoff_base=50.0, seed=1))
    manager = CampaignManager(pilot)
    quota = Quota(node_seconds_budget=80.0) if ending == "budget" else Quota()
    work = _ScienceFails if ending == "science" else SyntheticWork
    manager.submit(Tenant(name="a", quota=quota), "job",
                   work(n_units=3, tasks_per_unit=6, duration=60.0, gpus=1, seed=0))
    manager.submit(Tenant(name="b"), "job", synthetic(seed=1))
    if ending == "cancel":
        manager.at(100.0, "cancel", sid="a/job")
    manager.run_until_idle()
    subs = list(manager._subs.values())
    assert subs[0].state == {"cancel": "cancelled", "budget": "quota_exhausted",
                             "science": "failed"}[ending]
    assert pilot.failures.n_retries > 0
    assert _ledger(s.failures for s in subs) == _ledger([pilot.failures])
    for sub in subs:
        assert sub.failures.reconciles()
