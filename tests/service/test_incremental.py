"""The incremental service round decides exactly like the re-scan round.

``tests/service/oracle.py`` holds the round as it was before it became
incremental: advance every submission, rebuild the candidates before
each grant attempt, re-sum in-flight work, re-try failed shapes.  Every
generated script here runs twice — on the product and with the oracle
installed — and every observable must be ``==``: the pilot's task log
and clock, each submission's state, accounting and attempt log, and
every share-ledger entry.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rct.backends import create_executor
from repro.rct.cluster import SUMMIT_NODE, Cluster
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec
from repro.rct.tasklog import TaskLog
from repro.service.manager import _UID_SPACE, CampaignManager, Submission
from repro.service.tenant import Quota, Tenant
from repro.service.work import SyntheticWork, WorkContext, WorkUnit
from repro.util.rng import rng_stream

from tests.service import oracle

#: (cpus, gpus, nodes) per shape name: CPU-only, one and three GPUs, MPI
SHAPES = {
    "cpu": (7, 0, 1),
    "gpu": (1, 1, 1),
    "gpu3": (2, 3, 1),
    "mpi": (SUMMIT_NODE.cpus, SUMMIT_NODE.gpus, 2),
}


class ScriptedWork:
    """Units of mixed-shape tasks; unit ``i``'s science draws one value."""

    def __init__(self, units: list[list[tuple[str, float]]], seed: int) -> None:
        self.plan = units
        self.seed = seed
        self.values: list[float] = []

    def units(self, ctx: WorkContext):
        for i, unit in enumerate(self.plan):
            tasks = []
            for j, (shape, duration) in enumerate(unit):
                cpus, gpus, nodes = SHAPES[shape]
                tasks.append(TaskSpec(
                    name=f"{ctx.submission}-u{i}t{j}", cpus=cpus, gpus=gpus,
                    nodes=nodes, duration=duration, stage=shape,
                    tenant=ctx.tenant, uid=ctx.next_uid(),
                ))

            def science(i=i) -> None:
                self.values.append(float(rng_stream(self.seed, f"unit/{i}").random()))

            yield WorkUnit(unit_id=f"u{i}", tasks=tasks, science=science)

    def result(self) -> list[float]:
        return list(self.values)

    def result_digest(self) -> str:
        return hashlib.sha256(repr(self.values).encode()).hexdigest()[:16]


def build(script: dict) -> CampaignManager:
    """A manager with every scripted submit/cancel scheduled."""
    executor = create_executor(
        "sim", launch_overhead=0.5,
        fault_model=FaultModel(seed=script["seed"], failure_rate=script["failure_rate"]),
    )
    n = script["n_nodes"]
    pilot = Pilot(
        Cluster(n, spec=SUMMIT_NODE).allocate(n, now=0.0), executor,
        retry=RetryPolicy(max_retries=script["max_retries"], seed=script["seed"]),
        failure_policy="drop_and_continue",
    )
    manager = CampaignManager(pilot, preempt_bound=script["preempt_bound"])
    tenants = [
        Tenant(name=f"t{i}", weight=t["weight"], priority=t["priority"],
               quota=Quota(max_concurrent_tasks=t["max_tasks"],
                           node_seconds_budget=t["budget"]))
        for i, t in enumerate(script["tenants"])
    ]
    for k, sub in enumerate(script["subs"]):
        tenant = tenants[sub["tenant"]]
        manager.at(sub["at"], "submit", tenant=tenant, name=f"s{k}",
                   work=ScriptedWork(sub["units"], seed=script["seed"] + k))
        if sub["cancel_at"] is not None:
            manager.at(sub["at"] + sub["cancel_at"], "cancel",
                       sid=f"{tenant.name}/s{k}")
    return manager


def ledger(manager: CampaignManager) -> dict:
    """Every live share entry, and the cost of retired tenants."""
    entries = {
        name: (e.pass_value, e.served_cost, e.starve_credits, e.n_grants)
        for name, e in manager.sched._entries.items()
    }
    return {"entries": entries, "retired": dict(manager.sched._retired_cost)}


def submission_log(manager: CampaignManager, sub: Submission) -> TaskLog:
    """The submission's attempts, in start order, as a columnar log: the
    pilot's records whose uid lies in the submission's namespace."""
    log = TaskLog()
    for record in manager.pilot.records:
        if record.spec.uid // _UID_SPACE == sub._uid_base // _UID_SPACE:
            log.append(record)
    return log


def observe(manager: CampaignManager) -> dict:
    """Everything the round decides at the end, as comparable values."""
    subs = {
        sid: (s.state, s.error, s.node_seconds, s.n_tasks_done, s.units_done,
              s.failures.summary(), submission_log(manager, s).digest(),
              s.work.result_digest())
        for sid, s in manager._subs.items()
    }
    return {
        "log": manager.pilot.log.digest(), "now": manager.pilot.executor.now,
        "subs": subs, "ledger": ledger(manager),
    }


def run(script: dict, reference: bool = False) -> dict:
    """Drive a script to idle; the ledger is kept after every round."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            oracle.install(mp)
        manager = build(script)
        rounds = []
        while manager._step():
            rounds.append(ledger(manager))
        return {**observe(manager), "rounds": rounds}


units = st.lists(
    st.lists(
        st.tuples(st.sampled_from(sorted(SHAPES)), st.sampled_from([10.0, 30.0, 45.5, 60.0])),
        min_size=0, max_size=6,
    ),
    min_size=1, max_size=3,
)


@st.composite
def scripts(draw) -> dict:
    tenants = draw(st.lists(
        st.fixed_dictionaries({
            "weight": st.integers(1, 4),
            "priority": st.integers(0, 2),
            "max_tasks": st.sampled_from([None, 1, 3]),
            "budget": st.sampled_from([None, None, 120.0, 600.0]),
        }),
        min_size=2, max_size=5,
    ))
    subs = []
    for i in range(len(tenants)):
        for _ in range(draw(st.integers(1, 2))):
            subs.append({
                "tenant": i,
                "at": draw(st.sampled_from([0.0, 0.0, 20.0, 95.0])),
                "cancel_at": draw(st.sampled_from([None, None, None, 0.0, 40.0, 150.0])),
                "units": draw(units),
            })
    return {
        "n_nodes": draw(st.integers(1, 3)),
        "preempt_bound": draw(st.sampled_from([1, 2, 8])),
        "failure_rate": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "max_retries": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 2**16)),
        "tenants": tenants,
        "subs": subs,
    }


def _tenant(weight=1, priority=0, max_tasks=None, budget=None) -> dict:
    return {"weight": weight, "priority": priority, "max_tasks": max_tasks,
            "budget": budget}


def _sub(tenant, units, at=0.0, cancel_at=None) -> dict:
    return {"tenant": tenant, "at": at, "cancel_at": cancel_at, "units": units}


#: two GPU tenants and a higher-priority CPU-only one on one node: once
#: the six GPUs are taken, the starved low tenant is picked first and its
#: failed try fails the shared "gpu" shape — the middle GPU tenant, not
#: yet picked, must stay eligible so every CPU grant still ages it
BLOCKED_GPU = {
    "n_nodes": 1, "preempt_bound": 2, "failure_rate": 0.0, "max_retries": 0,
    "seed": 0,
    "tenants": [_tenant(priority=1), _tenant(priority=0), _tenant(priority=2)],
    "subs": [
        _sub(0, [[("gpu", 60.0)] * 12]),
        _sub(1, [[("gpu", 45.5)] * 12]),
        _sub(2, [[("cpu", 10.0)] * 18] * 2),
    ],
}


@settings(max_examples=150, deadline=None)
@given(scripts())
@example(BLOCKED_GPU)
@example({  # a cancelled submission's retries leave its tenant's quota
    "n_nodes": 1, "preempt_bound": 1, "failure_rate": 0.3, "max_retries": 2,
    "seed": 3,
    "tenants": [_tenant(max_tasks=1), _tenant(weight=3, max_tasks=3)],
    "subs": [
        _sub(0, [[("gpu", 60.0)] * 5], cancel_at=40.0),
        _sub(0, [[("cpu", 30.0)] * 3], at=20.0),
        _sub(1, [[("mpi", 10.0)], [("gpu3", 45.5)] * 3]),
    ],
})
@example({  # a budget crossed mid-unit; a 2-node task on one node fails
    "n_nodes": 1, "preempt_bound": 8, "failure_rate": 0.1, "max_retries": 1,
    "seed": 7,
    "tenants": [_tenant(budget=120.0), _tenant(priority=1), _tenant(weight=4)],
    "subs": [
        _sub(0, [[("gpu", 60.0)] * 6, [("cpu", 60.0)] * 6]),
        _sub(1, [[("mpi", 30.0)]]),
        _sub(2, [[], [("gpu3", 10.0), ("cpu", 10.0)] * 3], at=95.0),
    ],
})
@example({  # an MPI shape fails for one tenant before another is picked
    "n_nodes": 2, "preempt_bound": 1, "failure_rate": 0.0, "max_retries": 0,
    "seed": 0,
    "tenants": [_tenant(), _tenant(priority=1), _tenant(), _tenant(),
                _tenant(priority=1)],
    "subs": [
        _sub(0, [[("cpu", 30.0), ("cpu", 30.0), ("mpi", 10.0)]]),
        _sub(1, [[("cpu", 10.0), ("mpi", 10.0)]]),
        _sub(2, [[]]),
        _sub(3, [[]]),
        _sub(4, [[("cpu", 10.0)]], at=20.0),
    ],
})
@example({  # a tenant whose backlog just emptied leaves the pass
    "n_nodes": 1, "preempt_bound": 1, "failure_rate": 0.0, "max_retries": 0,
    "seed": 0,
    "tenants": [_tenant(), _tenant(priority=1), _tenant()],
    "subs": [
        _sub(0, [[]]),
        _sub(1, [[("cpu", 10.0), ("cpu", 10.0)]]),
        _sub(2, [[("cpu", 10.0)]]),
    ],
})
def test_incremental_round_matches_the_rescan_oracle(script):
    assert run(script) == run(script, reference=True)


def test_blocked_gpu_tenant_keeps_aging():
    """The scenario really ages the middle tenant to its bound (the
    oracle comparison of ``BLOCKED_GPU`` is the ``@example`` above)."""
    manager = build(BLOCKED_GPU)
    credits = []
    while manager._step():
        if "t0" in manager.sched:
            credits.append(manager.sched.entry("t0").starve_credits)
    assert max(credits) >= BLOCKED_GPU["preempt_bound"]


def test_one_backoff_draw_per_retry(monkeypatch):
    """The manager reads the pilot's drawn backoff off the record."""
    script = {
        "n_nodes": 2, "preempt_bound": 8, "failure_rate": 0.3, "max_retries": 2,
        "seed": 11,
        "tenants": [_tenant(weight=2), _tenant()],
        "subs": [_sub(0, [[("gpu", 60.0)] * 12] * 2), _sub(1, [[("cpu", 30.0)] * 12])],
    }
    draws = {"n": 0}
    backoff = RetryPolicy.backoff

    def counted(self, uid, attempt):
        draws["n"] += 1
        return backoff(self, uid, attempt)

    monkeypatch.setattr(RetryPolicy, "backoff", counted)
    manager = build(script)
    manager.run_until_idle()
    n_retries = manager.pilot.failures.n_retries
    assert n_retries > 0
    assert draws["n"] == n_retries
    summaries = {sid: s.failures.summary() for sid, s in manager._subs.items()}

    draws["n"] = 0
    reference = build(script)
    with pytest.MonkeyPatch.context() as mp:
        oracle.install(mp)
        reference.run_until_idle()
    assert draws["n"] == 2 * n_retries  # the re-scan round drew every one twice
    assert summaries == {
        sid: s.failures.summary() for sid, s in reference._subs.items()
    }


def test_one_start_per_grant(monkeypatch):
    """The placement probe leaves no failing try: on a fault-free pilot
    every ``start_task`` call places an attempt that is later logged."""
    calls = {"n": 0}
    start_task = Pilot.start_task

    def counted(self, task, attempt=0):
        calls["n"] += 1
        return start_task(self, task, attempt)

    monkeypatch.setattr(Pilot, "start_task", counted)
    executor = create_executor("sim", launch_overhead=0.5)
    pilot = Pilot(Cluster(2, spec=SUMMIT_NODE).allocate(2, now=0.0), executor,
                  failure_policy="drop_and_continue")
    manager = CampaignManager(pilot)
    for i, weight in enumerate((4, 2, 1)):
        manager.submit(Tenant(name=f"t{i}", weight=weight), "job",
                       SyntheticWork(n_units=3, tasks_per_unit=20, duration=60.0,
                                     gpus=1, seed=i))
    manager.run_until_idle()
    assert len(pilot.log) == 3 * 3 * 20
    assert calls["n"] == len(pilot.log)
