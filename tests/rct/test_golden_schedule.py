"""Golden schedules: stored digests the drive loop must keep reproducing.

Every other bit-identity gate in the tree is relative (two paths, or two
runs, agree).  These are absolute: ``TaskLog.digest()``, the
``FailureSummary`` counters and the sha256 of the exported Chrome trace,
recorded at commit ``675e21b`` — the last one with four hand-written drive
loops — for one workload per task source (flat ``Pilot.run``, PST
``AppManager``, the multi-tenant service), the paper's integrated-campaign
mix at Summit node shape, plus the all-layers traced demo.
A change to the retry/idle/placement protocol that moves any schedule
shows here even when both sides of a relative check move together.

Re-record (only for an intended schedule change) with
``PYTHONPATH=src python -m tests.rct.test_golden_schedule``.
"""

import hashlib

import pytest

from repro.core.simulate import SimulatedCampaignConfig, simulate_integrated_run
from repro.core.tracedemo import run_traced_demo
from repro.rct.backends import SimExecutor
from repro.rct.cluster import SUMMIT_NODE, Allocation, NodeSpec
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec, reset_uid_counter
from repro.service.scenario import demo_scenario, run_scenario
from repro.telemetry import ExecutorClock, Tracer
from repro.telemetry.export import chrome_trace_json
from repro.util.rng import rng_stream

from tests.rct.oracle import mixed_tasks

SPEC = NodeSpec(cpus=8, gpus=4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pilot_witness(pilot: Pilot) -> dict:
    f = pilot.failures
    return {
        "log": pilot.log.digest(),
        "trace": _sha(chrome_trace_json(pilot.tracer)),
        "failures": [f.n_failures, f.n_retries, f.n_dropped, f.n_timeouts],
    }


def flat_witness() -> dict:
    """``Pilot.run`` over a mixed-shape workload with crashes and hangs."""
    reset_uid_counter()
    tasks = mixed_tasks(400, 5, SPEC)
    executor = SimExecutor(
        launch_overhead=0.1,
        fault_model=FaultModel(
            seed=5, failure_rate=0.08, straggler_rate=0.05, hang_rate=0.02
        ),
    )
    pilot = Pilot(
        Allocation(node_ids=list(range(6)), spec=SPEC, granted_at=0.0),
        executor,
        retry=RetryPolicy(max_retries=2, backoff_base=1.0, timeout=300.0),
        tracer=Tracer(clock=ExecutorClock(executor)),
    )
    pilot.run(tasks)
    return _pilot_witness(pilot)


def mixed_workload(
    n_tasks: int, seed: int, spec: NodeSpec = SUMMIT_NODE
) -> list[TaskSpec]:
    """The paper's integrated-campaign task mix, seeded.

    ~70% short single-GPU docking scorers, ~25% CPU-only featurizers
    (7 cores, no GPU), ~5% two-node MPI MD jobs.  Durations are
    log-normal: the long tail is what backfilling has to absorb.
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    # the stream name predates the goldens: changing it changes every draw
    rng = rng_stream(seed, "shootout.workload")
    kinds = rng.random(n_tasks)
    durations = rng.lognormal(mean=3.0, sigma=0.6, size=n_tasks)
    tasks: list[TaskSpec] = []
    for i in range(n_tasks):
        duration = float(durations[i])
        if kinds[i] < 0.70:
            shape = dict(name=f"dock-{i}", cpus=1, gpus=1, stage="S1")
        elif kinds[i] < 0.95:
            shape = dict(
                name=f"feat-{i}", cpus=min(7, spec.cpus), gpus=0, stage="ML1"
            )
        else:
            shape = dict(
                name=f"md-{i}", cpus=spec.cpus, gpus=spec.gpus, nodes=2,
                stage="S3-CG",
            )
            duration *= 4.0
        tasks.append(TaskSpec(duration=duration, **shape))
    return tasks


def mixed_witness(n_tasks: int, n_nodes: int, seed: int) -> dict:
    """``mixed_workload`` on Summit nodes with crashes, stragglers and hangs,
    no per-task records kept (``keep_records=False``) and a per-attempt timeout."""
    reset_uid_counter()
    tasks = mixed_workload(n_tasks, seed)
    executor = SimExecutor(
        launch_overhead=0.1,
        fault_model=FaultModel(
            seed=seed, failure_rate=0.05, straggler_rate=0.05, hang_rate=0.01
        ),
    )
    with Pilot(
        Allocation(node_ids=list(range(n_nodes)), spec=SUMMIT_NODE, granted_at=0.0),
        executor,
        retry=RetryPolicy(max_retries=3, backoff_base=2.0, timeout=600.0),
        tracer=Tracer(clock=ExecutorClock(executor)),
        keep_records=False,
    ) as pilot:
        pilot.run(tasks)
    return {**_pilot_witness(pilot), "attempts": len(pilot.log)}


def pst_witness(seed: int) -> dict:
    """The Fig 7 integrated run on a cluster small enough to contend."""
    reset_uid_counter()
    pilot = simulate_integrated_run(
        SimulatedCampaignConfig(
            n_nodes=24, cg_compounds=192, s2_compounds=40, fg_compounds=60,
            cohorts=6, seed=seed,
        ),
        fault_model=FaultModel(
            seed=seed, failure_rate=0.08, straggler_rate=0.05, hang_rate=0.02
        ),
        retry=RetryPolicy(max_retries=3, backoff_base=2.0, timeout=50000.0),
    )
    return _pilot_witness(pilot)


def service_witness() -> dict:
    """The scripted three-tenant demo: late join, live cancel, a budget."""
    report = run_scenario(demo_scenario())
    return {
        "digests": report.digests,
        "trace": _sha(report.trace_jsonl),
        "makespan": report.makespan,
        "states": report.tenant_states(),
    }


def tracedemo_witness() -> dict:
    """``repro trace``: every instrumented layer on one tick clock."""
    return {"trace": _sha(chrome_trace_json(run_traced_demo(seed=0)))}


WITNESSES = {
    "flat": flat_witness,
    "mixed-600": lambda: mixed_witness(600, 16, 11),
    "mixed-5000": lambda: mixed_witness(5000, 64, 11),
    "pst-0": lambda: pst_witness(0),
    "pst-1": lambda: pst_witness(1),
    "pst-2": lambda: pst_witness(2),
    "service": service_witness,
    "tracedemo": tracedemo_witness,
}

#: failures = [n_failures, n_retries, n_dropped, n_timeouts]
GOLDEN = {
    "flat": {
        "log": "6ed5cbed613c22253688bda128a9885e8e3597fea1da4cdd21f710aa16e3c7d5",
        "trace": "2d15aab6117ad6e7b7964a975ec980a48774e6f283cc3cb7fe133e381964b37f",
        "failures": [60, 57, 3, 15],
    },
    # recorded at 675e21b as n_failures/n_retries/n_timeouts; n_dropped = 0
    # because n_failures == n_retries there (failures = retries + drops)
    "mixed-600": {
        "log": "b72949225d275ab416306497c9deeef5220224de52729384aff451666b2762dd",
        "trace": "331709d2860274759fe91f99741a294f5d7e6d58661b7c588f329a508370d066",
        "failures": [48, 48, 0, 9],
        "attempts": 648,
    },
    "mixed-5000": {
        "log": "0b1846b04b4d9b8137b4ded4f6af642ea8dafc70814ae0dd1f588b35f9ff1b6e",
        "trace": "4acdadc813f13995ecb7837db1f7af11614a7354087bccee109a6ffda0806fcc",
        "failures": [294, 294, 0, 49],
        "attempts": 5294,
    },
    "pst-0": {
        "log": "286caefdb163af8abe6e883f4e1c80cefb4fd53d2795b1c8b7855ed65d184acb",
        "trace": "f2f919d02118ccd1392295d9e98058a3f98ab73ddd4cc962233ac772f7969955",
        "failures": [20, 20, 0, 6],
    },
    "pst-1": {
        "log": "70817c6f9a16d06207f444539a6fcf33aaad15eb18b816ae2e799339c228b4f7",
        "trace": "57801fa8265f55d09bf4f4e267e0eab5abc0fd55e6188f627218697b55663ce7",
        "failures": [27, 27, 0, 5],
    },
    "pst-2": {
        "log": "264e3caf58038bcb4514e7dd754566b03269748f9ec75ed7c68cb872baca531a",
        "trace": "ea1b4ed5f44f9a5f978481072aa67a098b015853f4b6fbb0203cf045db17dcaa",
        "failures": [28, 28, 0, 7],
    },
    "service": {
        "digests": {"gold/alpha": "0f52b3de50df23f2", "silver/beta": "d9bda02f475d7370"},
        "trace": "13ad5e8a4eeb9d11a3615c72b28136fd12066bff6ce221e7188eed48140dc315",
        "makespan": 5357.701700930504,
        "states": {
            "bronze": {"delta": "quota_exhausted"},
            "gold": {"alpha": "done"},
            "silver": {"beta": "done", "gamma": "cancelled"},
        },
    },
    # re-recorded when campaign seed/S1 began docking each stage's
    # selection as one shard per receptor: the 8 per-compound ``dock:``
    # spans and their 88 ``docking.kernel`` children became 2 shard spans
    # (``dock:seed/6W9C``, ``dock:it0/S1/6W9C``) with 22 children; the
    # other 107 spans are equal as (category, name, attributes) multisets;
    # re-recorded when ML1 began counting the compounds it ranked: the
    # ``stage:ML1`` span reads 10 ligands, not 12, and the other 130 spans
    # are equal as (category, name, attributes) multisets; re-recorded when
    # inference moved onto the training graph's binder: the 35 ``nn.op``
    # spans became 46 (the five ``pad2d`` and six conv bias adds are now
    # their own kernels, and spans are named by op kind), and the 96 other
    # spans are equal as (category, name, attributes) multisets
    "tracedemo": {
        "trace": "dbe0142ecd33f02a7962e609bb6ec63eba5ed6dd993c6c82b8de4176dad0d7b9",
    },
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_schedule_matches_golden(name):
    assert WITNESSES[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: WITNESSES[name]() for name in sorted(WITNESSES)})
