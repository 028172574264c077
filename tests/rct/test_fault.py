"""Tests for the fault-tolerance layer: fault model, retry policy,
failure propagation and the reconciliation ledger."""

import math

import pytest

from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.entk import AppManager, Pipeline, Stage
from repro.rct.backends import SimExecutor, ThreadExecutor
from repro.rct.fault import (
    FailureSummary,
    FaultModel,
    RetryPolicy,
    TaskFailedError,
)
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec, TaskState, reset_uid_counter


def _pilot(n_nodes=4, fault_model=None, overhead=0.0, **kwargs):
    cluster = Cluster(n_nodes, NodeSpec(cpus=4, gpus=2))
    return Pilot(
        cluster.allocate(n_nodes, 0.0),
        SimExecutor(overhead, fault_model=fault_model),
        **kwargs,
    )


# ------------------------------------------------------------- fault model


def test_fault_model_draw_is_deterministic():
    fm = FaultModel(failure_rate=0.3, straggler_rate=0.2, seed=5)
    a = fm.draw(7, 0, 10.0)
    b = fm.draw(7, 0, 10.0)
    assert a == b


def test_fault_model_rerolls_per_attempt_and_task():
    fm = FaultModel(failure_rate=0.5, seed=5)
    outcomes = {(uid, att): fm.draw(uid, att, 1.0).kind
                for uid in range(50) for att in range(3)}
    assert "fail" in outcomes.values() and "ok" in outcomes.values()


def test_fault_model_zero_rates_always_ok():
    fm = FaultModel(seed=0)
    for uid in range(100):
        out = fm.draw(uid, 0, 3.0)
        assert out.kind == "ok" and out.busy == 3.0 and not out.failed


def test_fault_model_hang_is_infinite():
    fm = FaultModel(hang_rate=1.0, seed=0)
    out = fm.draw(0, 0, 3.0)
    assert out.kind == "hang" and math.isinf(out.busy) and out.failed


def test_fault_model_failure_charges_partial_duration():
    fm = FaultModel(failure_rate=1.0, seed=1)
    out = fm.draw(3, 0, 10.0)
    assert out.failed and 0.0 <= out.busy <= 10.0


def test_fault_model_straggler_slows_but_succeeds():
    fm = FaultModel(straggler_rate=1.0, straggler_factor=3.0, seed=0)
    out = fm.draw(0, 0, 2.0)
    assert out.kind == "straggle" and out.busy == pytest.approx(6.0)
    assert not out.failed


def test_fault_model_validation():
    with pytest.raises(ValueError):
        FaultModel(failure_rate=1.5)
    with pytest.raises(ValueError):
        FaultModel(failure_rate=0.6, hang_rate=0.6)
    with pytest.raises(ValueError):
        FaultModel(straggler_factor=0.5)
    with pytest.raises(ValueError):
        FaultModel(straggler_factor=math.nan)


# ------------------------------------------------------------ retry policy


def test_retry_policy_backoff_grows_exponentially():
    rp = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_jitter=0.0)
    assert rp.backoff(0, 0) == pytest.approx(1.0)
    assert rp.backoff(0, 1) == pytest.approx(2.0)
    assert rp.backoff(0, 3) == pytest.approx(8.0)


def test_retry_policy_jitter_bounded_and_deterministic():
    rp = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_jitter=0.5)
    b = rp.backoff(9, 2)
    assert 4.0 <= b <= 6.0
    assert b == rp.backoff(9, 2)


def test_retry_policy_should_retry_counts_attempts():
    rp = RetryPolicy(max_retries=2)
    assert rp.should_retry(0) and rp.should_retry(1) and not rp.should_retry(2)
    assert not RetryPolicy(max_retries=0).should_retry(0)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    # NaN fails every `x < 0` check, so each field rejects it explicitly
    for field in ("backoff_base", "backoff_factor", "timeout"):
        with pytest.raises(ValueError):
            RetryPolicy(**{field: math.nan})
    assert RetryPolicy(timeout=math.inf).timeout == math.inf


def test_sim_executor_rejects_nan_launch_overhead():
    with pytest.raises(ValueError):
        SimExecutor(launch_overhead=math.nan)


# --------------------------------------------------------- failure summary


def test_failure_summary_reconciles():
    s = FailureSummary()
    s.record_failure(1.0)
    s.record_retry(0.5)
    s.record_failure(2.0)
    s.record_drop("S1")
    assert s.reconciles()
    assert s.n_failures == 2 and s.n_retries == 1 and s.n_dropped == 1
    assert s.time_lost == pytest.approx(3.5)
    assert s.dropped_by_stage == {"S1": 1}


# ------------------------------------------- executor-level fault behaviour


def test_sim_executor_injects_failures_deterministically():
    fm = FaultModel(failure_rate=0.3, seed=2)

    def run_once():
        ex = SimExecutor(0.0, fault_model=fm)
        from repro.rct.task import TaskRecord

        states = []
        for uid in range(40):
            rec = TaskRecord(spec=TaskSpec(duration=1.0, uid=1000 + uid))
            ex.start(rec)
            states.append(ex.next_completion().state)
        return states

    first, second = run_once(), run_once()
    assert first == second
    assert TaskState.FAILED in first and TaskState.DONE in first


def test_sim_executor_timeout_cancels_hang():
    fm = FaultModel(hang_rate=1.0, seed=0)
    ex = SimExecutor(0.0, fault_model=fm)
    from repro.rct.task import TaskRecord

    rec = TaskRecord(spec=TaskSpec(duration=2.0))
    ex.start(rec, timeout=5.0)
    done = ex.next_completion()
    assert done.state is TaskState.FAILED and done.timed_out
    assert ex.now == pytest.approx(5.0)


def test_sim_executor_hang_without_timeout_raises():
    fm = FaultModel(hang_rate=1.0, seed=0)
    ex = SimExecutor(0.0, fault_model=fm)
    from repro.rct.task import TaskRecord

    ex.start(TaskRecord(spec=TaskSpec(duration=1.0)))
    with pytest.raises(RuntimeError, match="hung"):
        ex.next_completion()


def test_thread_executor_timeout_abandons_hung_task():
    import threading

    release = threading.Event()
    with ThreadExecutor(max_workers=1) as ex:
        from repro.rct.task import TaskRecord

        rec = TaskRecord(spec=TaskSpec(fn=release.wait))
        ex.start(rec, timeout=0.05)
        done = ex.next_completion()
        assert done.state is TaskState.FAILED and done.timed_out
        assert "timeout" in done.error
        release.set()  # let the abandoned thread finish


def test_thread_executor_shutdown_skips_abandoned_threads():
    """Regression: shutdown() must not block on a thread already
    abandoned at its timeout — the pilot context exit would otherwise
    hang for the full duration of the hung task."""
    import threading
    import time as _time

    from repro.rct.task import TaskRecord

    release = threading.Event()
    ex = ThreadExecutor(max_workers=1)
    ex.start(TaskRecord(spec=TaskSpec(fn=release.wait)), timeout=0.05)
    assert ex.next_completion().timed_out
    t0 = _time.monotonic()
    ex.shutdown()
    assert _time.monotonic() - t0 < 1.0
    release.set()  # let the abandoned thread drain


def test_executors_are_context_managers():
    with SimExecutor(0.0) as ex:
        assert ex.n_running == 0
    with ThreadExecutor(max_workers=1) as ex:
        from repro.rct.task import TaskRecord

        ex.start(TaskRecord(spec=TaskSpec(fn=lambda: 1)))
        assert ex.next_completion().result == 1


# --------------------------------------------------- pilot-level behaviour


def test_pilot_retries_until_success():
    fm = FaultModel(failure_rate=0.2, seed=3)
    pilot = _pilot(fault_model=fm, retry=RetryPolicy(max_retries=10, backoff_base=0.5, seed=3))
    records = pilot.run([TaskSpec(gpus=1, duration=1.0) for _ in range(60)])
    assert len(records) == 60
    assert all(r.state is TaskState.DONE for r in records)
    f = pilot.failures
    assert f.n_failures > 0 and f.n_dropped == 0 and f.reconciles()
    # the histogram counts one success per task
    assert sum(f.retry_histogram.values()) == 60


def test_pilot_backoff_charged_on_virtual_clock_and_tracker():
    fm = FaultModel(failure_rate=1.0, seed=4)  # every attempt fails
    pilot = _pilot(
        fault_model=fm,
        retry=RetryPolicy(max_retries=2, backoff_base=10.0, backoff_jitter=0.0, seed=4),
    )
    records = pilot.run([TaskSpec(gpus=1, duration=1.0, stage="S1")])
    (rec,) = records
    assert rec.state is TaskState.FAILED
    f = pilot.failures
    assert f.n_failures == 3 and f.n_retries == 2 and f.n_dropped == 1
    assert f.reconciles()
    # two exponential backoffs (10s, then 20s) were charged and tracked
    assert pilot.utilization.backoff_by_stage() == {"S1": pytest.approx(30.0)}
    assert pilot.executor.now >= 30.0


def test_pilot_fail_fast_raises_task_failed_error():
    fm = FaultModel(failure_rate=1.0, seed=1)
    pilot = _pilot(fault_model=fm, failure_policy="fail_fast")
    with pytest.raises(TaskFailedError) as exc_info:
        pilot.run([TaskSpec(gpus=1, duration=1.0) for _ in range(4)])
    assert exc_info.value.record is not None


def test_pilot_drop_and_continue_reports_every_drop():
    fm = FaultModel(failure_rate=1.0, seed=1)  # every attempt fails
    pilot = _pilot(fault_model=fm, failure_policy="drop_and_continue")
    records = pilot.run([TaskSpec(gpus=1, duration=1.0) for _ in range(10)])
    assert len(records) == 10
    assert all(r.state is TaskState.FAILED for r in records)
    assert pilot.failures.n_dropped == 10
    assert pilot.failures.reconciles()


def test_pilot_failure_budget_enforced():
    fm = FaultModel(failure_rate=1.0, seed=1)
    pilot = _pilot(fault_model=fm, failure_budget=3)
    with pytest.raises(TaskFailedError, match="budget"):
        pilot.run([TaskSpec(gpus=1, duration=1.0) for _ in range(10)])


def test_pilot_timeout_reaps_hung_tasks():
    fm = FaultModel(hang_rate=0.3, seed=6)
    pilot = _pilot(
        fault_model=fm,
        retry=RetryPolicy(max_retries=8, backoff_base=0.1, timeout=5.0, seed=6),
    )
    records = pilot.run([TaskSpec(gpus=1, duration=1.0) for _ in range(30)])
    assert all(r.state is TaskState.DONE for r in records)
    assert pilot.failures.n_timeouts > 0
    assert pilot.failures.reconciles()


def test_pilot_invalid_policy_rejected():
    with pytest.raises(ValueError, match="failure_policy"):
        _pilot(failure_policy="ignore")
    with pytest.raises(ValueError, match="failure_budget"):
        _pilot(failure_budget=-1)


def test_pilot_context_manager_shuts_down_thread_pool():
    cluster = Cluster(1, NodeSpec(cpus=2, gpus=0))
    with Pilot(cluster.allocate(1, 0.0), ThreadExecutor(max_workers=2)) as pilot:
        records = pilot.run([TaskSpec(cpus=1, fn=lambda i=i: i) for i in range(4)])
        assert sorted(r.result for r in records) == [0, 1, 2, 3]
    # pool is closed: submitting again must fail
    with pytest.raises(RuntimeError):
        pilot.executor._pool.submit(lambda: None)


def test_pilot_thread_backend_retries_real_exceptions():
    cluster = Cluster(1, NodeSpec(cpus=2, gpus=0))
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("transient")
        return "ok"

    with Pilot(
        cluster.allocate(1, 0.0),
        ThreadExecutor(max_workers=1),
        retry=RetryPolicy(max_retries=5, backoff_base=0.0),
    ) as pilot:
        records = pilot.run([TaskSpec(cpus=1, fn=flaky)])
    (rec,) = records
    assert rec.state is TaskState.DONE and rec.result == "ok"
    assert rec.attempt == 2
    assert pilot.failures.n_retries == 2 and pilot.failures.reconciles()


# ------------------------------------------------ the acceptance scenario


def test_thousand_task_pilot_at_five_percent_failures():
    """ISSUE acceptance: 5 % seeded failures + RetryPolicy(max_retries=3)
    → all 1000 tasks complete, ledger reconciles, makespan < 2× clean."""

    def run(fault_model):
        cluster = Cluster(50, NodeSpec(cpus=4, gpus=2))
        pilot = Pilot(
            cluster.allocate(50, 0.0),
            SimExecutor(0.1, fault_model=fault_model),
            retry=RetryPolicy(max_retries=3, backoff_base=0.5, seed=7),
        )
        records = pilot.run(
            [TaskSpec(gpus=1, duration=5.0, stage="S1") for _ in range(1000)]
        )
        return pilot, records

    clean_pilot, _ = run(None)
    pilot, records = run(FaultModel(failure_rate=0.05, seed=7))
    assert len(records) == 1000
    assert all(r.state is TaskState.DONE for r in records)
    f = pilot.failures
    assert f.n_failures > 20  # ~5 % of >1000 attempts actually injected
    assert f.n_failures == f.n_retries + f.n_dropped  # exact reconciliation
    assert pilot.executor.now < 2.0 * clean_pilot.executor.now


# -------------------------------------------------- AppManager propagation


def test_appmanager_retries_keep_stage_barrier_closed():
    # fault draws key on task uid: pin them, or whether 18 tasks at 15 %
    # fault at all depends on how many tasks earlier tests created
    reset_uid_counter()
    cluster = Cluster(4, NodeSpec(cpus=4, gpus=2))
    pilot = Pilot(
        cluster.allocate(4, 0.0),
        SimExecutor(0.0, fault_model=FaultModel(failure_rate=0.15, seed=9)),
        retry=RetryPolicy(max_retries=6, backoff_base=0.5, seed=9),
    )
    stages = [
        Stage(
            name=f"s{k}",
            tasks=[TaskSpec(gpus=1, duration=1.0, stage=f"s{k}") for _ in range(6)],
        )
        for k in range(3)
    ]
    out = AppManager(pilot).run([Pipeline(name="p", stages=stages)])
    recs = out["p"]
    assert len(recs) == 18
    assert all(r.state is TaskState.DONE for r in recs)
    assert pilot.failures.n_failures > 0  # retries actually happened
    for k in range(2):
        stage_end = max(r.end_time for r in recs if r.spec.stage == f"s{k}")
        next_start = min(r.start_time for r in recs if r.spec.stage == f"s{k + 1}")
        assert next_start >= stage_end - 1e-9


def test_appmanager_fail_fast_raises():
    cluster = Cluster(2, NodeSpec(cpus=4, gpus=2))
    pilot = Pilot(
        cluster.allocate(2, 0.0),
        SimExecutor(0.0, fault_model=FaultModel(failure_rate=1.0, seed=1)),
        failure_policy="fail_fast",
    )
    p = Pipeline(
        name="p", stages=[Stage(name="s", tasks=[TaskSpec(gpus=1, duration=1.0)])]
    )
    with pytest.raises(TaskFailedError):
        AppManager(pilot).run([p])


def test_appmanager_dropped_task_reported_never_silent():
    """A FAILED record must appear in the results (drop_and_continue) and
    be tallied — a failed task is never counted as plainly done."""
    cluster = Cluster(2, NodeSpec(cpus=4, gpus=2))
    pilot = Pilot(
        cluster.allocate(2, 0.0),
        SimExecutor(0.0, fault_model=FaultModel(failure_rate=1.0, seed=1)),
    )
    p = Pipeline(
        name="p",
        stages=[
            Stage(
                name="s",
                tasks=[TaskSpec(gpus=1, duration=1.0, stage="s") for _ in range(3)],
            )
        ],
    )
    out = AppManager(pilot).run([p])
    assert len(out["p"]) == 3
    assert all(r.state is TaskState.FAILED for r in out["p"])
    assert pilot.failures.n_dropped == 3
    assert pilot.failures.reconciles()
