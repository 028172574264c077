"""Backend conformance suite: every executor, one contract.

Parametrized over the three backends ``create_executor`` builds, each
held to the full protocol: start/next_completion/wait_until semantics,
failure capture, per-attempt timeout (cancel on the virtual clock,
abandon-and-reap on real pools), and context-manager cleanup.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.rct.backends import (
    ExecutorBackend,
    ProcessExecutor,
    SimExecutor,
    ThreadExecutor,
    create_executor,
)
from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.fault import FaultModel
from repro.rct.pilot import Pilot
from repro.rct.task import TaskRecord, TaskSpec, TaskState

_KWARGS = {
    "process": {"max_workers": 2},
    "sim": {"launch_overhead": 0.0},
    "thread": {"max_workers": 2},
}
BACKENDS = tuple(_KWARGS)


def _make_executor(name: str):
    return create_executor(name, **_KWARGS[name])


# module-level payloads: the process backend pickles them across the
# fork boundary, so lambdas/closures are not an option
def _double(x):
    return 2 * x


def _boom():
    raise RuntimeError("kaput")


def _sleep_return(seconds, value):
    time.sleep(seconds)
    return value


def _burn(n: int) -> int:
    """CPU-bound payload (pure-Python arithmetic — the GIL's worst case).

    The CI ``process-backend`` job times it on process vs thread pools.
    """
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return acc


def _task(name: str, **kwargs) -> TaskRecord:
    """A one-cpu task the named backend can execute."""
    if name == "sim":
        spec = TaskSpec(cpus=1, duration=kwargs.get("duration", 1.0))
    else:
        spec = TaskSpec(
            cpus=1,
            fn=kwargs.get("fn", _double),
            args=kwargs.get("args", (21,)),
        )
    return TaskRecord(spec=spec, state=TaskState.SCHEDULED)


# ----------------------------------------------------------- create_executor


def test_registry_exposes_builtin_backends():
    classes = {"process": ProcessExecutor, "sim": SimExecutor, "thread": ThreadExecutor}
    for name, cls in classes.items():
        with _make_executor(name) as ex:
            assert type(ex) is cls


def test_registry_rejects_unknown_backend():
    with pytest.raises(
        ValueError, match=r"unknown backend 'mainframe'.*'process', 'sim', 'thread'"
    ):
        create_executor("mainframe")


# ------------------------------------------------------------------ protocol


@pytest.mark.parametrize("name", BACKENDS)
def test_protocol_conformance(name):
    with _make_executor(name) as ex:
        assert isinstance(ex, ExecutorBackend)
        assert ex.n_running == 0
        t0 = ex.now
        # real payloads sleep briefly so the task is observably in flight
        record = (
            _task(name)
            if name == "sim"
            else _task(name, fn=_sleep_return, args=(0.3, 42))
        )
        ex.start(record)
        assert ex.n_running == 1
        done = ex.next_completion()
        assert done is record
        assert done.state is TaskState.DONE
        assert ex.n_running == 0
        assert done.start_time is not None and done.end_time is not None
        assert done.end_time >= done.start_time
        assert ex.now >= t0


@pytest.mark.parametrize("name", BACKENDS)
def test_real_backends_return_results(name):
    if name == "sim":
        pytest.skip("simulated tasks carry durations, not return values")
    with _make_executor(name) as ex:
        ex.start(_task(name, fn=_double, args=(21,)))
        assert ex.next_completion().result == 42


@pytest.mark.parametrize("name", BACKENDS)
def test_failure_is_captured_not_raised(name):
    """A failing attempt lands as a FAILED record, never an exception."""
    if name == "sim":
        ex = create_executor(
            "sim", launch_overhead=0.0, fault_model=FaultModel(failure_rate=1.0)
        )
    else:
        ex = _make_executor(name)
    with ex:
        ex.start(_task(name, fn=_boom, args=()))
        done = ex.next_completion()
        assert done.state is TaskState.FAILED
        assert done.error
        assert done.result is None
        assert ex.n_running == 0


@pytest.mark.parametrize("name", BACKENDS)
def test_timeout_cancels_or_abandons(name):
    """An attempt running past its timeout is reported failed at the
    deadline — cancelled on the virtual clock, abandoned on real pools —
    and the pilot-facing ledger (n_running) is settled immediately."""
    if name == "sim":
        ex = create_executor(
            "sim", launch_overhead=0.0, fault_model=FaultModel(hang_rate=1.0)
        )
        record = _task("sim", duration=1.0)
        timeout = 5.0
    else:
        ex = _make_executor(name)
        record = _task(name, fn=_sleep_return, args=(1.5, "late"))
        timeout = 0.2
    with ex:
        t0 = time.perf_counter()
        ex.start(record, timeout=timeout)
        done = ex.next_completion()
        assert done.state is TaskState.FAILED
        assert done.timed_out
        assert "timeout" in done.error
        assert done.result is None
        assert ex.n_running == 0
        if name != "sim":
            # delivered at the deadline, not after the payload drained
            assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("name", ["thread", "process"])
def test_abandoned_worker_accounting_settles(name):
    """Regression: a timed-out attempt whose payload later completes must
    drain the abandon ledger exactly once and never attach its late
    result to the already-published FAILED record."""
    with _make_executor(name) as ex:
        record = _task(name, fn=_sleep_return, args=(0.5, "late"))
        ex.start(record, timeout=0.1)
        done = ex.next_completion()
        assert done.timed_out and done.state is TaskState.FAILED
        assert ex.n_abandoned == 1
        deadline = time.perf_counter() + 5.0
        while ex.n_abandoned and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert ex.n_abandoned == 0  # late completion settled the ledger
        assert done.result is None  # late result was discarded
        assert done.state is TaskState.FAILED
        assert ex.n_running == 0


@pytest.mark.parametrize("name", ["thread", "process"])
def test_shutdown_does_not_wait_for_abandoned_work(name):
    """Shutdown with abandoned attempts must not block on dead work."""
    ex = _make_executor(name)
    ex.start(_task(name, fn=_sleep_return, args=(10.0, "hung")), timeout=0.1)
    done = ex.next_completion()
    assert done.timed_out
    t0 = time.perf_counter()
    ex.shutdown()
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("name", BACKENDS)
def test_context_manager_cleanup(name):
    ex = _make_executor(name)
    with ex:
        ex.start(_task(name))
        ex.next_completion()
    if name != "sim":
        # the pool is gone: new submissions must fail loudly
        with pytest.raises(RuntimeError):
            ex.start(_task(name))


@pytest.mark.parametrize("name", BACKENDS)
def test_wait_until_advances_the_clock(name):
    with _make_executor(name) as ex:
        target = ex.now + (5.0 if name == "sim" else 0.05)
        ex.wait_until(target)
        assert ex.now >= target


# --------------------------------------------------- backend-specific guards


def test_sim_wait_until_rejects_backwards_time():
    """Regression: virtual time is monotone; a stale (past) target must
    fail loudly instead of silently rewinding the clock."""
    ex = SimExecutor(launch_overhead=0.0)
    ex.start(TaskRecord(spec=TaskSpec(duration=5.0), state=TaskState.SCHEDULED))
    ex.next_completion()
    assert ex.now == 5.0
    with pytest.raises(ValueError, match="in the past"):
        ex.wait_until(2.0)
    assert ex.now == 5.0  # clock untouched by the rejected call


def test_sim_now_setter_rejects_backwards_time():
    ex = SimExecutor(launch_overhead=0.0)
    ex.now = 10.0
    with pytest.raises(ValueError, match="backwards"):
        ex.now = 9.0
    assert ex.now == 10.0


def test_pool_wait_until_past_target_is_noop():
    """Real clocks cannot rewind; a past target returns immediately."""
    with ThreadExecutor(max_workers=1) as ex:
        t0 = time.perf_counter()
        ex.wait_until(ex.now - 100.0)
        assert time.perf_counter() - t0 < 1.0


def test_process_backend_reports_unpicklable_payload():
    """A lambda payload cannot cross the process boundary; the failure
    must surface as a FAILED record, not a hang or an unhandled crash."""
    with ProcessExecutor(max_workers=1) as ex:
        record = TaskRecord(
            spec=TaskSpec(cpus=1, fn=lambda: 1), state=TaskState.SCHEDULED
        )
        ex.start(record)
        done = ex.next_completion()
        assert done.state is TaskState.FAILED
        assert done.error


#: what ``_install_state`` left in this process (empty in the parent)
_WORKER_STATE: dict = {}


def _install_state(value):
    _WORKER_STATE["value"] = value
    _WORKER_STATE["inits"] = _WORKER_STATE.get("inits", 0) + 1


def _read_state(_):
    time.sleep(0.05)  # long enough that both workers take tasks
    return os.getpid(), _WORKER_STATE["value"], _WORKER_STATE["inits"]


def _failing_init():
    raise RuntimeError("cannot load")


def test_process_initializer_runs_once_per_worker():
    """Resident workers: the initializer's state is installed once per
    worker process and every task that worker runs sees it."""
    with ProcessExecutor(
        max_workers=2, initializer=_install_state, initargs=("grid",)
    ) as ex:
        for i in range(8):
            ex.start(_task("process", fn=_read_state, args=(i,)))
        results = [ex.next_completion().result for _ in range(8)]
    pids = {pid for pid, _, _ in results}
    assert 1 <= len(pids) <= 2
    assert all(value == "grid" and inits == 1 for _, value, inits in results)
    assert _WORKER_STATE == {}  # the parent never ran the initializer


def test_process_initializer_failure_fails_tasks_instead_of_hanging():
    """A raising initializer breaks the pool: attempts in flight come back
    as FAILED records, and a later submission raises — neither hangs."""
    with ProcessExecutor(max_workers=2, initializer=_failing_init) as ex:
        ex.start(_task("process"))
        done = ex.next_completion()
        assert done.state is TaskState.FAILED
        assert done.error.startswith("BrokenProcessPool")
        assert ex.n_running == 0
        with pytest.raises(BrokenProcessPool):
            ex.start(_task("process"))
        assert ex.n_running == 0


def test_broken_pool_submit_releases_its_placement():
    """A start that raises (here: submitting to a broken pool) must give
    back the slots it was placed on, or the idle node reads as full."""
    executor = ProcessExecutor(max_workers=2, initializer=_failing_init)
    allocation = Cluster(1, NodeSpec(cpus=2, gpus=0)).allocate(1, 0.0)
    with Pilot(allocation, executor) as pilot:
        assert pilot.start_task(TaskSpec(cpus=1, fn=_double, args=(1,)))
        assert pilot.wait_one().state is TaskState.FAILED  # the pool broke
        task = TaskSpec(cpus=2, fn=_double, args=(2,))
        with pytest.raises(BrokenProcessPool):
            pilot.start_task(task)
        assert task.uid not in pilot._placements
        assert pilot.fits_now(2, 0, 1)
