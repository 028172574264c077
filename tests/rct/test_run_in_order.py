"""The ordered task stream every worker stage runs through.

``run_in_order`` over a real ``resident_pilot`` at 1 and 2 workers: jobs
whose sleeps shorten with the job index finish out of order on two
workers, yet come back in job order, with at most 2 × workers jobs
placed but not yet handed back.  The job functions live at module level
because the process backend pickles them by reference.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.rct import pilot as pilot_module
from repro.rct.fault import TaskFailedError
from repro.rct.pilot import resident_pilot, run_in_order
from repro.rct.task import TaskState

#: job 0 outlasts all the others together, so the window fills behind it
SLEEPS = (0.8, 0.1, 0.08, 0.06, 0.04, 0.02)


def _no_state() -> None:
    """Worker initializer: nothing to install."""


def _nap(k: int, seconds: float) -> int:
    time.sleep(seconds)
    return k


def _nap_or_raise(k: int, seconds: float) -> int:
    if k == 2:
        raise ValueError(f"job {k} is bad")
    return _nap(k, seconds)


def _nap_or_die(k: int, seconds: float) -> int:
    if k == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return _nap(k, seconds)


def _jobs(sleeps=SLEEPS) -> list[tuple[str, tuple]]:
    return [(f"nap/{k}", (k, s)) for k, s in enumerate(sleeps)]


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def pilots(monkeypatch):
    """A ``resident_pilot`` factory at a set worker count; every pilot
    it built is shut down and its workers reaped after the test."""
    before = _children()
    built = []

    def at(workers: int):
        monkeypatch.setattr(pilot_module, "_worker_count", lambda: workers)

        def factory():
            built.append(resident_pilot(_no_state, ()))
            return built[-1]

        return factory

    yield at
    for pilot in built:
        pilot.shutdown()
    assert _children() <= before


@pytest.mark.parametrize("workers", [1, 2])
def test_yields_in_job_order_within_the_window(pilots, workers):
    factory = pilots(workers)
    placed = 0
    open_max = 0

    def counting():
        pilot = factory()
        start_task = pilot.start_task

        def start(task, attempt=0):
            nonlocal placed
            started = start_task(task, attempt)
            placed += started
            return started

        pilot.start_task = start
        return pilot

    records = []
    for record in run_in_order("NAP", _nap, _jobs(), counting):
        open_max = max(open_max, placed - len(records))
        records.append(record)
    assert [r.spec.uid for r in records] == list(range(len(SLEEPS)))
    assert [r.spec.name for r in records] == [name for name, _ in _jobs()]
    assert [r.result for r in records] == list(range(len(SLEEPS)))
    assert all(r.state is TaskState.DONE and r.spec.stage == "NAP" for r in records)
    assert open_max <= 2 * workers
    if workers == 2:
        # jobs 1-3 finished behind job 0 and job 4 waited for the window
        assert open_max == 4


def test_the_factory_runs_at_the_first_job(pilots):
    factory = pilots(1)
    calls = []

    def counted():
        calls.append(1)
        return factory()

    assert list(run_in_order("NAP", _nap, [], counted)) == []
    stream = run_in_order("NAP", _nap, _jobs((0.0,)), counted)
    assert calls == []
    assert next(stream).result == 0
    assert calls == [1]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_task_failure_is_a_failed_record(pilots, workers):
    records = list(run_in_order("NAP", _nap_or_raise, _jobs(SLEEPS[1:]), pilots(workers)))
    assert [r.state for r in records] == [TaskState.DONE] * 2 + [TaskState.FAILED] + [
        TaskState.DONE
    ] * 2
    assert records[2].error == "ValueError: job 2 is bad"
    assert [r.result for r in records if r.state is TaskState.DONE] == [0, 1, 3, 4]


def test_a_dead_worker_raises_naming_the_stage(pilots):
    stream = run_in_order("NAP", _nap_or_die, _jobs(SLEEPS[1:]), pilots(1))
    assert [next(stream).result, next(stream).result] == [0, 1]
    with pytest.raises(TaskFailedError, match="^NAP: a worker process died: "):
        next(stream)
