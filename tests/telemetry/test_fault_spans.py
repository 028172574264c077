"""Failure spans reconcile exactly with the FailureSummary ledger."""

import numpy as np
import pytest

from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.backends import SimExecutor
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.pilot import Pilot
from repro.rct.raptor import RaptorConfig, simulate_raptor
from repro.rct.task import TaskSpec
from repro.telemetry import Tracer
from repro.util.rng import rng_stream


def _pilot(fault_model=None, retry=None, tracer=None, n_nodes=4):
    cluster = Cluster(n_nodes, NodeSpec(cpus=4, gpus=2))
    return Pilot(
        cluster.allocate(n_nodes, 0.0),
        SimExecutor(0.0, fault_model=fault_model),
        retry=retry,
        tracer=tracer,
    )


# ------------------------------------------------------------------ raptor
def test_raptor_error_spans_match_failure_summary():
    tracer = Tracer()
    durations = rng_stream(7, "fault-spans").uniform(1.0, 4.0, size=40)
    result = simulate_raptor(
        durations,
        RaptorConfig(n_workers=4, bulk_size=8),
        fault_model=FaultModel(failure_rate=0.3, seed=7),
        retry=RetryPolicy(max_retries=2, backoff_base=1.0, seed=7),
        tracer=tracer,
    )
    summary = result.failure_summary
    assert summary.n_failures > 0
    assert summary.reconciles()  # failures == retries + drops

    execs = list(tracer.spans(category="raptor.exec"))
    errors = [s for s in execs if s.status == "error"]
    assert len(errors) == summary.n_failures
    assert sum(1 for s in errors if s.attrs.get("retried")) == summary.n_retries
    assert sum(1 for s in errors if s.attrs.get("dropped")) == summary.n_dropped
    # the span ledger's own invariant: every error span retried xor dropped
    assert all(
        bool(s.attrs.get("retried")) != bool(s.attrs.get("dropped"))
        for s in errors
    )
    # permanently failed items agree with the result's drop list
    dropped_items = {s.attrs["item"] for s in errors if s.attrs.get("dropped")}
    assert dropped_items == set(result.failed_indices)


def test_raptor_backoff_spans_sum_to_ledger_backoff_time():
    tracer = Tracer()
    durations = rng_stream(9, "fault-spans-backoff").uniform(1.0, 3.0, size=30)
    result = simulate_raptor(
        durations,
        RaptorConfig(n_workers=3, bulk_size=8),
        fault_model=FaultModel(failure_rate=0.4, seed=9),
        retry=RetryPolicy(max_retries=3, backoff_base=2.0, seed=9),
        tracer=tracer,
    )
    summary = result.failure_summary
    backoffs = list(tracer.spans(category="raptor.backoff"))
    assert len(backoffs) == summary.n_retries
    # the exact policy-drawn seconds attr avoids float round-off
    total = sum(s.attrs["seconds"] for s in backoffs)
    assert total == pytest.approx(summary.time_lost_backoff)
    # span geometry matches: end - start == seconds
    for s in backoffs:
        assert s.end - s.start == pytest.approx(s.attrs["seconds"])


# ------------------------------------------------------------------- pilot
def test_pilot_error_spans_match_failure_summary():
    tracer = Tracer()
    pilot = _pilot(
        fault_model=FaultModel(failure_rate=0.3, seed=5),
        retry=RetryPolicy(max_retries=2, backoff_base=1.0, seed=5),
        tracer=tracer,
    )
    pilot.run([TaskSpec(gpus=1, duration=1.0, stage="S1") for _ in range(40)])
    summary = pilot.failures
    assert summary.n_failures > 0
    assert summary.reconciles()

    tasks = list(tracer.spans(category="pilot.task"))
    errors = [s for s in tasks if s.status == "error"]
    assert len(errors) == summary.n_failures
    assert sum(1 for s in errors if s.attrs.get("retried")) == summary.n_retries
    assert sum(1 for s in errors if s.attrs.get("dropped")) == summary.n_dropped

    backoffs = list(tracer.spans(category="pilot.backoff"))
    assert len(backoffs) == summary.n_retries
    total = sum(s.attrs["seconds"] for s in backoffs)
    assert total == pytest.approx(summary.time_lost_backoff)


def _levels_at_distinct_times(series):
    """Busy level after all deltas at each distinct timestamp.

    ``series()`` emits one sample per event, so arrays from two trackers
    fed the same events in different program order can permute within a
    timestamp tie; the settled level per timestamp is order-free.
    """
    out = {}
    for t, level in zip(series.times, series.busy_gpus):
        out[float(t)] = float(level)
    return out


def test_pilot_utilization_from_trace_matches_inline_recording():
    """Fig 7 rebuilt from the trace == the tracker fed the task records."""
    from repro.rct.utilization import UtilizationTracker

    tracer = Tracer()
    pilot = _pilot(
        fault_model=FaultModel(failure_rate=0.3, seed=11),
        retry=RetryPolicy(max_retries=2, backoff_base=1.0, seed=11),
        tracer=tracer,
    )
    records = pilot.run(
        [TaskSpec(gpus=1, duration=2.0, stage="S1") for _ in range(20)]
        + [TaskSpec(gpus=2, duration=1.0, stage="S3-CG") for _ in range(10)]
    )
    assert len(records) == 30
    assert pilot.failures.n_failures > 0  # trace includes failed attempts

    rebuilt = pilot.utilization

    # the same view built straight from every attempt record
    events = []
    for rec in pilot.records:
        spec = rec.spec
        events.append((rec.start_time, spec.gpus, spec.cpus, spec.stage))
        events.append((rec.end_time, -spec.gpus, -spec.cpus, spec.stage))
    manual = UtilizationTracker(
        total_gpus=rebuilt.total_gpus, total_cpus=rebuilt.total_cpus, _events=events
    )

    series = rebuilt.series()
    manual_series = manual.series()
    assert len(rebuilt._events) == len(events)
    np.testing.assert_allclose(
        np.sort(series.times), np.sort(manual_series.times)
    )
    assert _levels_at_distinct_times(series) == _levels_at_distinct_times(
        manual_series
    )
    assert set(series.per_stage) == set(manual_series.per_stage)
    assert series.average_utilization() == pytest.approx(
        manual_series.average_utilization()
    )
    # backoff side of the view reconciles against the failure ledger
    assert sum(rebuilt.backoff_by_stage().values()) == pytest.approx(
        pilot.failures.time_lost_backoff
    )
