"""Tests for the RAPTOR master/worker overlay."""

import math

import numpy as np
import pytest

from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.raptor import RaptorConfig, simulate_raptor
from repro.util.rng import rng_stream


def _durations(n=2000, seed=0):
    # lognormal: the long-tailed docking-time distribution of §6.1.2
    return rng_stream(seed, "t/raptor").lognormal(
        mean=np.log(0.2), sigma=0.8, size=n
    )


def test_all_items_complete_and_work_conserved():
    d = _durations(500)
    res = simulate_raptor(d, RaptorConfig(n_workers=20, bulk_size=8))
    assert res.n_items == 500
    assert res.worker_busy.sum() == pytest.approx(d.sum())


def test_makespan_bounded_below_by_ideal():
    d = _durations(1000)
    cfg = RaptorConfig(n_workers=50, bulk_size=16)
    res = simulate_raptor(d, cfg)
    ideal = d.sum() / 50
    assert res.makespan >= ideal
    assert res.makespan < 3.0 * ideal  # load balancing keeps it close


def test_more_workers_faster():
    d = _durations(4000)
    slow = simulate_raptor(d, RaptorConfig(n_workers=20, n_masters=1, bulk_size=32))
    fast = simulate_raptor(d, RaptorConfig(n_workers=80, n_masters=2, bulk_size=32))
    assert fast.makespan < slow.makespan


def test_single_master_saturates_at_scale():
    """The bottleneck multiple masters exist to avoid (§6.1.2)."""
    d = _durations(20_000)
    one = simulate_raptor(
        d, RaptorConfig(n_workers=600, n_masters=1, bulk_size=32, dispatch_overhead=0.05)
    )
    many = simulate_raptor(
        d, RaptorConfig(n_workers=600, n_masters=8, bulk_size=32, dispatch_overhead=0.05)
    )
    assert many.makespan < 0.7 * one.makespan
    assert many.worker_utilization > one.worker_utilization


def test_bulking_amortizes_dispatch_overhead():
    d = _durations(5000)
    tiny_bulks = simulate_raptor(
        d, RaptorConfig(n_workers=100, n_masters=1, bulk_size=1, dispatch_overhead=0.05)
    )
    big_bulks = simulate_raptor(
        d, RaptorConfig(n_workers=100, n_masters=1, bulk_size=64, dispatch_overhead=0.05)
    )
    assert big_bulks.makespan < tiny_bulks.makespan


def test_near_linear_scaling_with_scaled_masters():
    """Paper claim: near-linear scaling to thousands of nodes when
    masters scale with workers."""
    throughputs = {}
    for workers in (128, 512, 2048):
        d = _durations(n=workers * 40, seed=workers)
        cfg = RaptorConfig(
            n_workers=workers,
            n_masters=max(1, workers // 128),
            bulk_size=32,
            dispatch_overhead=0.05,
        )
        throughputs[workers] = simulate_raptor(d, cfg).throughput
    speedup = throughputs[2048] / throughputs[128]
    assert speedup > 0.75 * (2048 / 128)


def test_dynamic_balancing_absorbs_skewed_masters():
    """All long tasks dealt to one master: stealing keeps utilization up."""
    # round-robin dealing sends every 4th item to each master; make one
    # master's share pathologically heavy
    d = np.full(4000, 0.05)
    d[0::4] = 2.0  # master 0's items are 40× longer
    res = simulate_raptor(
        d, RaptorConfig(n_workers=40, n_masters=4, bulk_size=8, dispatch_overhead=0.01)
    )
    ideal = d.sum() / 40
    assert res.makespan < 2.0 * ideal


def test_validation():
    with pytest.raises(ValueError):
        simulate_raptor([], RaptorConfig(n_workers=4))
    with pytest.raises(ValueError):
        simulate_raptor([-1.0], RaptorConfig(n_workers=1))
    with pytest.raises(ValueError):
        RaptorConfig(n_workers=0)
    with pytest.raises(ValueError):
        RaptorConfig(n_workers=2, n_masters=4)
    with pytest.raises(ValueError):
        RaptorConfig(n_workers=2, dispatch_overhead=-1)
    with pytest.raises(ValueError):
        simulate_raptor([1.0, math.nan, 2.0], RaptorConfig(n_workers=2, bulk_size=1))
    with pytest.raises(ValueError):
        RaptorConfig(n_workers=2, dispatch_overhead=math.nan)


def test_simulate_raptor_injected_failures_retry_and_reconcile():
    d = np.full(2000, 0.2)
    cfg = RaptorConfig(n_workers=20, bulk_size=8)
    clean = simulate_raptor(d, cfg)
    res = simulate_raptor(
        d,
        cfg,
        fault_model=FaultModel(failure_rate=0.05, seed=2),
        retry=RetryPolicy(max_retries=3, backoff_base=0.1, seed=2),
    )
    s = res.failure_summary
    assert s.n_failures > 50  # ~5 % of 2000+ attempts
    assert s.n_failures == s.n_retries + s.n_dropped
    assert res.n_failed == s.n_dropped
    # failed attempts burn partial work, so busy exceeds the clean total
    assert res.worker_busy.sum() > clean.worker_busy.sum()
    assert res.makespan < 2.0 * clean.makespan


def test_simulate_raptor_drops_reported_when_retries_disabled():
    d = np.full(100, 0.5)
    res = simulate_raptor(
        d,
        RaptorConfig(n_workers=4, bulk_size=8),
        fault_model=FaultModel(failure_rate=1.0, seed=0),
    )
    assert res.n_failed == 100
    assert res.failed_indices == list(range(100))
    assert res.failure_summary.n_dropped == 100
    assert res.failure_summary.reconciles()


def test_simulate_raptor_hang_needs_timeout():
    with pytest.raises(ValueError, match="timeout"):
        simulate_raptor(
            [1.0],
            RaptorConfig(n_workers=1),
            fault_model=FaultModel(hang_rate=0.5, seed=0),
        )
    res = simulate_raptor(
        np.full(50, 1.0),
        RaptorConfig(n_workers=4, bulk_size=4),
        fault_model=FaultModel(hang_rate=0.3, seed=1),
        retry=RetryPolicy(max_retries=10, backoff_base=0.1, timeout=3.0, seed=1),
    )
    assert res.n_failed == 0
    assert res.failure_summary.n_timeouts > 0
    assert res.failure_summary.reconciles()


def test_simulate_raptor_stealing_charges_donor_and_conserves_busy():
    """Work-stealing accounting: stolen bulks charge dispatch to the
    donor master, and per-worker busy time conserves total work."""
    # master 1's items are 100× longer: master 0's workers finish their
    # own queue and must steal from master 1
    d = np.full(400, 0.01)
    d[1::2] = 1.0
    cfg = RaptorConfig(
        n_workers=8, n_masters=2, bulk_size=4, dispatch_overhead=0.05
    )
    res = simulate_raptor(d, cfg)
    # busy time is conserved exactly (no faults)
    assert res.worker_busy.sum() == pytest.approx(d.sum())
    # every dispatch charged 0.05s to some master; total dispatches =
    # total bulks, regardless of who executed them
    n_bulks_served = res.master_busy.sum() / cfg.dispatch_overhead
    assert n_bulks_served == pytest.approx(np.ceil(200 / 4) * 2)
    # dispatch is charged to the queue's owner even for stolen bulks, so
    # each master is charged exactly its own 50 bulks — the heavy master
    # is NOT under-charged just because light-side workers executed its
    # items
    assert res.master_busy[0] == pytest.approx(50 * cfg.dispatch_overhead)
    assert res.master_busy[1] == pytest.approx(50 * cfg.dispatch_overhead)
    # and the stealing really happened: master 0's workers (even slots)
    # executed far more than their own queue's 2s of work
    assert res.worker_busy[0::2].sum() > 10.0


