"""Metrics registry: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


# ---------------------------------------------------------------- counter
def test_counter_accumulates():
    c = Counter("evals")
    c.inc()
    c.inc(4.5)
    assert c.value == 5.5
    assert c.snapshot() == {"kind": "counter", "value": 5.5}


def test_counter_rejects_negative():
    with pytest.raises(ValueError, match="gauge"):
        Counter("c").inc(-1)


# ------------------------------------------------------------------ gauge
def test_gauge_set_inc_dec():
    g = Gauge("slots")
    g.set(10)
    g.inc(2)
    assert g.value == 12
    assert g.snapshot()["kind"] == "gauge"


# -------------------------------------------------------------- histogram
def test_histogram_bucket_placement():
    h = Histogram("durs", boundaries=(1.0, 10.0))
    for v in (0.5, 1.0, 5.0, 100.0):
        h.observe(v)
    # (-inf,1.0): 0.5; [1.0,10.0): 1.0 and 5.0; overflow: 100.0
    assert h.counts == [1, 2, 1]
    assert h.count == 4
    assert h.sum == pytest.approx(106.5)
    assert h.min == 0.5 and h.max == 100.0


def test_histogram_rejects_unsorted_boundaries():
    with pytest.raises(ValueError, match="sorted"):
        Histogram("bad", boundaries=(5.0, 1.0))


def test_histogram_snapshot_shape():
    snap = Histogram("d").snapshot()
    assert snap["boundaries"] == list(DEFAULT_BUCKETS)
    assert len(snap["counts"]) == len(DEFAULT_BUCKETS) + 1
    assert snap["min"] is None and snap["max"] is None


# --------------------------------------------------------------- registry
def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.gauge("b") is reg.gauge("b")
    assert reg.histogram("c") is reg.histogram("c")
    assert len(reg) == 3
    assert "a" in reg and "zzz" not in reg


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("metric")
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("metric")


def test_registry_snapshot_sorted_by_name():
    reg = MetricsRegistry()
    reg.counter("zeta").inc()
    reg.gauge("alpha").set(1)
    assert list(reg.snapshot()) == ["alpha", "zeta"]


# ------------------------------------------------------------------- null
def test_null_registry_is_inert():
    reg = NullMetricsRegistry()
    inst = reg.counter("x")
    inst.inc()
    inst.observe(3.0)
    inst.set(9)
    assert reg.counter("x") is reg.histogram("y") is reg.gauge("z")
    assert reg.snapshot() == {}
    assert len(reg) == 0
    assert "x" not in reg
