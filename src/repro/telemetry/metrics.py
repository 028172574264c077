"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry replaces the scattered tallies that used to live in ad-hoc
attributes (`DockingEngine.total_evals`, per-stage dicts in
``repro.core.metrics``): instrumented components get-or-create named
instruments on their tracer's registry, and :meth:`MetricsRegistry.snapshot`
renders everything into one deterministic, JSON-ready dict that the
exporters embed alongside the span timeline.

Histograms use *fixed* bucket boundaries chosen at creation, so two runs
that observe the same values produce identical snapshots — no dynamic
rebucketing, no float drift.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
]


class Counter:
    """Monotonically increasing tally."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (resource levels, config echoes)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


# Default boundaries suit span durations in seconds across both clocks:
# sub-millisecond kernel phases up through multi-minute campaign stages.
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
    600.0,
)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` are upper-inclusive-exclusive edges: an observation
    lands in the first bucket whose boundary is strictly greater than
    it; values past the last boundary land in the overflow bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, boundaries=DEFAULT_BUCKETS) -> None:
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create store of named instruments.

    Re-requesting a name returns the existing instrument; requesting it
    as a different kind raises, catching cross-component name clashes.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind: str):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            elif inst.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"requested as {kind}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str, boundaries=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda: Histogram(name, boundaries), "histogram")

    def snapshot(self) -> dict:
        """All instruments, keyed and ordered by name (deterministic)."""
        with self._lock:
            return {
                name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)
            }

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: every instrument is the shared no-op."""

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, boundaries=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False
