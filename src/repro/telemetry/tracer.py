"""Span-based tracing over real and simulated clocks.

One tracer API serves every execution mode in the stack:

* **context-manager spans** (``with tracer.span(...)``) for straight-line
  code — campaign stage boundaries, docking kernel phases, per-op
  execution in the graph engine;
* **manual spans** (``tracer.start_span`` … ``span.finish``) for
  event-driven code like the pilot's scheduling loop, where a task's
  start and end are observed in different calls;
* **pre-timed spans** (``tracer.record_span``) for discrete-event
  simulations that already computed both endpoints on their virtual
  clock (RAPTOR's event loop).

The clock-duality contract: a span's timestamps come either from the
tracer's injected clock (any object with a ``now() -> float`` method —
:class:`~repro.util.timer.WallClock`, :class:`TickClock`, or
:class:`ExecutorClock` wrapping an executor's virtual ``now``) or from
explicit ``start``/``end`` arguments.  Code that only ever passes
explicit executor times is therefore *identical* under simulation and
real execution, and a simulated run's trace is a pure function of seed
and config: every span id and sequence number comes from a counter, and
no wall-clock value leaks in.  Same seed ⇒ byte-identical exports.

Disabled instrumentation is one branch: :data:`NULL_TRACER` exposes
``enabled = False`` and no-ops every method, so hot loops guard with
``if tracer.enabled:`` (or just pay one no-op context manager).
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.util.timer import WallClock

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TickClock",
    "ExecutorClock",
]


class TickClock:
    """Deterministic logical clock: each ``now()`` advances a fixed tick.

    Substituting this for :class:`~repro.util.timer.WallClock` makes a
    real (computed, not simulated) code path emit reproducible span
    times — the number of clock reads is a pure function of control
    flow, which is itself seeded.  The traced demo campaign and the
    determinism tests run on it.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.001) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self._t = start
        self.tick = tick

    def now(self) -> float:
        """Advance one tick and return the new time."""
        self._t += self.tick
        return self._t


class ExecutorClock:
    """Adapter presenting an executor's ``now`` attribute as a clock."""

    def __init__(self, executor) -> None:
        self._executor = executor

    def now(self) -> float:
        """The executor's current (virtual or wall) time."""
        return self._executor.now


class Span:
    """One traced interval: name, category, times, attributes, events.

    ``status`` is ``"ok"`` until :meth:`set_error` flips it; ``events``
    are point-in-time annotations inside the span.  ``seq_start`` /
    ``seq_end`` are tracer-global monotonic sequence numbers assigned at
    creation and finish — they preserve *program order* (which clock
    ties cannot), letting trace consumers reconstruct insertion-ordered
    event streams exactly (see ``UtilizationTracker.from_trace``).
    """

    __slots__ = (
        "name",
        "category",
        "start",
        "end",
        "attrs",
        "events",
        "status",
        "error",
        "span_id",
        "parent_id",
        "seq_start",
        "seq_end",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        start: float,
        attrs: dict | None,
        span_id: int,
        parent_id: int | None,
        seq_start: int,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.end: float | None = None
        self.attrs = dict(attrs) if attrs else {}
        self.events: list[tuple[float, str, dict]] = []
        self.status = "ok"
        self.error: str | None = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq_start = seq_start
        self.seq_end: int | None = None

    @property
    def duration(self) -> float:
        """Span length in clock seconds (0 while unfinished)."""
        return 0.0 if self.end is None else self.end - self.start

    def set_attr(self, key: str, value) -> None:
        """Attach/overwrite one attribute."""
        self.attrs[key] = value

    def add_event(self, name: str, time: float | None = None, **attrs) -> None:
        """Record a point-in-time event inside the span."""
        if time is None:
            time = self._tracer._now()
        self.events.append((time, name, attrs))

    def set_error(self, message: str) -> None:
        """Mark the span failed; exporters surface status + message."""
        self.status = "error"
        self.error = message

    def finish(self, end: float | None = None) -> None:
        """Close the span (idempotent); ``end`` defaults to the clock."""
        if self.end is not None:
            return
        self._tracer._finish(self, end)

    # ------------------------------------------------- context manager
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None and self.status == "ok":
            self.set_error(f"{exc_type.__name__}: {exc}")
        self._tracer._exit_span(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, start={self.start}, "
            f"end={self.end}, status={self.status!r})"
        )


class Tracer:
    """Collects spans and metrics over one injected clock.

    Thread-safe: the thread-pool backends record spans concurrently, so
    id/sequence allocation and the finished list are lock-protected, and
    the context-manager nesting stack is thread-local (a span's parent
    is whatever span the *same thread* currently has open).
    """

    enabled = True

    def __init__(
        self,
        clock=None,
        metrics: MetricsRegistry | None = None,
        log_spans: bool = False,
    ) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.finished: list[Span] = []
        self._active: dict[int, Span] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._next_seq = 0
        self._local = threading.local()
        self._log = None
        if log_spans:
            from repro.util.log import get_logger

            self._log = get_logger("telemetry")

    # ------------------------------------------------------- internals
    def _now(self) -> float:
        return self.clock.now()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(
        self,
        name: str,
        category: str,
        attrs: dict | None,
        start: float | None,
        parent: Span | None,
    ) -> Span:
        if start is None:
            start = self._now()
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            seq = self._next_seq
            self._next_seq += 1
            span = Span(
                self,
                name,
                category,
                start,
                attrs,
                span_id,
                parent.span_id if parent is not None else None,
                seq,
            )
            self._active[span_id] = span
        if self._log is not None:
            self._log.debug("span enter %s/%s @ %.6f", category, name, start)
        return span

    def _finish(self, span: Span, end: float | None) -> None:
        if end is None:
            end = self._now()
        with self._lock:
            span.end = end
            span.seq_end = self._next_seq
            self._next_seq += 1
            self._active.pop(span.span_id, None)
            self.finished.append(span)
        if self._log is not None:
            self._log.debug(
                "span exit %s/%s @ %.6f (%s)",
                span.category,
                span.name,
                end,
                span.status,
            )

    def _exit_span(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        span.finish()

    # ------------------------------------------------------ public API
    def span(
        self, name: str, category: str = "", attrs: dict | None = None, **kw
    ) -> Span:
        """Open a nested span for use as a context manager.

        The span starts now, becomes the current thread's innermost
        parent, and closes (recording error status if an exception flew)
        on ``__exit__``.  Keyword arguments merge into ``attrs``.
        """
        if kw:
            attrs = {**(attrs or {}), **kw}
        span = self._open(name, category, attrs, None, None)
        self._stack().append(span)
        return span

    def start_span(
        self,
        name: str,
        category: str = "",
        attrs: dict | None = None,
        start: float | None = None,
        **kw,
    ) -> Span:
        """Open a *manual* span for event-driven code.

        Unlike :meth:`span` it does not join the nesting stack (its
        parent is the caller's current span, but it will not become
        anyone else's parent); the caller closes it with
        :meth:`Span.finish`, optionally passing an explicit ``end``.
        """
        if kw:
            attrs = {**(attrs or {}), **kw}
        return self._open(name, category, attrs, start, None)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        attrs: dict | None = None,
        status: str = "ok",
        error: str | None = None,
    ) -> Span:
        """Record an already-timed span (discrete-event simulations)."""
        span = self._open(name, category, attrs, start, None)
        if status != "ok":
            span.set_error(error or status)
        self._finish(span, end)
        return span

    # ------------------------------------------------------- inspection
    def active_spans(self) -> list[Span]:
        """Open (unfinished) spans, in creation order."""
        with self._lock:
            return sorted(self._active.values(), key=lambda s: s.seq_start)

    def spans(self, category: str | None = None) -> Iterator[Span]:
        """Finished spans in (start, program-order) timeline order."""
        with self._lock:
            snapshot = list(self.finished)
        for span in sorted(snapshot, key=lambda s: (s.start, s.seq_start)):
            if category is None or span.category == category:
                yield span


class _NullSpan:
    """Inert span: every method is a no-op; shared singleton."""

    __slots__ = ()
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    attrs: dict = {}
    events: list = []
    status = "ok"
    error = None
    duration = 0.0

    def set_attr(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, time: float | None = None, **attrs) -> None:
        pass

    def set_error(self, message: str) -> None:
        pass

    def finish(self, end: float | None = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``enabled`` is False and every call no-ops.

    Hot paths pay exactly one attribute check (``if tracer.enabled:``)
    or one no-op context manager — nothing is allocated, timed or
    stored.  Use the module-level :data:`NULL_TRACER` singleton.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()
        self.finished: list[Span] = []

    def span(self, name: str, category: str = "", attrs=None, **kw) -> _NullSpan:
        return _NULL_SPAN

    def start_span(
        self, name: str, category: str = "", attrs=None, start=None, **kw
    ) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self, name, start, end, category="", attrs=None, status="ok", error=None
    ) -> _NullSpan:
        return _NULL_SPAN

    def active_spans(self) -> list:
        return []

    def spans(self, category: str | None = None) -> Iterator[Span]:
        return iter(())


NULL_TRACER = NullTracer()
