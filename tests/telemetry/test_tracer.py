"""Tracer core: clocks, three span APIs, nesting, error capture."""

import logging

import pytest

from repro.telemetry import (
    NULL_TRACER,
    ExecutorClock,
    TickClock,
    Tracer,
)


def make_tracer() -> Tracer:
    return Tracer(clock=TickClock())


# ----------------------------------------------------------------- clocks
def test_tick_clock_advances_one_tick_per_read():
    clock = TickClock(start=1.0, tick=0.5)
    assert clock.now() == 1.5
    assert clock.now() == 2.0


def test_tick_clock_rejects_nonpositive_tick():
    with pytest.raises(ValueError, match="tick"):
        TickClock(tick=0.0)


def test_executor_clock_reads_executor_now():
    class FakeExecutor:
        now = 42.5

    assert ExecutorClock(FakeExecutor()).now() == 42.5


# ------------------------------------------------------- context managers
def test_span_cm_records_times_and_category():
    tracer = make_tracer()
    with tracer.span("work", category="unit", shard=3):
        pass
    (span,) = tracer.finished
    assert span.name == "work"
    assert span.category == "unit"
    assert span.attrs == {"shard": 3}
    assert span.end > span.start
    assert span.status == "ok"
    assert span.duration == pytest.approx(span.end - span.start)


def test_span_cm_nesting_sets_parent_edges():
    tracer = make_tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with tracer.span("sibling") as sibling:
            assert sibling.parent_id == outer.span_id
    assert outer.parent_id is None
    # after exiting, new spans are top-level again
    with tracer.span("later") as later:
        assert later.parent_id is None


def test_span_cm_captures_exception_as_error_status():
    tracer = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("kaput")
    (span,) = tracer.finished
    assert span.status == "error"
    assert span.error == "RuntimeError: kaput"
    assert span.end is not None  # closed despite the exception


# ------------------------------------------------------------ manual spans
def test_start_span_takes_explicit_times_and_does_not_parent():
    tracer = make_tracer()
    manual = tracer.start_span("task", category="pilot", start=10.0, uid=7)
    with tracer.span("other") as other:
        assert other.parent_id is None  # manual spans never join the stack
    manual.finish(end=12.5)
    assert manual.start == 10.0
    assert manual.end == 12.5
    assert manual.attrs == {"uid": 7}


def test_finish_is_idempotent():
    tracer = make_tracer()
    span = tracer.start_span("once", start=1.0)
    span.finish(end=2.0)
    span.finish(end=99.0)
    assert span.end == 2.0
    assert len(tracer.finished) == 1


def test_record_span_pre_timed_with_error_status():
    tracer = make_tracer()
    span = tracer.record_span(
        "attempt", start=3.0, end=4.0, category="raptor.exec",
        attrs={"item": 2}, status="error", error="crash",
    )
    assert span.start == 3.0 and span.end == 4.0
    assert span.status == "error" and span.error == "crash"
    assert tracer.finished == [span]


# -------------------------------------------------------------- inspection
def test_spans_ordered_by_start_then_program_order():
    tracer = make_tracer()
    tracer.record_span("b", start=5.0, end=6.0, category="x")
    tracer.record_span("a", start=1.0, end=2.0, category="x")
    tracer.record_span("tie1", start=1.0, end=3.0, category="y")
    names = [s.name for s in tracer.spans()]
    assert names == ["a", "tie1", "b"]  # start asc, seq breaks the 1.0 tie
    assert [s.name for s in tracer.spans(category="y")] == ["tie1"]


def test_active_spans_lists_open_spans_until_finished():
    tracer = make_tracer()
    span = tracer.start_span("open", start=0.0)
    assert tracer.active_spans() == [span]
    span.finish(end=1.0)
    assert tracer.active_spans() == []


def test_events_recorded_inside_span():
    tracer = make_tracer()
    with tracer.span("host") as span:
        span.add_event("checkpoint", time=0.25, step=3)
    assert span.events == [(0.25, "checkpoint", {"step": 3})]


def test_seq_numbers_preserve_program_order():
    tracer = make_tracer()
    first = tracer.start_span("first", start=100.0)
    second = tracer.start_span("second", start=1.0)
    second.finish(end=2.0)
    first.finish(end=101.0)
    assert first.seq_start < second.seq_start
    assert second.seq_end < first.seq_end


# ------------------------------------------------------------- null tracer
def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("x", category="y", a=1) as span:
        span.set_attr("k", "v")
        span.add_event("e")
        span.set_error("nope")
    assert NULL_TRACER.start_span("m") is span  # shared singleton
    assert NULL_TRACER.record_span("r", 0.0, 1.0) is span
    assert NULL_TRACER.finished == []
    assert NULL_TRACER.active_spans() == []
    assert list(NULL_TRACER.spans()) == []
    NULL_TRACER.metrics.counter("c").inc()
    assert NULL_TRACER.metrics.snapshot() == {}


def test_enabled_tracer_flag():
    assert make_tracer().enabled is True


# ---------------------------------------------------------- log mirroring
def test_log_spans_mirrors_enter_exit_to_debug(caplog):
    tracer = Tracer(clock=TickClock(), log_spans=True)
    with caplog.at_level(logging.DEBUG, logger="repro.telemetry"):
        with tracer.span("mirrored", category="demo"):
            pass
    messages = [r.getMessage() for r in caplog.records]
    assert any("span enter demo/mirrored" in m for m in messages)
    assert any("span exit demo/mirrored" in m for m in messages)


def test_silent_without_log_spans(caplog):
    tracer = make_tracer()
    with caplog.at_level(logging.DEBUG, logger="repro.telemetry"):
        with tracer.span("quiet"):
            pass
    assert not caplog.records
