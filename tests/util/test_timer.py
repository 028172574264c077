"""Tests for timers."""

import pytest

from repro.util.timer import Timer


def test_timer_accumulates():
    t = Timer()
    with t:
        pass
    first = t.elapsed
    with t:
        pass
    assert t.elapsed >= first


def test_timer_double_start_raises():
    t = Timer()
    t.start()
    with pytest.raises(RuntimeError):
        t.start()


def test_timer_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        Timer().stop()
