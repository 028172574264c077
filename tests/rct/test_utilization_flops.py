"""Tests for utilization tracking and FLOP accounting."""

import numpy as np
import pytest

from repro.rct.flops import (
    docking_eval_flops,
    md_step_flops,
    model_forward_flops,
)
from repro.rct.utilization import UtilizationTracker
from repro.telemetry.tracer import TickClock, Tracer


# --------------------------------------------------------------- utilization
def _tracker(total_gpus, *tasks):
    """Fig 7's view over one ``pilot.task`` span per (start, end, gpus, stage)."""
    tracer = Tracer(clock=TickClock())
    for start, end, gpus, stage in tasks:
        attrs = {"gpus": gpus, "cpus": 0, "stage": stage}
        tracer.record_span("task", start, end, category="pilot.task", attrs=attrs)
    return UtilizationTracker.from_trace(tracer, total_gpus=total_gpus, total_cpus=0)


def test_series_reconstructs_step_function():
    s = _tracker(4, (0.0, 3.0, 2, "a"), (1.0, 5.0, 2, "b")).series()
    np.testing.assert_array_equal(s.times, [0, 1, 3, 5])
    np.testing.assert_array_equal(s.busy_gpus, [2, 4, 2, 0])
    np.testing.assert_array_equal(s.per_stage["a"], [2, 2, 0, 0])
    np.testing.assert_array_equal(s.per_stage["b"], [0, 2, 2, 0])


def test_average_utilization():
    t = _tracker(4, (0.0, 2.0, 4, "x"))
    # fully busy 0→2: but the last event closes the span, so weight is
    # over [0, 2] with busy=4 during [0,2)
    assert t.series().average_utilization() == pytest.approx(1.0)


def test_average_utilization_half():
    t = _tracker(4, (0.0, 4.0, 2, "x"))
    assert t.series().average_utilization() == pytest.approx(0.5)


def test_empty_series():
    s = _tracker(4).series()
    assert s.average_utilization() == 0.0
    assert s.ascii_plot() == "(no utilization data)"


def test_ascii_plot_renders():
    t = _tracker(2, (0.0, 10.0, 2, "x"))
    plot = t.series().ascii_plot(width=40, height=5)
    assert "#" in plot
    assert len(plot.splitlines()) == 7


# --------------------------------------------------------------------- flops


def test_md_step_flops_quadratic_in_beads():
    small = md_step_flops(100)
    large = md_step_flops(200)
    assert 3.5 < large / small < 4.5


def test_docking_flops_linear_in_atoms():
    assert docking_eval_flops(50) == pytest.approx(2 * docking_eval_flops(25))


def test_flops_validate():
    with pytest.raises(ValueError):
        md_step_flops(0)
    with pytest.raises(ValueError):
        docking_eval_flops(0)


def test_dense_model_flops_exact():
    from repro.nn.layers import Dense, Sequential

    rng = np.random.default_rng(0)
    net = Sequential(Dense(10, 20, rng), Dense(20, 1, rng))
    # 2*10*20+20 + 2*20*1+1 = 420 + 41
    assert model_forward_flops(net, (10,)) == pytest.approx(461.0)


def test_conv_model_flops_exact():
    from repro.nn.layers import Conv2d, Sequential

    rng = np.random.default_rng(0)
    net = Sequential(Conv2d(3, 8, 3, rng, padding=1))
    # out 8×8×8; macs = 8*8*8*3*3*3 = 13824; flops = 27648
    assert model_forward_flops(net, (3, 8, 8)) == pytest.approx(27648.0)


def test_smilesnet_flops_positive_and_stable():
    from repro.surrogate.model import build_smilesnet

    net = build_smilesnet(0)
    f = model_forward_flops(net, (7, 24, 24))
    assert f > 1e6
    assert model_forward_flops(net, (7, 24, 24)) == f
