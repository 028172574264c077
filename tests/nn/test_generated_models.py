"""Generated module stacks for the compiler's three bit-identity contracts.

The hand-written zoos (``test_graph.py``, ``test_train_graph.py``,
``test_record_lowering.py``) pin each contract on the models someone
thought of.  Here one strategy draws small stacks of every layer the
compilers lower — ``Conv2d`` (k ∈ {1, 3}, padding ∈ {0, 1}),
``BatchNorm``, the four activations, ``MaxPool2d``, ``ResidualBlock``
with and without projection, ``GlobalAvgPool2d``, ``Flatten``, ``Dense``
and ``PointwiseDense`` — and checks, at batch 1, a full batch and a tail
batch:

* compiled inference ``==`` the closure interpreter (``compile_eager``)
  at fp16, fp32 and fp64;
* compiled ``TrainStep`` steps ``==`` the interpreted ``EagerStep``
  (weights, BatchNorm statistics, losses and optimizer moments) under
  Adam and RMSprop, in fp32 and fp64;
* ``build_train_graph`` ``==`` ``oracle.record_then_lower`` on the same
  tape.

Examples are derandomized, so the suite stays deterministic.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autograd import Tensor, no_grad
from repro.nn.graph import backward, train
from repro.nn.graph.train import TrainStep
from repro.nn.inference import compile_model
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    PointwiseDense,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, RMSprop
from tests.nn import oracle
from tests.nn.test_record_lowering import _assert_same_graph, _Tee

FULL = 8
ACTIVATIONS = ("relu", "leaky", "tanh", "sigmoid")
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@dataclass(frozen=True)
class Stack:
    """A drawn model: its input's per-sample shape and layer specs."""

    sample: tuple[int, ...]
    layers: tuple[tuple, ...]
    seed: int
    tail: int


def _image_layers(draw, c, h, w, specs):
    # richest choices first: Hypothesis favours early elements
    for _ in range(draw(st.integers(1, 4))):
        kinds = ["res", "conv", "bn", "act"]
        if h % 2 == 0 and w % 2 == 0:
            kinds.insert(0, "pool")
        kind = draw(st.sampled_from(kinds))
        if kind == "conv":
            k = draw(st.sampled_from([3, 1]))
            pad = draw(st.sampled_from([1, 0]))
            if h + 2 * pad < k or w + 2 * pad < k:
                pad = 1
            oc = draw(st.integers(1, 4))
            specs.append(("conv", c, oc, k, pad))
            c, h, w = oc, h + 2 * pad - k + 1, w + 2 * pad - k + 1
        elif kind == "bn":
            specs.append(("bn", c))
        elif kind == "act":
            specs.append(("act", draw(st.sampled_from(ACTIVATIONS))))
        elif kind == "pool":
            specs.append(("pool",))
            h, w = h // 2, w // 2
        else:
            k = draw(st.sampled_from([3, 1]))
            oc = draw(st.integers(1, 4)) if draw(st.sampled_from([True, False])) else None
            specs.append(("res2d", c, oc, k))
            c = oc or c
    if draw(st.sampled_from([True, False])):
        specs.append(("gap",))
        return c
    specs.append(("flatten",))
    return c * h * w


def _vector_layers(draw, f, specs, pointwise=False):
    for _ in range(draw(st.integers(0 if not pointwise else 1, 3))):
        kinds = ["dense", "act"] if pointwise else ["res", "dense", "bn", "act"]
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            out = draw(st.integers(1, 6))
            specs.append(("pdense" if pointwise else "dense", f, out))
            f = out
        elif kind == "bn":
            specs.append(("bn", f))
        elif kind == "act":
            specs.append(("act", draw(st.sampled_from(ACTIVATIONS))))
        else:
            out = draw(st.integers(1, 6)) if draw(st.sampled_from([True, False])) else None
            specs.append(("res1d", f, out, draw(st.sampled_from(ACTIVATIONS))))
            f = out or f
    return f


@st.composite
def stacks(draw, family: str) -> Stack:
    """A small module stack over an ``image``, a ``vector`` or a point
    cloud (``points``)."""
    specs: list[tuple] = []
    if family == "image":
        sample = (draw(st.integers(1, 3)), draw(st.sampled_from([4, 5, 6])),
                  draw(st.sampled_from([4, 6, 7])))
        f = _image_layers(draw, *sample, specs)
    elif family == "points":
        sample = (draw(st.integers(2, 4)), draw(st.integers(1, 4)))
        f = _vector_layers(draw, sample[1], specs, pointwise=True)
        if draw(st.booleans()):
            specs.append(("flatten",))
            f = sample[0] * f
    else:
        sample = (draw(st.integers(1, 6)),)
        f = sample[0]
    if family != "points" or specs[-1] == ("flatten",):
        f = _vector_layers(draw, f, specs)
    if all(spec[0] in ("act", "pool", "gap", "flatten") for spec in specs):
        specs.append(("dense", f, 1))  # something to train
    return Stack(sample, tuple(specs), draw(st.integers(0, 999)),
                 draw(st.integers(2, FULL - 1)))


def _act(kind):
    return {"relu": ReLU, "leaky": lambda: LeakyReLU(0.1), "tanh": Tanh,
            "sigmoid": Sigmoid}[kind]()


def _layer(spec, rng):
    kind = spec[0]
    if kind == "conv":
        _, c, oc, k, pad = spec
        return Conv2d(c, oc, k, rng, padding=pad)
    if kind == "bn":
        return BatchNorm(spec[1])
    if kind == "act":
        return _act(spec[1])
    if kind == "pool":
        return MaxPool2d(2)
    if kind == "gap":
        return GlobalAvgPool2d()
    if kind == "flatten":
        return Flatten()
    if kind == "dense":
        return Dense(spec[1], spec[2], rng)
    if kind == "pdense":
        return PointwiseDense(spec[1], spec[2], rng)
    if kind == "res2d":
        _, c, oc, k = spec
        body = Sequential(Conv2d(c, oc or c, k, rng, padding=k // 2), BatchNorm(oc or c))
        return ResidualBlock(body, Conv2d(c, oc, 1, rng) if oc else None)
    _, f, out, act = spec
    body = Sequential(Dense(f, out or f, rng), _act(act))
    return ResidualBlock(body, Dense(f, out, rng) if out else None)


def build(stack: Stack, dtype=np.float64) -> Sequential:
    """The drawn model, with every parameter moved off its initial value
    so that biases and BatchNorm shifts are not zero."""
    rng = np.random.default_rng(stack.seed)
    model = Sequential(*(_layer(spec, rng) for spec in stack.layers))
    for p in model.parameters():
        p.data = (p.data + rng.normal(scale=0.3, size=p.shape)).astype(dtype)
    return model


def _inputs(stack: Stack, batch: int, seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, *stack.sample)).astype(dtype)


BATCHES = ("one", "full", "tail")


def _batch(stack: Stack, which: str) -> int:
    return {"one": 1, "full": FULL, "tail": stack.tail}[which]


FAMILIES = ("image", "points", "vector")


@pytest.mark.parametrize("family", FAMILIES)
@SETTINGS
@given(data=st.data())
def test_compiled_inference_equals_the_interpreter(family, data):
    stack = data.draw(stacks(family))
    model = build(stack)
    with no_grad():  # warm BatchNorm's running statistics
        for i in range(2):
            model(Tensor(_inputs(stack, FULL, 100 + i)))
    model.eval()
    for precision in ("fp16", "fp32", "fp64"):
        compiled = compile_model(model, precision)
        eager = oracle.compile_eager(model, precision)
        for i, which in enumerate(BATCHES):
            x = _inputs(stack, _batch(stack, which), seed=i)
            np.testing.assert_array_equal(compiled(x), eager(x), err_msg=precision)


def _steps(stack: Stack, dtype):
    """Every shape twice (trace, then replay): full, tail, one, full, …"""
    out = []
    for i, which in enumerate(BATCHES * 2):
        x = _inputs(stack, _batch(stack, which), seed=i, dtype=dtype)
        y = np.random.default_rng(50 + i).normal(size=(len(x), 1)).astype(dtype)
        out.append((x, y))
    return out


def _train(step_cls, stack, make_opt, steps):
    model = build(stack, steps[0][0].dtype)
    opt = make_opt(model.parameters())
    step = step_cls(lambda xb, yb: mse_loss(_head(model(xb)), yb), opt)
    return model, opt, [step(x, y) for x, y in steps]


def _head(out):
    """Reduce any output shape to (batch, 1) for the loss."""
    from repro.nn import autograd as ag

    flat = ag.reshape(out, (out.shape[0], -1))
    return ag.tensor_mean(flat, axis=1, keepdims=True)


OPTIMIZERS = {
    "adam": lambda ps: Adam(ps, lr=0.01),
    "rmsprop": lambda ps: RMSprop(ps, lr=0.01),
}


def _moments(opt):
    if isinstance(opt, Adam):
        return [opt._t, *opt._m, *opt._v]
    return list(opt._sq)


@pytest.mark.parametrize("family", FAMILIES)
@SETTINGS
@given(data=st.data())
def test_train_steps_equal_the_eager_step(family, data):
    stack = data.draw(stacks(family))
    opt_name = data.draw(st.sampled_from(sorted(OPTIMIZERS)))
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    steps = _steps(stack, dtype)
    m_e, o_e, l_e = _train(oracle.EagerStep, stack, OPTIMIZERS[opt_name], steps)
    m_g, o_g, l_g = _train(TrainStep, stack, OPTIMIZERS[opt_name], steps)
    assert l_g == l_e
    for p, q in zip(m_g.parameters(), m_e.parameters()):
        assert np.array_equal(p.data, q.data)
    for a, b in zip(m_g.modules(), m_e.modules()):
        if isinstance(a, BatchNorm):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
    for a, b in zip(_moments(o_g), _moments(o_e), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("family", FAMILIES)
@SETTINGS
@given(data=st.data())
def test_train_graph_equals_record_then_lower(family, data):
    stack = data.draw(stacks(family))
    graphs = []
    tape_cls = backward.Tape

    def compared(fn, inputs, params):
        seen = oracle.RecordedTape()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backward, "Tape", lambda lowering: tape_cls(_Tee(lowering, seen)))
            tg, outputs = backward.build_train_graph(fn, inputs, params)
        _assert_same_graph(tg, oracle.record_then_lower(seen, inputs, params, outputs))
        graphs.append(tg)
        return tg, outputs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "build_train_graph", compared)
        _train(TrainStep, stack, OPTIMIZERS["adam"], _steps(stack, np.float64)[:3])
    assert len(graphs) == 3  # one trace per batch shape
