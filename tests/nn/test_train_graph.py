"""Compiled TrainStep vs. the interpreted EagerStep: bitwise trajectories.

The compiled training path's hard contract — weights, losses and
optimizer state bit-identical to the eager loop at the same seed,
precision and batch size — checked across a layer zoo (dense, conv,
BatchNorm, pooling, residual skip, leaky/sigmoid/tanh activations) ×
every optimizer × fp64 and fp32, plus the compile-time plumbing:
multi-shape plans for partial batches, validated arena plans, the
parameter-rebind guard, and the optimizer StateArena.
"""

import numpy as np
import pytest

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.graph.planner import plan_state_arena, validate_train_plan
from repro.nn.graph.train import TrainStep
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    Module,
    Parameter,
    PointwiseDense,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, RMSprop
from tests.nn.oracle import EagerStep


def _mlp(rng):
    return Sequential(Dense(6, 8, rng), ReLU(), Dense(8, 8, rng), Tanh(), Dense(8, 1, rng))


def _bn_mlp(rng):
    return Sequential(Dense(6, 8, rng), BatchNorm(8), LeakyReLU(0.2), Dense(8, 1, rng))


def _convnet(rng):
    return Sequential(
        Conv2d(2, 4, 3, rng, padding=1),
        BatchNorm(4),
        ReLU(),
        MaxPool2d(2),
        Conv2d(4, 4, 3, rng, padding=1),
        Sigmoid(),
        GlobalAvgPool2d(),
        Dense(4, 1, rng),
    )


def _resnet(rng):
    body = Sequential(Dense(6, 6, rng), Tanh())
    return Sequential(ResidualBlock(body), ReLU(), Dense(6, 1, rng))


class _PointNet(Module):
    """Pointwise MLP + max over points — the AAE encoder skeleton."""

    def __init__(self, rng):
        super().__init__()
        self.mlp = Sequential(PointwiseDense(3, 6, rng), ReLU(), PointwiseDense(6, 6, rng))
        self.head = Dense(6, 1, rng)

    def forward(self, x):
        return self.head(ag.tensor_max(self.mlp(x), axis=1))


ZOO = {
    "mlp": (_mlp, (6,)),
    "bn_mlp": (_bn_mlp, (6,)),
    "convnet": (_convnet, (2, 8, 8)),
    "resnet": (_resnet, (6,)),
    "pointnet": (_PointNet, (5, 3)),
}

OPTIMIZERS = {
    "adam": lambda ps: Adam(ps, lr=0.01),
    "rmsprop": lambda ps: RMSprop(ps, lr=0.01),
}


def _batches(feature_shape, n_steps, batch, dtype, seed=5):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.normal(size=(batch, *feature_shape)).astype(dtype),
            rng.random((batch, 1)).astype(dtype),
        )
        for _ in range(n_steps)
    ]


def _run(step_cls, build, make_opt, batches, seed=9):
    model = build(np.random.default_rng(seed))
    opt = make_opt(model.parameters())
    step = step_cls(lambda xb, yb: mse_loss(model(xb), yb), opt)
    losses = [step(x, y) for x, y in batches]
    return model, opt, losses, step


def _run_eager(build, make_opt, batches, seed=9):
    return _run(EagerStep, build, make_opt, batches, seed)[:3]


def _run_graph(build, make_opt, batches, seed=9):
    return _run(TrainStep, build, make_opt, batches, seed)


def _assert_same_state(m_e, m_g):
    for pe, pg in zip(m_e.parameters(), m_g.parameters()):
        assert np.array_equal(pe.data, pg.data)
    for me, mg in zip(m_e.modules(), m_g.modules()):
        if isinstance(me, BatchNorm):
            assert np.array_equal(me.running_mean, mg.running_mean)
            assert np.array_equal(me.running_var, mg.running_var)


@pytest.mark.parametrize("arch", sorted(ZOO))
@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
def test_trajectory_bitwise_identical_fp64(arch, opt_name):
    build, feat = ZOO[arch]
    batches = _batches(feat, n_steps=5, batch=8, dtype=np.float64)
    m_e, o_e, l_e = _run_eager(build, OPTIMIZERS[opt_name], batches)
    m_g, o_g, l_g, _ = _run_graph(build, OPTIMIZERS[opt_name], batches)
    assert l_e == l_g
    _assert_same_state(m_e, m_g)


def test_adam_moments_bitwise_identical():
    build, feat = ZOO["mlp"]
    batches = _batches(feat, n_steps=6, batch=8, dtype=np.float64)
    _, o_e, _ = _run_eager(build, OPTIMIZERS["adam"], batches)
    _, o_g, _, _ = _run_graph(build, OPTIMIZERS["adam"], batches)
    assert o_e._t == o_g._t
    for me, mg in zip(o_e._m, o_g._m):
        assert np.array_equal(me, mg)
    for ve, vg in zip(o_e._v, o_g._v):
        assert np.array_equal(ve, vg)


def test_partial_batches_compile_separate_plans():
    """A trailing short batch gets its own plan; both replay bitwise."""
    build, feat = ZOO["mlp"]
    full = _batches(feat, n_steps=3, batch=8, dtype=np.float64)
    tail = _batches(feat, n_steps=3, batch=3, dtype=np.float64, seed=17)
    mixed = [b for pair in zip(full, tail) for b in pair]
    m_e, _, l_e = _run_eager(build, OPTIMIZERS["adam"], mixed)
    m_g, _, l_g, step = _run_graph(build, OPTIMIZERS["adam"], mixed)
    assert l_e == l_g
    _assert_same_state(m_e, m_g)
    assert len(step._plans) == 2  # one plan per input-shape signature


def test_compiled_plans_validate_and_report():
    build, feat = ZOO["convnet"]
    batches = _batches(feat, n_steps=2, batch=4, dtype=np.float64)
    _, _, _, step = _run_graph(build, OPTIMIZERS["adam"], batches)
    for compiled in step._plans.values():
        validate_train_plan(compiled.plan)  # no live-range overlap
    info = next(iter(step.plan_info().values()))
    assert info["n_ops"] >= info["n_kernels"] > 0
    assert info["n_inplace"] > 0  # coalescing actually fired
    assert info["arena_bytes"] > 0
    assert info["arena_elems"] < info["naive_elems"]  # packing reuses buffers
    assert info["pass_stats"]["coalesce_inplace"] > 0


def test_parameter_rebind_guard():
    build, feat = ZOO["mlp"]
    batches = _batches(feat, n_steps=2, batch=4, dtype=np.float64)
    model = build(np.random.default_rng(9))
    opt = OPTIMIZERS["adam"](model.parameters())
    step = TrainStep(lambda xb, yb: mse_loss(model(xb), yb), opt)
    step(*batches[0])
    model.parameters()[0].data = model.parameters()[0].data.copy()  # rebind
    with pytest.raises(RuntimeError, match="rebound"):
        step(*batches[1])


def test_grad_norm_matches_across_engines():
    build, feat = ZOO["mlp"]
    batches = _batches(feat, n_steps=3, batch=8, dtype=np.float64)
    model_e = build(np.random.default_rng(9))
    eager = EagerStep(
        lambda xb, yb: mse_loss(model_e(xb), yb), OPTIMIZERS["adam"](model_e.parameters())
    )
    model_g = build(np.random.default_rng(9))
    step = TrainStep(
        lambda xb, yb: mse_loss(model_g(xb), yb), OPTIMIZERS["adam"](model_g.parameters())
    )
    for x, y in batches:
        eager(x, y)
        step(x, y)
        assert step.grad_norm() == eager.grad_norm()


def test_multiple_outputs_returned_as_floats():
    rng = np.random.default_rng(3)
    model = Sequential(Dense(4, 4, rng), Tanh(), Dense(4, 1, rng))
    opt = Adam(model.parameters(), lr=0.01)

    def fn(x, y):
        pred = model(x)
        loss = mse_loss(pred, y)
        aux = ag.tensor_mean(pred * pred)
        return loss, aux

    step = TrainStep(fn, opt)
    batches = _batches((4,), n_steps=3, batch=6, dtype=np.float64)
    for x, y in batches:
        out = step(x, y)
        assert isinstance(out, tuple) and len(out) == 2
        assert all(isinstance(v, float) for v in out)


def _positive(rng):
    return rng.uniform(0.5, 2.0, size=(4, 3))


#: op on a float32 leaf ``w`` → initial values of ``w``
F32_LEAF_OPS = {
    "exp": (ag.exp, lambda rng: rng.uniform(-2.0, 2.0, size=(4, 3))),
    "log": (ag.log, _positive),
    "sigmoid": (ag.sigmoid, lambda rng: rng.uniform(-2.0, 2.0, size=(4, 3))),
    "pow_-1": (lambda w: w**-1.0, _positive),
    "pow_-0.5": (lambda w: w**-0.5, _positive),
    # each row a three-way tie; tied weights get equal updates, so the
    # ties hold at every step
    "tied_max": (
        lambda w: ag.tensor_max(w, axis=1),
        lambda rng: np.repeat(_positive(rng)[:, :1], 3, axis=1),
    ),
}


@pytest.mark.parametrize("name", sorted(F32_LEAF_OPS))
def test_float32_leaf_replays_equal_eager_steps(name):
    """A float32 Parameter's multi-call ops compute in the float64 the
    eager op writes, on the trace and on every replay alike: losses,
    weights and the last step's gradient agree bit for bit."""
    op, init = F32_LEAF_OPS[name]
    w0 = init(np.random.default_rng(0)).astype(np.float32)
    xs = np.random.default_rng(1).normal(size=(3, *op(Tensor(w0)).shape))

    def run(step_cls):
        w = Parameter(np.zeros(w0.shape))
        w.data = w0.copy()  # a float32 leaf: Tensor() itself casts to float64
        step = step_cls(lambda x: ag.tensor_sum(op(w) * x), Adam([w], lr=0.05))
        losses = [step(x) for x in xs]
        grad = step._last_grads[0] if step_cls is TrainStep else w.grad.data
        return losses, w.data, grad

    losses_e, w_e, g_e = run(EagerStep)
    losses_g, w_g, g_g = run(TrainStep)
    assert losses_g == losses_e
    assert w_g.dtype == np.float32
    np.testing.assert_array_equal(w_g.view(np.uint32), w_e.view(np.uint32))
    np.testing.assert_array_equal(g_g.view(np.uint64), g_e.view(np.uint64))


# --------------------------------------------------------------- StateArena
def test_plan_state_arena_layout():
    shapes = [(3, 4), (7,), (2, 2, 2)]
    arena = plan_state_arena(shapes, np.float64)
    assert len(arena.views) == 3
    for view, shape in zip(arena.views, shapes):
        assert view.shape == shape
        assert not view.flags.owndata  # views into the one buffer
        assert np.shares_memory(view, arena.buf)
        assert (view == 0).all()  # moments start zeroed
    # aligned, non-overlapping offsets
    offs = [off for off, _ in arena.slots]
    assert offs == sorted(offs)
    for (off, size), shape in zip(arena.slots, shapes):
        assert size >= int(np.prod(shape))
    assert arena.total_bytes == arena.buf.nbytes


def test_state_arena_views_survive_updates():
    arena = plan_state_arena([(4,), (4,)], np.float64)
    arena.views[0] += 1.0
    assert (arena.views[1] == 0).all()  # no aliasing between slots
