"""Record-time lowering vs. the record-then-lower oracle.

``build_train_graph`` lowers each primitive while the tape records it and
keeps no tensor; ``tests/nn/oracle.py::record_then_lower`` is the parent's
builder, which kept every recorded tensor and lowered the list afterwards.
Both watch the very same eager step here (one tape feeds both), so the
graphs must be equal field for field: values (shapes, kinds, aliases, view
recipes, contiguity, captured arrays), ops (kinds, operands, attrs —
``bincount_ok`` included), gradient ids and output ids.  With the oracle
installed under ``TrainStep``, trajectories must be ``==`` as well.
"""

import numpy as np
import pytest

from repro.ddmd.aae import AAE, AAEConfig
from repro.nn import autograd as ag
from repro.nn.graph import backward, train
from repro.nn.graph.train import TrainStep
from repro.nn.layers import Dense, Module
from repro.nn.losses import mse_loss
from tests.nn import oracle
from tests.nn.test_train_graph import OPTIMIZERS, ZOO, _batches


class _Strided(Module):
    """A reshape of a transposed view, which numpy has to copy."""

    def __init__(self, rng):
        super().__init__()
        self.head = Dense(12, 1, rng)

    def forward(self, x):
        return self.head(ag.transpose(x, (0, 2, 1)).reshape(x.shape[0], 12))


CASES = {**ZOO, "strided": (_Strided, (3, 4))}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or a == b


def _assert_same_graph(got, want) -> None:
    assert len(got.values) == len(want.values)
    for v, w in zip(got.values, want.values):
        assert (v.vid, v.shape, v.dtype, v.kind) == (w.vid, w.shape, w.dtype, w.kind)
        assert (v.alias_of, v.contiguous) == (w.alias_of, w.contiguous)
        assert _same(v.view, w.view)
        assert v.data is w.data  # consts/params/externs captured by reference
        assert v.param is w.param
    assert len(got.ops) == len(want.ops)
    for o, p in zip(got.ops, want.ops):
        assert (o.kind, o.inputs, o.out) == (p.kind, p.inputs, p.out)
        assert o.inplace_on == p.inplace_on
        assert _same(o.attrs, p.attrs), o.kind
    assert got.input_vids == want.input_vids
    assert got.param_vids == want.param_vids
    assert got.grad_vids == want.grad_vids
    assert got.output_vids == want.output_vids
    assert got.dtype == want.dtype


class _Tee:
    def __init__(self, *recorders) -> None:
        self.recorders = recorders

    def __call__(self, op, inputs, out, attrs) -> None:
        for record in self.recorders:
            record(op, inputs, out, attrs)


@pytest.fixture
def compared(monkeypatch):
    """Every ``TrainStep`` trace also runs the oracle on the same tape and
    asserts equal graphs; yields the list of compared graphs."""
    graphs = []
    tape_cls = backward.Tape

    def build(fn, inputs, params):
        seen = oracle.RecordedTape()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backward, "Tape", lambda lowering: tape_cls(_Tee(lowering, seen)))
            tg, outputs = backward.build_train_graph(fn, inputs, params)
        _assert_same_graph(tg, oracle.record_then_lower(seen, inputs, params, outputs))
        graphs.append(tg)
        return tg, outputs

    monkeypatch.setattr(train, "build_train_graph", build)
    return graphs


def _train_zoo(arch, batches):
    build, _ = CASES[arch]
    model = build(np.random.default_rng(9))
    opt = OPTIMIZERS["adam"](model.parameters())
    step = TrainStep(lambda xb, yb: mse_loss(model(xb), yb), opt)
    return model, [step(x, y) for x, y in batches]


def _fit_aae(epochs=1):
    model = AAE(AAEConfig(epochs=epochs, latent_dim=6, hidden=12, batch_size=16),
                n_points=20, seed=2)
    rng = np.random.default_rng(0)
    history = model.fit(rng.normal(size=(44, 20, 3)))  # 35 train: 16, 16, 3
    params = [p.data for m in (model.encoder, model.decoder, model.critic)
              for p in m.parameters()]
    return params, history


@pytest.mark.parametrize("arch", sorted(CASES))
def test_layer_zoo_lowers_like_the_oracle(arch, compared):
    _, feat = CASES[arch]
    _train_zoo(arch, _batches(feat, n_steps=2, batch=8, dtype=np.float64))
    assert len(compared) == 1  # one shape, one trace


def test_a_copying_reshape_lowers_to_a_copy_kernel(compared):
    _train_zoo("strided", _batches(CASES["strided"][1], 1, batch=4, dtype=np.float64))
    assert "reshape_copy" in [op.kind for op in compared[0].ops]


def test_conv_backward_keeps_the_bincount_probe(compared):
    _train_zoo("convnet", _batches(ZOO["convnet"][1], 1, batch=4, dtype=np.float64))
    probes = [op.attrs["bincount_ok"] for op in compared[0].ops
              if op.kind == "scatter_add_axis"]
    assert probes and all(probes)


def test_batchnorm_side_effect_step_lowers_like_the_oracle(compared):
    _train_zoo("bn_mlp", _batches(ZOO["bn_mlp"][1], 1, batch=8, dtype=np.float64))
    assert [op.kind for op in compared[0].ops].count("bn_stats") == 1


def test_wgan_gp_double_backward_step_lowers_like_the_oracle(compared):
    _fit_aae()
    # the critic step (gradient penalty: grad of a grad) and the AE step,
    # each at the full batch and at the short tail batch
    assert sorted(len(tg.input_vids) for tg in compared) == [1, 1, 3, 3]


@pytest.mark.parametrize("arch", sorted(CASES))
def test_trajectory_equal_with_the_oracle_installed(arch):
    _, feat = CASES[arch]
    batches = _batches(feat, n_steps=4, batch=8, dtype=np.float64)
    model, losses = _train_zoo(arch, batches)
    with pytest.MonkeyPatch.context() as mp:
        oracle.install_lowering(mp)
        model_o, losses_o = _train_zoo(arch, batches)
    assert losses == losses_o
    for p, q in zip(model.parameters(), model_o.parameters()):
        assert np.array_equal(p.data, q.data)


def test_aae_trajectory_equal_with_the_oracle_installed():
    params, history = _fit_aae(epochs=2)
    with pytest.MonkeyPatch.context() as mp:
        oracle.install_lowering(mp)
        params_o, history_o = _fit_aae(epochs=2)
    assert history.train_reconstruction == history_o.train_reconstruction
    assert history.train_adversarial == history_o.train_adversarial
    for p, q in zip(params, params_o):
        assert np.array_equal(p, q)


# The bincount probe's rejecting branches.  The shipped layers never reach
# them (every Tensor is float64, and take's gradient is C-contiguous), so
# each is driven directly here.  The gradients hold small integers, which
# every dtype and summation order adds exactly: where a test expects a
# rejection, only the branch under test stands between it and ``True``.
_IDX = np.array([[0, 2, 5], [2, 2, 1], [4, 0, 5]])


def _scatter_ref(g, indices, shape):
    """``autograd._scatter_add_axis``'s ``np.add.at`` along axis 1."""
    out = np.zeros(shape, dtype=g.dtype)
    g_moved = np.moveaxis(g, tuple(range(1, 1 + indices.ndim)), tuple(range(indices.ndim)))
    np.add.at(np.moveaxis(out, 1, 0), indices, g_moved)
    return out


def _probe_case(indices=_IDX, tail=(), dtype=np.float64):
    g = np.random.default_rng(4).integers(-4, 5, size=(2, *indices.shape, *tail))
    g = g.astype(dtype)
    shape = (2, 6, *tail)
    return indices, g, shape, _scatter_ref(g, indices, shape)


def test_bincount_probe_accepts_the_conv_backward_pattern():
    assert backward._probe_bincount(*_probe_case()) is True


def test_bincount_probe_rejects_a_float32_gradient():
    indices, g, shape, ref = _probe_case(dtype=np.float32)
    assert backward._probe_bincount(indices, g, shape, ref) is False


def test_bincount_probe_rejects_a_non_contiguous_gradient():
    indices, g, shape, ref = _probe_case()
    g = np.asfortranarray(g)
    assert not g.flags.c_contiguous
    assert backward._probe_bincount(indices, g, shape, ref) is False


@pytest.mark.parametrize(
    "case", [{"tail": (1,)}, {"indices": _IDX[0]}], ids=["3d_target", "1d_index_map"]
)
def test_bincount_probe_rejects_a_target_or_index_map_that_is_not_2d(case):
    assert backward._probe_bincount(*_probe_case(**case)) is False


def test_bincount_probe_rejects_a_reference_that_does_not_match():
    indices, g, shape, ref = _probe_case()
    ref[1, 2] += 1.0
    assert backward._probe_bincount(indices, g, shape, ref) is False
