"""Surrogate training: compiled ``TrainStep`` vs. the interpreted
``EagerStep`` (``tests/nn/oracle.py``) parity, chunked validation, and
telemetry instrumentation."""

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.nn.autograd import Tensor
from repro.nn.losses import mse_loss
from repro.surrogate.train import TrainConfig, train_surrogate, validation_loss
from repro.telemetry import TickClock, Tracer
from tests.nn import oracle


@pytest.fixture(scope="module")
def dataset():
    lib = generate_library(40, seed=47)
    scores = np.array(
        [
            -2.0 * lib.descriptors(i).aromatic_rings
            + 0.03 * lib.descriptors(i).molecular_weight
            for i in range(len(lib))
        ]
    )
    return lib.smiles(), scores


SMALL = dict(epochs=3, batch_size=16, width=6)


def _train(dataset, engine, **kwargs):
    """``train_surrogate`` on the compiled step ("graph") or with the
    oracle's interpreted step swapped in ("eager")."""
    smiles, scores = dataset
    with pytest.MonkeyPatch.context() as mp:
        if engine == "eager":
            oracle.install(mp)
        return train_surrogate(smiles, scores, TrainConfig(**SMALL), seed=3, **kwargs)


def test_graph_engine_bitwise_matches_eager(dataset):
    smiles, _ = dataset
    graph = _train(dataset, "graph")
    eager = _train(dataset, "eager")
    assert graph.train_losses == eager.train_losses
    assert graph.val_losses == eager.val_losses
    for pg, pe in zip(graph.model.parameters(), eager.model.parameters()):
        assert np.array_equal(pg.data, pe.data)
    # identical models ⇒ identical predictions, bitwise
    preds_g = graph.predict_normalized(smiles[:8])
    preds_e = eager.predict_normalized(smiles[:8])
    assert np.array_equal(preds_g, preds_e)


def test_validation_loss_matches_single_pass(dataset):
    model = _train(dataset, "eager").model
    model.eval()
    rng = np.random.default_rng(8)
    X = rng.normal(size=(23, 7, 24, 24))  # deliberately not a chunk multiple
    y = rng.random((23, 1))
    single = mse_loss(model(Tensor(X)), Tensor(y)).item()
    # the reduction arithmetic is exact; chunked forwards match the full
    # pass bitwise unless a degenerate tail selects another GEMM kernel
    for chunk in (4, 16, 64):
        assert validation_loss(model, X, y, chunk) == single
    assert validation_loss(model, X, y, 7) == pytest.approx(single, rel=1e-12)


def test_validation_loss_empty_split():
    assert validation_loss(None, np.zeros((0, 1)), np.zeros((0, 1)), 8) == 0.0


def test_engine_validated():
    """There is one step: the selector is gone, not defaulted."""
    with pytest.raises(TypeError, match="engine"):
        TrainConfig(engine="jit")
    with pytest.raises(TypeError, match="engine"):
        TrainConfig(engine="graph")


@pytest.mark.parametrize("engine", ["graph", "eager"])
def test_trainer_emits_spans_and_metrics(dataset, engine):
    tracer = Tracer(clock=TickClock())
    _train(dataset, engine, tracer=tracer)
    epochs = list(tracer.spans("train"))
    names = {s.name for s in epochs}
    assert names == {"train.epoch", "train.step"}
    epoch_spans = [s for s in epochs if s.name == "train.epoch"]
    assert len(epoch_spans) == SMALL["epochs"]
    for s in epoch_spans:
        assert "train_loss" in s.attrs and "val_loss" in s.attrs
    assert tracer.metrics.counter("train.steps").value == sum(
        1 for s in epochs if s.name == "train.step"
    )


def test_traces_identical_across_engines(dataset):
    """Same seed ⇒ byte-identical loss/grad-norm telemetry, either engine."""
    readings = {}
    for engine in ("graph", "eager"):
        tracer = Tracer(clock=TickClock())
        _train(dataset, engine, tracer=tracer)
        readings[engine] = (
            [s.attrs for s in tracer.spans() if s.name == "train.epoch"],
            tracer.metrics.gauge("train.loss").value,
            tracer.metrics.gauge("train.grad_norm").value,
        )
    assert readings["graph"] == readings["eager"]
