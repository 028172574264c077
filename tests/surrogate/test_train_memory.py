"""Memory of the traced training step.

The first ``TrainStep`` call at a shape *is* the eager step, traced: it
should cost about what an untraced eager step costs, not that plus every
recorded tensor, and it must leave no cyclic eager graph behind (the VJPs
of ``exp``/``tanh``/``sigmoid`` close over their own output, so a graph
through SmilesNet's sigmoid head is only freed by the cycle collector).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.nn.graph.train import TrainStep
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.model import build_smilesnet
from repro.surrogate.train import TrainConfig, train_surrogate
from tests.nn.oracle import EagerStep


@pytest.fixture(scope="module")
def dataset():
    smiles = generate_library(40, seed=2).smiles()
    scores = np.random.default_rng(1).normal(-7.0, 1.0, len(smiles))
    return smiles, scores


@pytest.fixture
def no_other_tracing():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this interpreter")
    yield
    tracemalloc.stop()


def _first_call_peak(step_cls, x, y) -> int:
    """Bytes allocated at the peak of one step on a fresh SmilesNet."""
    model = build_smilesnet(seed=1, width=8)
    step = step_cls(lambda xb, yb: mse_loss(model(xb), yb), Adam(model.parameters()))
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    step(x, y)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


def test_first_traced_step_peaks_near_an_untraced_eager_step(dataset, no_other_tracing):
    smiles, _ = dataset
    x = featurize_batch(smiles[:18])
    y = np.random.default_rng(0).random((18, 1))
    eager = _first_call_peak(EagerStep, x, y)
    traced = _first_call_peak(TrainStep, x, y)
    assert traced <= 1.15 * eager, (traced / 1e6, eager / 1e6)


def test_training_leaves_no_cyclic_garbage(dataset, no_other_tracing):
    smiles, scores = dataset
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        train_surrogate(smiles, scores, TrainConfig(epochs=2, batch_size=24, width=8))
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        gc.enable()
    assert freed < 1_000_000, freed / 1e6
