"""The backward walk frees what it has consumed, and only memory changes.

``repro.nn.autograd.grad`` drops each node's gradient once its VJPs have
run and, without ``create_graph``, the node's edges too.
``tests/nn/oracle.py::grad`` is the parent's walk, which kept every
gradient and node until it returned.  Under either walk the three shipped
steps — SmilesNet's, and the 3D-AAE's critic (double backward through the
gradient penalty) and autoencoder steps — must record equal training
graphs op for op, and train to bitwise-equal weights, losses and
optimizer state.
"""

import gc

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.ddmd import aae
from repro.nn.autograd import Tensor
from repro.nn.graph import train
from repro.nn.graph.train import TrainStep
from repro.nn.layers import Module
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.model import build_smilesnet
from tests.nn import oracle
from tests.nn.test_record_lowering import _same


class _Recording(TrainStep):
    """A ``TrainStep`` that keeps its outputs and, at each first call, the
    Tensors that call left holding graph edges (cycle collector off)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.outs: list = []
        self.left_with_edges: list[Tensor] = []

    def _trace(self, key, arrays):
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects() if isinstance(o, Tensor)}
            result = super()._trace(key, arrays)
            self.left_with_edges += [
                o for o in gc.get_objects()
                if isinstance(o, Tensor) and id(o) not in before and o._parents
            ]
        finally:
            gc.enable()
        return result

    def __call__(self, *arrays):
        out = super().__call__(*arrays)
        self.outs.append(out)
        return out


def _snapshot(tg) -> tuple:
    """The recorded graph as plain data, taken before the passes run."""
    values = [
        (v.vid, v.shape, v.dtype, v.kind, v.alias_of, v.view, v.contiguous,
         None if v.data is None else v.data.copy())
        for v in tg.values
    ]
    # a side effect names its layer, which each run builds anew
    ops = [
        (op.kind, op.inputs, op.out,
         {k: type(a) if isinstance(a, Module) else a for k, a in op.attrs.items()})
        for op in tg.ops
    ]
    return (values, ops, tg.input_vids, tg.param_vids, tg.grad_vids, tg.output_vids)


def _optimizer_state(opt) -> list:
    return [getattr(opt, "_t", None),
            *(getattr(opt, name, []) for name in ("_m", "_v", "_sq"))]


def _smilesnet(steps):
    x = featurize_batch(generate_library(40, seed=2).smiles()[:19])
    y = np.random.default_rng(0).random((19, 1))
    model = build_smilesnet(seed=1, width=8)
    step = _Recording(lambda xb, yb: mse_loss(model(xb), yb), Adam(model.parameters()))
    for _ in range(3):
        step(x, y)
    steps.append(step)
    return [p.data for p in model.parameters()]


def _aae(steps):
    model = aae.AAE(aae.AAEConfig(epochs=2, latent_dim=6, hidden=12, batch_size=16),
                    n_points=20, seed=2)
    history = model.fit(np.random.default_rng(0).normal(size=(44, 20, 3)))
    params = [p.data for m in (model.encoder, model.decoder, model.critic)
              for p in m.parameters()]
    return params + [history.train_reconstruction, history.train_adversarial]


def _run(case, parent_walk: bool):
    """Train ``case``; returns its result, the recorded graphs and steps."""
    graphs, steps = [], []
    build = train.build_train_graph

    def recording_build(fn, inputs, params):
        tg, outputs = build(fn, inputs, params)
        graphs.append(_snapshot(tg))
        return tg, outputs

    def make_step(*args, **kwargs):
        steps.append(_Recording(*args, **kwargs))
        return steps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "build_train_graph", recording_build)
        mp.setattr(aae, "TrainStep", make_step)
        if parent_walk:
            oracle.install_grad(mp)
        result = case(steps)
    return result, graphs, steps


@pytest.mark.parametrize("case", [_smilesnet, _aae], ids=["smilesnet", "aae"])
def test_only_memory_changed_against_the_parents_walk(case):
    got, graphs, steps = _run(case, parent_walk=False)
    want, graphs_o, steps_o = _run(case, parent_walk=True)
    # SmilesNet traces once; the critic and autoencoder steps each trace
    # at the full batch and at the short tail batch
    assert len(graphs) == len(graphs_o) == (1 if case is _smilesnet else 4)
    for g, w in zip(graphs, graphs_o):
        assert _same(g, w)
    assert _same(got, want)
    assert len(steps) == len(steps_o)
    for s, o in zip(steps, steps_o):
        assert s.outs == o.outs
        assert _same(_optimizer_state(s.optimizer), _optimizer_state(o.optimizer))


@pytest.mark.parametrize("case", [_smilesnet, _aae], ids=["smilesnet", "aae"])
def test_a_first_call_leaves_no_eager_graph_behind(case):
    """Backward frees the graph it walks, cycles through the VJPs of
    ``exp``/``tanh``/``sigmoid`` included, so no Tensor that the first
    (traced) call made still holds an edge — not even as cyclic garbage."""
    _, _, steps = _run(case, parent_walk=False)
    assert steps
    for step in steps:
        assert step.left_with_edges == []


@pytest.mark.parametrize("case", [_smilesnet, _aae], ids=["smilesnet", "aae"])
def test_a_bound_graph_holds_only_constants_some_op_reads(case):
    _, _, steps = _run(case, parent_walk=False)
    for step in steps:
        for compiled in step._plans.values():
            tg = compiled.bound.tg
            read = {vid for op in tg.ops for vid in op.inputs}
            held = {v.vid for v in tg.values if v.kind == "const" and v.data is not None}
            assert held and held <= read
