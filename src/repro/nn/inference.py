"""Compiled inference: graph-free forward passes with optional FP16.

The paper deploys ML1 through TensorRT at FP16 to use the V100 tensor
cores (§6.1.1).  The NumPy analogue: strip the autograd graph (weights
frozen into plain arrays) and run the whole forward pass in half
precision.  :class:`CompiledModel` plays the role of the torch2trt export
— same predictions (to FP16 tolerance), a fraction of the cost.

The export is not a second compiler.  :func:`compile_model` freezes the
module tree; each input shape is then lowered to the
:class:`~repro.nn.graph.backward.TrainGraph` IR that training steps use
(a graph with no parameters and no backward), scheduled by the same
passes, arena-planned by the same planner and bound to ``out=`` kernels
by the same binder as :class:`~repro.nn.graph.train.TrainStep` — the
TensorRT-style build.  Its reference, the closure-per-layer interpreter
it replaced, lives in ``tests/nn/oracle.py``; compiled execution is
bit-identical to it at the same batch size and precision — enforced by
probe-gated kernel selection and asserted by the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph.executor import Bound, bind
from repro.nn.graph.lower import freeze_module, lower_frozen, resolve_precision
from repro.nn.graph.passes import optimize_train
from repro.nn.layers import Module
from repro.telemetry import NULL_TRACER

__all__ = ["CompiledModel", "compile_model"]


class CompiledModel:
    """Graph-free forward pass of a compiled module tree.

    One graph is lowered and bound per input shape (batch included, since
    BLAS accumulation order may vary with it) on first use.  Not
    thread-safe.
    """

    def __init__(
        self,
        store_dtype: np.dtype,
        compute_dtype: np.dtype,
        frozen,
        tracer=None,
    ) -> None:
        self.store_dtype = store_dtype
        self.compute_dtype = compute_dtype
        self._frozen = frozen
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._plans: dict[tuple[int, ...], Bound] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # quantize the input to the storage precision, compute wider —
        # the tensor-core model (FP16 operands, FP32 accumulate)
        x = np.asarray(x).astype(self.store_dtype).astype(self.compute_dtype)
        bound = self._bound(x.shape)
        np.copyto(bound.view(bound.tg.input_vids[0]), x)
        bound.run(self._tracer)
        if self._tracer.enabled:
            self._tracer.metrics.counter("nn.batches").inc()
            self._tracer.metrics.counter("nn.samples").inc(len(x))
        return bound.view(bound.tg.output_vids[0]).astype(np.float64)

    def _bound(self, shape: tuple[int, ...]) -> Bound:
        key = tuple(int(d) for d in shape)
        bound = self._plans.get(key)
        if bound is None:
            tg = lower_frozen(self._frozen, key, self.compute_dtype)
            optimize_train(tg)
            bound = self._plans[key] = bind(tg)
        return bound


def compile_model(
    model: Module,
    precision: str = "fp16",
    tracer=None,
) -> CompiledModel:
    """Compile a module tree into a pure-NumPy inference function.

    Parameters
    ----------
    model:
        A model built from the layers in :mod:`repro.nn.layers`.
    precision:
        ``"fp16"`` (default) quantizes weights and inputs to half
        precision and accumulates in FP32 — the V100 tensor-core
        behaviour the paper exploits via TensorRT.  ``"fp32"`` keeps full
        single precision, ``"fp64"`` full double.  (NumPy has no hardware
        FP16 arithmetic, so computing *in* float16 would be both slower
        and less faithful than quantize-then-accumulate.)
    tracer:
        Optional :class:`repro.telemetry.Tracer` for per-op ``nn.op`` spans.
    """
    store, compute = resolve_precision(precision)
    return CompiledModel(
        store, compute, freeze_module(model, store, compute), tracer=tracer
    )
