"""Compiled inference: graph-free forward passes with optional FP16.

The paper deploys ML1 through TensorRT at FP16 to use the V100 tensor
cores (§6.1.1).  The NumPy analogue: strip the autograd graph (weights
frozen into plain arrays) and run the whole forward pass in half
precision.  :class:`CompiledModel` plays the role of the torch2trt export
— same predictions (to FP16 tolerance), a fraction of the cost.

There is one engine, the :mod:`repro.nn.graph` path — trace to an op
graph, fuse, plan a buffer arena, execute with ``out=`` kernels: the
TensorRT-style build.  Its reference, the closure-per-layer interpreter
it replaced, lives in ``tests/nn/oracle.py``; graph execution is
bit-identical to it at the same batch size and precision — enforced by
probe-gated kernel selection and asserted by the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph.executor import GraphExecutor
from repro.nn.graph.ir import freeze_module, resolve_precision, trace_frozen
from repro.nn.graph.passes import optimize
from repro.nn.layers import Module

__all__ = ["CompiledModel", "compile_model"]


class CompiledModel:
    """Graph-free forward pass of a compiled module tree."""

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
        self._tracer = tracer
        self._executors: dict[tuple[int, ...], GraphExecutor] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # quantize the input to the storage precision, compute wider —
        # the tensor-core model (FP16 operands, FP32 accumulate)
        x = np.asarray(x).astype(self.store_dtype).astype(self.compute_dtype)
        return self.executor_for(x.shape[1:]).run(x).astype(np.float64)

    def executor_for(self, sample_shape: tuple[int, ...]) -> GraphExecutor:
        """The (lazily traced and optimized) executor for one input shape."""
        key = tuple(int(d) for d in sample_shape)
        executor = self._executors.get(key)
        if executor is None:
            graph = trace_frozen(
                self._frozen, key, self.store_dtype, self.compute_dtype
            )
            graph, _ = optimize(graph)
            executor = self._executors[key] = GraphExecutor(
                graph, tracer=self._tracer
            )
        return executor


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
        single precision.  (NumPy has no hardware FP16 arithmetic, so
        computing *in* float16 would be both slower and less faithful
        than quantize-then-accumulate.)
    tracer:
        Optional :class:`repro.telemetry.Tracer` for per-op ``nn.op`` spans.
    """
    store, compute = resolve_precision(precision)
    return CompiledModel(
        store, compute, freeze_module(model, store, compute), tracer=tracer
    )
