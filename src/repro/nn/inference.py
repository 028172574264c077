"""Compiled inference: graph-free forward passes with optional FP16.

The paper deploys ML1 through TensorRT at FP16 to use the V100 tensor
cores (§6.1.1).  The NumPy analogue: strip the autograd graph (weights
frozen into plain arrays) and run the whole forward pass in half
precision.  :class:`CompiledModel` plays the role of the torch2trt export
— same predictions (to FP16 tolerance), a fraction of the cost.

The export is not a second compiler.  :func:`compile_model` checks the
module tree and keeps a private copy of it; each input shape is then
lowered from that copy's own layers, weights rounded through the storage
precision as they are emitted, to the
:class:`~repro.nn.graph.backward.TrainGraph` IR that training steps use
(a graph with no parameters and no backward), scheduled by the same
passes, arena-planned by the same planner and bound to the eager kernels
by the same binder as :class:`~repro.nn.graph.train.TrainStep` — the
TensorRT-style build.  Its reference, the closure-per-layer interpreter
it replaced, lives in ``tests/nn/oracle.py``; compiled execution is
bit-identical to it at the same batch size and precision, input
quantization included, as the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph.executor import Bound, bind
from repro.nn.graph.lower import freeze_module, lower_frozen, resolve_precision
from repro.nn.graph.passes import optimize_train
from repro.nn.layers import Module
from repro.telemetry import NULL_TRACER

__all__ = ["CompiledModel", "compile_model"]

def _round_to_fp16(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> bool:
    """Write ``x.astype(float16).astype(float32)`` into the float32 ``out``
    (uint32 ``scratch``); False unless ``x`` is float32, all |x| ≤ 65504.

    Exactness fact (all 2,399,125,506 such patterns swept): with ``2**e``
    the binade of ``|x|``, raised to fp16's smallest normal ``2**-14``,
    float32's spacing on ``[c, 2c)``, ``c = 2**(e + 13)``, is fp16's at
    ``e``, so ``|x| + c`` rounds ``|x|`` to fp16, ties to even (``c`` is an
    even multiple of it), and subtracting ``c`` is exact (Sterbenz).
    """
    if x.dtype != np.float32:
        return False
    xu, u, c = x.view(np.uint32), out.view(np.uint32), scratch.view(np.float32)
    np.bitwise_and(xu, 0x7FFFFFFF, out=u)  # |x|
    if u.max() > 0x477FE000:  # inf, NaN or |x| > 65504
        return False
    np.bitwise_and(xu, 0x7F800000, out=scratch)
    np.maximum(scratch, 0x38800000, out=scratch)  # 2**-14
    np.add(scratch, 13 << 23, out=scratch)  # c
    np.add(out, c, out=out)
    np.subtract(out, c, out=out)
    np.bitwise_and(xu, 0x80000000, out=scratch)
    np.bitwise_or(u, scratch, out=u)  # x's sign
    return True


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
        frozen: Module,
        tracer=None,
    ) -> None:
        self.store_dtype = store_dtype
        self.compute_dtype = compute_dtype
        self._frozen = frozen
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._plans: dict[tuple[int, ...], Bound] = {}
        self._scratch: dict[tuple[int, ...], np.ndarray] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # quantize the input to the storage precision, compute wider —
        # the tensor-core model (FP16 operands, FP32 accumulate)
        x = np.asarray(x)
        bound = self._bound(x.shape)
        inp = bound.view(bound.tg.input_vids[0])
        if self.store_dtype != np.float16 or not _round_to_fp16(x, inp, self._scratch[x.shape]):
            # the round trip: a float64 input rounds once, not via float32
            np.copyto(inp, x.astype(self.store_dtype, copy=False))
        bound.run(self._tracer)
        if self._tracer.enabled:
            self._tracer.metrics.counter("nn.batches").inc()
            self._tracer.metrics.counter("nn.samples").inc(len(x))
        return bound.view(bound.tg.output_vids[0]).astype(np.float64)

    def _bound(self, shape: tuple[int, ...]) -> Bound:
        key = tuple(int(d) for d in shape)
        bound = self._plans.get(key)
        if bound is None:
            tg = lower_frozen(self._frozen, key, self.store_dtype, self.compute_dtype)
            optimize_train(tg)
            bound = self._plans[key] = bind(tg)
            if self.store_dtype == np.float16:
                self._scratch[key] = np.empty(key, dtype=np.uint32)
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
    return CompiledModel(store, compute, freeze_module(model), tracer=tracer)
