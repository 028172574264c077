"""Compiled training steps: trace the eager engine once, replay with
``out=`` kernels forever after.

:class:`TrainStep` wraps a loss function ``fn(*tensors) -> Tensor`` (or a
tuple whose first element is the loss) plus an optimizer.  The first call
at each input-shape signature **is** an ordinary eager training step —
forward, ``backward()``, ``optimizer.step()`` — whose forward and
backward run under a :class:`~repro.nn.autograd.Tape` that lowers each
op to a :class:`~repro.nn.graph.backward.TrainGraph` as it records;
``backward()`` frees the eager graph as it walks it (the cycles through
the ``exp``/``tanh``/``sigmoid`` VJPs too, and a second backward through
it raises ``RuntimeError``), so the step peaks at about its forward and
nothing of it is left when the arena is allocated.  The graph is
scheduled by the shared passes (dead-branch elimination, in-place
coalescing — no arithmetic is reassociated), then arena-planned and
bound to a flat list of kernel thunks by
:func:`~repro.nn.graph.executor.bind`, the binder compiled inference
uses too.  Subsequent same-shape calls replay the kernels against
preallocated views and finish with the optimizer's
:meth:`~repro.nn.optim._Optimizer.bind_compiled` closure: zero
per-step array allocations, and — because every op runs the very kernel its eager
op ran, on identically-laid-out operands — weights, losses and
optimizer state stay **bitwise-identical** to the eager trainer at every
step.

The eager path therefore remains the oracle: any divergence is a bug in
the compiler, never a tolerance question.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.graph.backward import build_train_graph
from repro.nn.graph.executor import Bound, bind
from repro.nn.graph.passes import PassStats, optimize_train
from repro.nn.graph.planner import MemoryPlan
from repro.nn.layers import Parameter

__all__ = ["TrainStep"]


def _trim_heap() -> None:
    """Hand the pages of freed heap memory back to the OS (glibc).

    glibc serves an allocation below its mmap threshold from the heap and
    keeps the pages after ``free``; the threshold rises to the size of
    the largest mmapped block freed so far (up to 32 MiB), so whether the
    eager step's activations land there depends on what the process freed
    earlier.  Where they do, the arena allocated next would sit on top of
    their pages and the step's peak RSS would be their sum, not their
    maximum.  A no-op where the C library has no ``malloc_trim``.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


@dataclass
class _Compiled:
    """One bound plan for a fixed input-shape signature."""

    bound: Bound
    input_views: list[np.ndarray]
    output_views: list[np.ndarray]
    grad_views: dict[int, np.ndarray]
    opt_run: Callable[[], None]
    guards: list[tuple[Parameter, np.ndarray]]
    pass_stats: PassStats = field(default_factory=dict)

    @property
    def plan(self) -> MemoryPlan:
        """The arena plan the kernels are bound to."""
        return self.bound.plan


class TrainStep:
    """A compiled ``fwd+bwd+optimizer`` step with an eager oracle.

    Parameters
    ----------
    fn:
        ``fn(*tensors) -> Tensor | tuple[Tensor, ...]``; the first (or
        only) returned tensor is the loss that ``backward()`` runs on.
        Auxiliary outputs are returned alongside the loss on every call.
    optimizer:
        Owns the parameters to update; its in-place ``_update``
        sequences run identically on both paths.
    input_requires_grad:
        Per-input flags (default all ``False``); inputs that require
        grad (e.g. WGAN-GP interpolates) participate in double backward.

    Calls take numpy arrays and return floats (0-d outputs) / array
    copies.  The first call at each input-shape signature runs — and
    *is* — the eager step while tracing; later same-shape calls replay
    the compiled kernels.  Trajectories are bitwise-identical either
    way.
    """

    def __init__(
        self,
        fn: Callable[..., Tensor | tuple],
        optimizer,
        input_requires_grad: Sequence[bool] | None = None,
    ) -> None:
        self.fn = fn
        self.optimizer = optimizer
        self._flags = tuple(input_requires_grad) if input_requires_grad else None
        self._plans: dict[tuple, _Compiled] = {}
        self._last_grads: list[np.ndarray] = []

    # ------------------------------------------------------------- tracing
    def _trace(self, key: tuple, arrays: Sequence[np.ndarray]) -> tuple:
        flags = self._flags or (False,) * len(arrays)
        xs = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        self.optimizer.zero_grad()
        params = self.optimizer.params
        tg, outs_t = build_train_graph(self.fn, xs, params)
        result = tuple(float(t.data) if t.data.ndim == 0 else t.data.copy() for t in outs_t)
        self.optimizer.step()
        _trim_heap()

        stats = optimize_train(tg)
        bound = bind(tg)
        grad_views = {pos: bound.view(vid) for pos, vid in tg.grad_vids.items()}
        guards = [
            (v.param, v.data)
            for v in tg.values
            if v.param is not None and v.kind in ("param", "extern")
        ]
        self._plans[key] = _Compiled(
            bound=bound,
            input_views=[bound.view(vid) for vid in tg.input_vids],
            output_views=[bound.view(vid) for vid in tg.output_vids],
            grad_views=grad_views,
            opt_run=self.optimizer.bind_compiled(grad_views),
            guards=guards,
            pass_stats=stats,
        )
        self._last_grads = [p.grad.data for p in params if p.grad is not None]
        return result

    # -------------------------------------------------------------- replay
    def __call__(self, *arrays: np.ndarray):
        arrays = tuple(np.asarray(a) for a in arrays)
        key = tuple(a.shape for a in arrays)
        c = self._plans.get(key)
        if c is None:
            outs = self._trace(key, arrays)
            return outs[0] if len(outs) == 1 else outs
        for p, captured in c.guards:
            if p.data is not captured:
                raise RuntimeError(
                    "parameter storage was rebound after tracing; compiled "
                    "TrainStep requires in-place parameter updates"
                )
        for view, a in zip(c.input_views, arrays):
            np.copyto(view, a)
        c.bound.run()
        c.opt_run()
        self._last_grads = [c.grad_views[pos] for pos in sorted(c.grad_views)]
        outs = tuple(
            float(v) if v.ndim == 0 else v.copy() for v in c.output_views
        )
        return outs[0] if len(outs) == 1 else outs

    # ----------------------------------------------------------- telemetry
    def grad_norm(self) -> float:
        """Global L2 norm of the last step's gradients (either path),
        computed with the same per-parameter loop as the eager reference's
        ``grad_norm``, so telemetry values match across engines bitwise."""
        total = 0.0
        for g in self._last_grads:
            total += float((g**2).sum())
        return float(np.sqrt(total))

    def plan_info(self) -> dict:
        """Per-shape compile statistics (for benchmarks/diagnostics)."""
        info: dict = {}
        for key, c in self._plans.items():
            info[str(key)] = {**c.bound.info(), "pass_stats": dict(c.pass_stats)}
        return info
