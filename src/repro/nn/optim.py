"""Optimizers: Adam, RMSprop.

RMSprop is what the paper trains the 3D-AAE with (§7.1.3); Adam is used
for the ML1 surrogate.  Optimizers mutate ``Parameter.data`` in place and
read gradients accumulated by ``backward()``.

Updates are applied through explicit ``out=`` ufunc sequences that are
bitwise-identical to the textbook expression forms (scalar×array
multiplication is exactly commutative in IEEE-754, and every staged
intermediate reproduces the expression tree's evaluation order), so the
rewrite changes allocation behaviour only: two preallocated scratch
buffers replace the 4+ full-size temporaries per parameter the
expression forms materialised.  Moment buffers live in one flat
:class:`~repro.nn.graph.planner.StateArena` per moment kind — persistent
optimizer-owned state that outlives any batch-size-specific activation
plan of the compiled training path.

:meth:`~_Optimizer.bind_compiled` returns a zero-argument closure that
applies the same in-place sequences to gradient arrays bound once (the
compiled :class:`~repro.nn.graph.train.TrainStep` arena's gradient
slots): eager ``step()`` and the compiled path share ``_update``
verbatim, making their trajectories bitwise-identical by construction.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph.planner import plan_state_arena
from repro.nn.layers import Parameter

__all__ = ["Adam", "RMSprop"]


class _Optimizer:
    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not params:
            raise ValueError("no parameters to optimize")
        self.params = list(params)
        self.lr = lr
        self._scratch_bufs: dict[np.dtype, list[np.ndarray]] = {}

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.params:
            p.grad = None

    def _state_views(self, n_kinds: int) -> list[list[np.ndarray]]:
        """``n_kinds`` arenas of per-parameter zeroed moment views."""
        shapes = [p.data.shape for p in self.params]
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) == 1:
            dtype = dtypes.pop()
            arenas = [plan_state_arena(shapes, dtype) for _ in range(n_kinds)]
            self._state_arenas = arenas
            return [a.views for a in arenas]
        # mixed-precision parameter lists fall back to per-param buffers
        self._state_arenas = []
        return [
            [np.zeros_like(p.data) for p in self.params] for _ in range(n_kinds)
        ]

    def _scratch(self, n_bufs: int, shape: tuple[int, ...], dtype) -> list[np.ndarray]:
        """Reusable flat scratch buffers viewed at ``shape``."""
        key = np.dtype(dtype)
        bufs = self._scratch_bufs.get(key)
        if bufs is None or len(bufs) < n_bufs:
            size = max(max(p.data.size for p in self.params), 1)
            bufs = [np.empty(size, dtype=key) for _ in range(n_bufs)]
            self._scratch_bufs[key] = bufs
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return [b[:n].reshape(shape) for b in bufs[:n_bufs]]

    def _prologue(self) -> tuple:
        """Per-step scalars passed through to ``_update`` (e.g. Adam's
        bias corrections); advances any step counter exactly once."""
        return ()

    def _update(self, idx: int, p: Parameter, g: np.ndarray, *extra) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        extra = self._prologue()
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._update(i, p, p.grad.data, *extra)

    def bind_compiled(self, grads: dict[int, np.ndarray]):
        """Closure applying one step from pre-bound gradient arrays.

        ``grads`` maps parameter position → the arena view holding that
        parameter's accumulated gradient after a compiled replay.  The
        closure runs the exact ``_update`` sequences ``step()`` runs, in
        the same parameter order, so eager and compiled trajectories
        (weights *and* moments) stay bitwise-identical.
        """
        items = [(pos, self.params[pos], grads[pos]) for pos in sorted(grads)]

        def run() -> None:
            extra = self._prologue()
            for pos, p, g in items:
                self._update(pos, p, g, *extra)

        return run


class Adam(_Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.b1, self.b2 = betas
        self.eps = eps
        self._m, self._v = self._state_views(2)
        self._t = 0

    def _prologue(self) -> tuple:
        self._t += 1
        return (1 - self.b1**self._t, 1 - self.b2**self._t)

    def _update(
        self, idx: int, p: Parameter, g: np.ndarray, b1t: float, b2t: float
    ) -> None:
        m, v = self._m[idx], self._v[idx]
        s1, s2 = self._scratch(2, g.shape, g.dtype)
        np.multiply(m, self.b1, out=m)  # m *= b1
        np.multiply(g, 1 - self.b1, out=s1)
        np.add(m, s1, out=m)  # m += (1-b1)·g
        np.multiply(v, self.b2, out=v)  # v *= b2
        np.multiply(g, 1 - self.b2, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)  # v += (1-b2)·g·g
        np.divide(m, b1t, out=s1)
        np.multiply(s1, self.lr, out=s1)  # lr·(m/b1t)
        np.divide(v, b2t, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, self.eps, out=s2)  # sqrt(v/b2t)+eps
        np.divide(s1, s2, out=s1)
        np.subtract(p.data, s1, out=p.data)


class RMSprop(_Optimizer):
    """RMSprop — the optimizer the paper's 3D-AAE training uses."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-5,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        (self._sq,) = self._state_views(1)

    def _update(self, idx: int, p: Parameter, g: np.ndarray) -> None:
        sq = self._sq[idx]
        s1, s2 = self._scratch(2, g.shape, g.dtype)
        np.multiply(sq, self.alpha, out=sq)  # sq *= alpha
        np.multiply(g, 1 - self.alpha, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(sq, s1, out=sq)  # sq += (1-alpha)·g·g
        np.multiply(g, self.lr, out=s1)  # lr·g
        np.sqrt(sq, out=s2)
        np.add(s2, self.eps, out=s2)  # sqrt(sq)+eps
        np.divide(s1, s2, out=s1)
        np.subtract(p.data, s1, out=p.data)
