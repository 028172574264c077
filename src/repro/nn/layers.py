"""Neural-network modules on top of the autograd engine.

A small PyTorch-shaped module system: ``Module`` owns ``Parameter``s,
``Sequential`` composes, and the layer set covers what the paper's two
models need — a residual CNN for the ML1 docking surrogate (ResNet-50's
role at laptop scale) and PointNet-style shared MLPs for the 3D-AAE.
"""

from __future__ import annotations

import numpy as np

from repro.nn import autograd as ag
from repro.nn.autograd import Tensor
from repro.nn.im2col import conv_index_plan

__all__ = [
    "Parameter",
    "Module",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "BatchNorm",
    "Sequential",
    "ResidualBlock",
    "PointwiseDense",
]


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class: parameter discovery, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        """Forward pass."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, depth-first, deterministic order."""
        params: list[Parameter] = []
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def modules(self) -> list["Module"]:
        """This module and every submodule, depth-first."""
        found: list[Module] = [self]
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Module):
                found.extend(value.modules())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        found.extend(item.modules())
        return found

    def train(self) -> "Module":
        """Set training mode on every submodule."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Set inference mode on every submodule."""
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------- state
    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter arrays keyed by deterministic position."""
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays written by :meth:`state_dict`."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(params)} parameters"
            )
        for i, p in enumerate(params):
            arr = state[f"p{i}"]
            if arr.shape != p.shape:
                raise ValueError(f"shape mismatch at p{i}: {arr.shape} vs {p.shape}")
            p.data = arr.copy()


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int):
    return rng.normal(scale=np.sqrt(2.0 / fan_in), size=shape)


class Dense(Module):
    """Affine layer ``y = x W + b`` on (batch, features) inputs."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(_he_init(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.matmul(x, self.weight) + self.bias


class PointwiseDense(Module):
    """Shared (per-point) affine layer on (batch, points, features) inputs.

    The PointNet building block: one weight matrix applied to every point —
    equivalent to Conv1d with kernel 1.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(_he_init(rng, (in_features, out_features), in_features))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.matmul(x, self.weight) + self.bias


class Conv2d(Module):
    """2-D convolution via im2col + matmul on (B, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            _he_init(rng, (out_channels, in_channels * kernel * kernel), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels))
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def _gather_indices(self, c: int, h: int, w: int) -> np.ndarray:
        """Flat indices into (C*H*W) selecting each im2col patch column.

        Plans live in the process-wide LRU of :mod:`repro.nn.im2col`, so
        the sixteen identical residual-stage convs of a deep model share
        one index array instead of building one per layer instance.
        """
        return conv_index_plan(self.kernel, self.stride, c, h, w)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        b, c, h, w = x.shape
        x = ag.pad2d(x, self.padding)
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        k, s = self.kernel, self.stride
        oh = (hp - k) // s + 1
        ow = (wp - k) // s + 1
        idx = self._gather_indices(c, hp, wp)
        cols = ag.conv_gather(x, idx, k, s)  # (b, c*k*k, oh*ow)
        out = ag.matmul(self.weight, cols)  # (b, out_c, oh*ow) via broadcasting
        out = out + ag.reshape(self.bias, (1, -1, 1))
        return ag.reshape(out, (b, self.weight.shape[0], oh, ow))


class MaxPool2d(Module):
    """2×2 (or k×k) non-overlapping max pooling via reshape."""

    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        b, c, h, w = x.shape
        k = self.kernel
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool {k}")
        x = ag.reshape(x, (b, c, h // k, k, w // k, k))
        return ag.tensor_max(x, axis=(3, 5))


class GlobalAvgPool2d(Module):
    """Average over spatial dims: (B, C, H, W) → (B, C)."""

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.tensor_mean(x, axis=(2, 3))


class Flatten(Module):
    """Collapse all non-batch dims: (B, …) → (B, features)."""
    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.reshape(x, (x.shape[0], -1))


class ReLU(Module):
    """Elementwise max(x, 0) activation."""
    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.relu(x)


class LeakyReLU(Module):
    """Leaky ReLU activation with configurable negative slope."""
    def __init__(self, slope: float = 0.2):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.leaky_relu(x, self.slope)


class Tanh(Module):
    """Hyperbolic tangent activation."""
    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.tanh(x)


class Sigmoid(Module):
    """Logistic sigmoid activation."""
    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        return ag.sigmoid(x)


class BatchNorm(Module):
    """Batch normalization over the batch axis (and spatial axes for 4-D).

    Keeps running statistics for eval mode.  Works on (B, F) and
    (B, C, H, W) inputs; for the latter, statistics are per channel.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        if x.ndim == 4:
            axes = (0, 2, 3)
            shape = (1, -1, 1, 1)
        elif x.ndim == 2:
            axes = (0,)
            shape = (1, -1)
        else:
            raise ValueError(f"BatchNorm expects 2-D or 4-D input, got {x.ndim}-D")
        if self.training:
            mean = ag.tensor_mean(x, axis=axes, keepdims=True)
            var = ag.tensor_mean((x - mean) * (x - mean), axis=axes, keepdims=True)
            # in-place EMA (same values as `(1-m)*rm + m*mean`), so the
            # arrays keep their identity — the compiled TrainStep replays
            # this update into the very same buffers
            ag.bn_stats(mean, var, self)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        xn = (x - mean) * ag.power(var + self.eps, -0.5)
        return xn * ag.reshape(self.gamma, shape) + ag.reshape(self.beta, shape)


class Sequential(Module):
    """Compose layers in order."""
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]

    def __len__(self) -> int:
        return len(self.layers)


class ResidualBlock(Module):
    """``y = act(f(x) + proj(x))`` — the ResNet skip-connection block."""

    def __init__(self, body: Module, projection: Module | None = None):
        super().__init__()
        self.body = body
        self.projection = projection

    def forward(self, x: Tensor) -> Tensor:
        """Forward pass."""
        skip = self.projection(x) if self.projection is not None else x
        return ag.relu(self.body(x) + skip)
