"""From-scratch NumPy deep-learning stack.

Replaces PyTorch + TensorRT in the paper's pipeline: a reverse-mode
autograd engine with double-backprop support (for WGAN-GP), a module/layer
system, optimizers (incl. the paper's RMSprop), the Chamfer and gradient
penalty losses, FP16 compiled inference, and the gzip-sharded threaded
data pipeline of §6.1.1.
"""

from repro.nn import autograd
from repro.nn.autograd import Tensor, as_tensor, grad, no_grad
from repro.nn.dataloader import PrefetchLoader, ShardReader
from repro.nn.inference import CompiledModel, compile_model
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    Module,
    Parameter,
    PointwiseDense,
    ReLU,
    ResidualBlock,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    bce_loss,
    chamfer_distance,
    mse_loss,
)
from repro.nn.optim import Adam, RMSprop
from repro.nn.serialization import load_model, save_model

__all__ = [
    "Adam",
    "BatchNorm",
    "CompiledModel",
    "Conv2d",
    "Dense",
    "Flatten",
    "GlobalAvgPool2d",
    "LeakyReLU",
    "MaxPool2d",
    "Module",
    "Parameter",
    "PointwiseDense",
    "PrefetchLoader",
    "ReLU",
    "RMSprop",
    "ResidualBlock",
    "Sequential",
    "ShardReader",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "as_tensor",
    "autograd",
    "bce_loss",
    "chamfer_distance",
    "compile_model",
    "grad",
    "load_model",
    "mse_loss",
    "no_grad",
    "save_model",
]
