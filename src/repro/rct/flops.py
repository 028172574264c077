"""FLOP accounting — the Table 3 measurement methodology.

§7.2: "We measure flops … per work unit for the most relevant components
of each stage.  We define a work unit to be a representative code section
such as an MD time integration step for MD-based or a data sample for
DL-based applications.  Thus we can compute the aggregate invested flops
by scaling the measured flop counts to the respective work set sizes."

We do the same, except the counts are *analytic* over our kernels'
actual array shapes (the NumPy analogue of NSight Compute's counters):
every function documents the arithmetic it is counting.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    GlobalAvgPool2d,
    MaxPool2d,
    Module,
    PointwiseDense,
    ResidualBlock,
    Sequential,
)

__all__ = [
    "md_step_flops",
    "docking_eval_flops",
    "model_forward_flops",
]


def md_step_flops(n_beads: int, n_bonds: int = 0) -> float:
    """FLOPs of one Langevin MD step on an ``n_beads`` system.

    The dense nonbonded kernel touches every ordered pair: distance
    (8 flops), LJ (6), Coulomb (3), hydrophobic incl. exp (≈12, counting
    exp as 8), force assembly (9) ≈ 38 flops/pair.  Bond terms ≈ 25
    flops each; the integrator adds ≈ 18 flops/bead (two kicks, two
    drifts, OU refresh).
    """
    if n_beads < 1:
        raise ValueError("n_beads must be >= 1")
    pair = 38.0 * n_beads * n_beads
    bonds = 25.0 * n_bonds
    integrate = 18.0 * n_beads
    return pair + bonds + integrate


def docking_eval_flops(n_atoms: int) -> float:
    """FLOPs of one pose evaluation in the docking engine.

    Per atom: pose transform (18), three trilinear interpolations with
    gradients (≈ 60 each), energy/force assembly (≈ 15) ≈ 213 flops.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    return 213.0 * n_atoms


def model_forward_flops(model: Module, input_shape: tuple[int, ...]) -> float:
    """FLOPs of one forward pass of a layer tree for a single example.

    Walks the module structure propagating the activation shape, using
    the standard multiply-accumulate = 2 flops convention.
    """
    flops, _ = _walk(model, tuple(input_shape))
    return flops


def _walk(module: Module, shape: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    if isinstance(module, Sequential):
        total = 0.0
        for layer in module.layers:
            f, shape = _walk(layer, shape)
            total += f
        return total, shape
    if isinstance(module, ResidualBlock):
        body_f, out_shape = _walk(module.body, shape)
        proj_f = 0.0
        if module.projection is not None:
            proj_f, _ = _walk(module.projection, shape)
        add_relu = 2.0 * float(np.prod(out_shape))
        return body_f + proj_f + add_relu, out_shape
    if isinstance(module, Dense):
        in_f, out_f = module.weight.shape
        lead = float(np.prod(shape[:-1])) if len(shape) > 1 else 1.0
        return lead * (2.0 * in_f * out_f + out_f), shape[:-1] + (out_f,)
    if isinstance(module, PointwiseDense):
        in_f, out_f = module.weight.shape
        lead = float(np.prod(shape[:-1]))
        return lead * (2.0 * in_f * out_f + out_f), shape[:-1] + (out_f,)
    if isinstance(module, Conv2d):
        c, h, w = shape
        k, s, p = module.kernel, module.stride, module.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        out_c = module.weight.shape[0]
        macs = out_c * oh * ow * c * k * k
        return 2.0 * macs, (out_c, oh, ow)
    if isinstance(module, MaxPool2d):
        c, h, w = shape
        k = module.kernel
        return float(c * h * w), (c, h // k, w // k)
    if isinstance(module, GlobalAvgPool2d):
        c, h, w = shape
        return float(c * h * w), (c,)
    if isinstance(module, BatchNorm):
        return 2.0 * float(np.prod(shape)), shape
    # activations and shape-only layers: ~1 flop per element
    return float(np.prod(shape)), shape
