"""S3 — ESMACS ensemble binding free-energy protocol (CG and FG)."""

from repro.esmacs.analysis import (
    ranking_correlation,
    repeat_reliability,
)
from repro.esmacs.mmpbsa import BindingEstimator
from repro.esmacs.protocol import CG, FG, EsmacsConfig, EsmacsResult, EsmacsRunner

__all__ = [
    "BindingEstimator",
    "CG",
    "EsmacsConfig",
    "EsmacsResult",
    "EsmacsRunner",
    "FG",
    "ranking_correlation",
    "repeat_reliability",
]
