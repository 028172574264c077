"""Regression Enrichment Surfaces (RES) — Fig 4's analysis.

RES (Clyde et al. 2020) asks: *if I can only pass δ compounds downstream,
what fraction of the true top-y compounds does the surrogate's predicted
top-δ capture?*  The surface sweeps both the budget fraction x = δ/u and
the true-top threshold y over log-spaced grids.  The paper reads two
operating points off this plot for PLPro: at δ = 10⁻³·u the model covers
~50 % of the true top 10⁻⁴ and ~40 % of the true top 10⁻³.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["res_surface", "RESResult", "top_fraction_recall"]


def top_fraction_recall(
    true_scores: np.ndarray,
    pred_scores: np.ndarray,
    budget_fraction: float,
    top_fraction: float,
    lower_is_better: bool = True,
) -> float:
    """Recall of the true top-``top_fraction`` inside the predicted
    top-``budget_fraction``.

    With ``lower_is_better`` (docking convention) the "top" of either
    ranking is its smallest values.
    """
    true_scores = np.asarray(true_scores, dtype=np.float64)
    pred_scores = np.asarray(pred_scores, dtype=np.float64)
    if true_scores.shape != pred_scores.shape:
        raise ValueError("score arrays must have the same shape")
    n = len(true_scores)
    if n == 0:
        raise ValueError("empty score arrays")
    if not (0 < budget_fraction <= 1 and 0 < top_fraction <= 1):
        raise ValueError("fractions must be in (0, 1]")
    sign = 1.0 if lower_is_better else -1.0
    k_budget = max(1, int(round(budget_fraction * n)))
    k_top = max(1, int(round(top_fraction * n)))
    pred_top = set(np.argsort(sign * pred_scores, kind="stable")[:k_budget].tolist())
    true_top = np.argsort(sign * true_scores, kind="stable")[:k_top]
    hits = sum(1 for i in true_top if i in pred_top)
    return hits / k_top


@dataclass
class RESResult:
    """A computed regression enrichment surface."""

    budget_fractions: np.ndarray  # x-axis (δ/u), log spaced
    top_fractions: np.ndarray  # y-axis (true top threshold), log spaced
    surface: np.ndarray  # (len(top), len(budget)) recall values

    def ascii_plot(self, width: int = 60) -> str:
        """Terminal rendering of the surface (columns = budget, rows = top)."""
        lines = ["RES surface (rows: true-top fraction, cols: budget fraction)"]
        header = "          " + " ".join(
            f"{b:7.1e}" for b in self.budget_fractions
        )
        lines.append(header[: max(width, len(header))])
        for tf, surface_row in zip(self.top_fractions, self.surface):
            row = " ".join(f"{v:7.2f}" for v in surface_row)
            lines.append(f"{tf:9.1e} {row}")
        return "\n".join(lines)


def res_surface(
    true_scores: np.ndarray,
    pred_scores: np.ndarray,
    n_budget: int = 6,
    n_top: int = 5,
    min_fraction: float | None = None,
    lower_is_better: bool = True,
) -> RESResult:
    """Compute the full RES grid.

    Axes are log-spaced from ``min_fraction`` (default: the smallest
    fraction that still contains one compound) to 1.
    """
    true_scores = np.asarray(true_scores, dtype=np.float64)
    n = len(true_scores)
    if n < 10:
        raise ValueError("RES needs at least 10 compounds")
    lo = min_fraction if min_fraction is not None else max(1.0 / n, 1e-6)
    budgets = np.logspace(np.log10(lo), 0.0, n_budget)
    tops = np.logspace(np.log10(lo), 0.0, n_top)
    surface = np.array(
        [
            [
                top_fraction_recall(
                    true_scores, pred_scores, bf, tf, lower_is_better=lower_is_better
                )
                for bf in budgets
            ]
            for tf in tops
        ]
    )
    return RESResult(budget_fractions=budgets, top_fractions=tops, surface=surface)
