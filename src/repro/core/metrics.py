"""Campaign performance metrics.

The paper's three measures (§Abstract): (i) throughput — ligands per
unit time; (ii) scientific performance — *effective* ligands sampled per
unit time (ligands that are actually worth sampling, not just sampled);
(iii) peak flop/s (handled by :mod:`repro.rct.flops` + the cost model).
This module implements (i) as :attr:`StageAccounting.ligands_per_second`,
(ii), and the enrichment bookkeeping both need.
"""

from __future__ import annotations

from dataclasses import dataclass, field


__all__ = ["enrichment_factor", "StageAccounting", "CampaignMetrics"]


def enrichment_factor(
    selected_ids: set[str], true_top_ids: set[str], universe_size: int
) -> float:
    """How over-represented the true top compounds are in a selection.

    ``EF = (hits/|selected|) / (|true_top|/universe)``; EF = 1 is random,
    higher is better.  An empty selection is an error.
    """
    if not selected_ids:
        raise ValueError("selection is empty")
    if universe_size < len(true_top_ids) or universe_size < 1:
        raise ValueError("universe smaller than the true-top set")
    if not true_top_ids:
        raise ValueError("true-top set is empty")
    hit_rate = len(selected_ids & true_top_ids) / len(selected_ids)
    base_rate = len(true_top_ids) / universe_size
    return hit_rate / base_rate


@dataclass
class StageAccounting:
    """Work and time attributed to one pipeline stage in one iteration."""

    stage: str
    n_ligands: int = 0
    wall_seconds: float = 0.0
    node_hours: float = 0.0

    @property
    def ligands_per_second(self) -> float:
        """Stage throughput (0 when no time elapsed)."""
        return self.n_ligands / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class CampaignMetrics:
    """Per-iteration campaign scorecard."""

    iteration: int
    stages: dict[str, StageAccounting] = field(default_factory=dict)
    enrichment_s1: float = 0.0  # EF of the ML1→S1 selection
    enrichment_cg: float = 0.0  # EF of the S1→CG selection
    effective_ligands: int = 0  # true-top ligands that reached S3-CG or deeper
    surrogate_val_loss: float = float("nan")

    def total_node_hours(self) -> float:
        """Node-hours summed over all stages."""
        return sum(s.node_hours for s in self.stages.values())

    def scientific_performance(self) -> float:
        """Effective ligands per node-hour — the paper's measure (ii)."""
        nh = self.total_node_hours()
        return self.effective_ligands / nh if nh > 0 else 0.0

    def publish(self, registry) -> None:
        """Mirror this scorecard into a telemetry metrics registry.

        Per-stage ligand counts and node-hours become counters
        (accumulating across iterations); per-stage node-hours feed a
        shared histogram.  Only work-derived quantities are published —
        wall-clock seconds are deliberately excluded so a traced
        simulated run's metrics snapshot stays deterministic.
        Idempotence is the caller's concern — publish each iteration's
        metrics exactly once.
        """
        for name, s in sorted(self.stages.items()):
            registry.counter(f"campaign.{name}.ligands").inc(s.n_ligands)
            registry.counter(f"campaign.{name}.node_hours").inc(s.node_hours)
            registry.histogram("campaign.stage_node_hours").observe(s.node_hours)
        registry.gauge("campaign.effective_ligands").set(self.effective_ligands)
        registry.gauge("campaign.iteration").set(self.iteration)

    def summary(self) -> str:
        """Human-readable multi-line report."""
        rows = [f"iteration {self.iteration}:"]
        for name, s in sorted(self.stages.items()):
            rows.append(
                f"  {name:6s} {s.n_ligands:6d} ligands "
                f"{s.wall_seconds:8.1f}s  {s.node_hours:10.4f} node-h "
                f"({s.ligands_per_second:9.2f} lig/s)"
            )
        rows.append(
            f"  EF(ML1→S1)={self.enrichment_s1:.2f} EF(S1→CG)={self.enrichment_cg:.2f} "
            f"effective={self.effective_ligands} "
            f"sci-perf={self.scientific_performance():.3f} lig/node-h"
        )
        return "\n".join(rows)
