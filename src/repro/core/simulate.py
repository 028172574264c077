"""Paper-scale campaign simulation: the task-graph generator for Fig 7,
Table 3 and the throughput benches.

Where :mod:`repro.core.campaign` runs the real science at laptop scale,
this module emits the *same* workflow structure with paper-scale task
counts and cost-model durations, to be executed on the simulated
cluster.  The integrated (S3-CG)-(S2)-(S3-FG) workflow of Fig 7 is one
pipeline per compound cohort, exactly as §6.1.3 describes.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.core.costs import CostModel
from repro.rct.backends import SimExecutor
from repro.rct.cluster import Allocation, Cluster
from repro.rct.entk import Pipeline, Stage
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec
from repro.util.config import FrozenConfig, validate_positive

__all__ = ["SimulatedCampaignConfig", "build_integrated_pipelines", "simulate_integrated_run"]


@dataclass(frozen=True)
class SimulatedCampaignConfig(FrozenConfig):
    """Counts for a paper-scale (S3-CG)-(S2)-(S3-FG) window."""

    n_nodes: int = 120
    cg_compounds: int = 96
    s2_compounds: int = 10
    fg_compounds: int = 25
    cohorts: int = 4  # concurrent pipelines (compound batches)
    launch_overhead: float = 1.0
    #: lognormal sigma on task durations — §5.2's workload dynamism
    #: ("each LPC has a different rate of convergence … the duration
    #: varies"); also desynchronizes cohort barriers as in production
    heterogeneity: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        validate_positive("n_nodes", self.n_nodes)
        validate_positive("cg_compounds", self.cg_compounds)
        validate_positive("cohorts", self.cohorts)
        if self.heterogeneity < 0:
            raise ValueError("heterogeneity must be non-negative")


def build_integrated_pipelines(
    config: SimulatedCampaignConfig, cost_model: CostModel
) -> list[Pipeline]:
    """One pipeline per compound cohort: CG stage → S2 stage → FG stage."""
    from repro.esmacs.protocol import CG, FG
    from repro.util.rng import rng_stream

    rng = rng_stream(config.seed, "simulate/heterogeneity")

    def vary(task: TaskSpec) -> TaskSpec:
        if config.heterogeneity > 0:
            task.duration *= float(rng.lognormal(0.0, config.heterogeneity))
        return task

    pipelines = []
    per = max(1, config.cg_compounds // config.cohorts)
    s2_per = max(1, config.s2_compounds // config.cohorts)
    fg_per = max(1, config.fg_compounds // config.cohorts)
    for c in range(config.cohorts):
        stages = [
            Stage(
                name=f"cg-{c}",
                tasks=[
                    vary(cost_model.esmacs_task(CG, f"c{c}-{i}", "S3-CG"))
                    for i in range(per)
                ],
            ),
            Stage(
                name=f"s2-{c}",
                tasks=[vary(cost_model.s2_task(f"c{c}-{i}")) for i in range(s2_per)],
            ),
            Stage(
                name=f"fg-{c}",
                tasks=[
                    vary(cost_model.esmacs_task(FG, f"c{c}-{i}", "S3-FG"))
                    for i in range(fg_per)
                ],
            ),
        ]
        pipelines.append(Pipeline(name=f"cohort-{c}", stages=stages))
    return pipelines


def simulate_integrated_run(
    config: SimulatedCampaignConfig | None = None,
    cost_model: CostModel | None = None,
    tracer=None,
    fault_model=None,
    retry=None,
) -> Pilot:
    """Execute the integrated workflow on a simulated pilot; returns the
    pilot (whose utilization tracker holds the Fig 7 series).

    An explicit ``tracer`` collects the pilot's task/backoff spans into a
    shared trace; by default the pilot keeps its own private tracer.  A
    ``fault_model`` injects per-attempt failures into the simulated
    executor, re-driven under ``retry`` (the pilot's default
    drop-and-continue policy applies when retries are exhausted).
    """
    from repro.rct.entk import AppManager

    config = config or SimulatedCampaignConfig()
    cost_model = cost_model or CostModel()
    cluster = Cluster(config.n_nodes, cost_model.node)
    allocation: Allocation = cluster.allocate(config.n_nodes, 0.0)
    pilot = Pilot(
        allocation,
        SimExecutor(config.launch_overhead, fault_model=fault_model),
        retry=retry,
        tracer=tracer,
    )
    AppManager(pilot).run(build_integrated_pipelines(config, cost_model))
    return pilot
