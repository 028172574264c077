"""The IMPECCABLE campaign core: the integrated loop, cost model,
ground-truth oracle and performance metrics."""

from repro.core.campaign import (
    CampaignConfig,
    CampaignResult,
    ImpeccableCampaign,
    IterationResult,
    StageUnit,
)
from repro.core.costs import PAPER_TABLE2, CostModel
from repro.core.metrics import (
    CampaignMetrics,
    StageAccounting,
    enrichment_factor,
)
from repro.core.simulate import (
    SimulatedCampaignConfig,
    build_integrated_pipelines,
    simulate_integrated_run,
)
from repro.core.streaming import StreamedScreenResult, run_streamed_screen
from repro.core.tracedemo import run_traced_demo
from repro.core.truth import ReferenceOracle

__all__ = [
    "CampaignConfig",
    "CampaignMetrics",
    "CampaignResult",
    "CostModel",
    "ImpeccableCampaign",
    "IterationResult",
    "PAPER_TABLE2",
    "ReferenceOracle",
    "SimulatedCampaignConfig",
    "StageAccounting",
    "StageUnit",
    "StreamedScreenResult",
    "build_integrated_pipelines",
    "enrichment_factor",
    "run_streamed_screen",
    "run_traced_demo",
    "simulate_integrated_run",
]
