"""Workflow infrastructure — the RADICAL-Cybertools role.

EnTK-style PST programming model, a pilot-job system over a simulated
cluster (with a real thread backend for small runs), the RAPTOR
master/worker overlay, utilization tracking (Fig 7) and FLOP accounting
(Table 3).
"""

from repro.rct.backends import (
    ExecutorBackend,
    ProcessExecutor,
    SimExecutor,
    ThreadExecutor,
    create_executor,
)
from repro.rct.cluster import SUMMIT_NODE, Allocation, Cluster, NodeSpec
from repro.rct.entk import AppManager, Pipeline, Stage
from repro.rct.fault import (
    FailureSummary,
    FaultModel,
    FaultOutcome,
    RetryPolicy,
    TaskFailedError,
)
from repro.rct.flops import (
    docking_eval_flops,
    md_step_flops,
    model_forward_flops,
)
from repro.rct.pilot import Pilot, Placement
from repro.rct.raptor import RaptorConfig, RaptorResult, simulate_raptor
from repro.rct.task import TaskRecord, TaskSpec, TaskState
from repro.rct.tasklog import TaskLog
from repro.rct.utilization import UtilizationSeries, UtilizationTracker

__all__ = [
    "Allocation",
    "AppManager",
    "Cluster",
    "ExecutorBackend",
    "FailureSummary",
    "FaultModel",
    "FaultOutcome",
    "NodeSpec",
    "Pilot",
    "ProcessExecutor",
    "RetryPolicy",
    "TaskFailedError",
    "Pipeline",
    "Placement",
    "RaptorConfig",
    "RaptorResult",
    "SUMMIT_NODE",
    "SimExecutor",
    "Stage",
    "TaskLog",
    "TaskRecord",
    "TaskSpec",
    "TaskState",
    "ThreadExecutor",
    "UtilizationSeries",
    "UtilizationTracker",
    "create_executor",
    "docking_eval_flops",
    "md_step_flops",
    "model_forward_flops",
    "simulate_raptor",
]
