"""repro.analysis — per-file lint engine with domain checkers.

Generic linters cannot express this codebase's correctness invariants:
simulated stages must advance only the executor clock, hot kernels must
stay vectorized, shared ledgers touched from worker threads must be
lock-guarded, and durable files must be written tmp-first and then
replaced.  This package checks those four statically — parse the tree
once (import tables that follow re-exports), then walk each file once
under every registered rule — so the bug classes once fixed in
production (wall-clock reads in simulated stages, the RAPTOR thread
pool's busy-accounting race, a torn `save_model` write) are caught at
lint time instead.

Run it as ``repro-lint`` or ``python -m repro.analysis``; configure via
``[tool.repro-lint]`` in pyproject.toml; suppress single findings with
``# repro: disable=<rule>``.
"""

from repro.analysis.config import AnalysisConfig, ConfigError
from repro.analysis.engine import (
    AnalysisResult,
    FileContext,
    analyze_project,
    analyze_source,
    run_analysis,
)
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "ConfigError",
    "FileContext",
    "Finding",
    "analyze_project",
    "analyze_source",
    "render_json",
    "render_text",
    "run_analysis",
]
