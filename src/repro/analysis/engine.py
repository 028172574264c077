"""The analysis engine: parse the tree once, walk each file once.

A run reads and parses each file exactly once into a
:class:`~repro.analysis.project.Project` (trees and import tables),
then drives every selected checker from the one registry in
:mod:`repro.analysis.checkers` over each file: ``begin_file``, the
``visit_<NodeType>`` methods during a single walk of the file's AST
(the pylint/ruff architecture, scaled to domain rules), then
``end_file``.

Checkers never re-parse, never re-read, and never see suppressed
findings — inline ``# repro: disable=<rule>`` comments and the config's
global disables are filtered here, after collection, so suppression
counts stay observable.

Suppression syntax (comma-separated rule names, or ``all``), with a
mandatory trailing reason (``--`` or ``—`` separated) — a suppression
that does not say *why* is itself a finding (``suppression-reason``):

* ``some_code()  # repro: disable=clock-purity -- real-time UI path`` —
  suppress on this line;
* ``# repro: disable-file=vectorization -- ragged shapes`` — anywhere
  in the file, suppress for the whole file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.config import AnalysisConfig, module_matches
from repro.analysis.findings import Finding
from repro.analysis.project import (
    SUPPRESSION_REASON_RULE,
    Project,
    ProjectFile,
    build_project,
    project_from_source,
)

__all__ = [
    "AnalysisResult",
    "FileContext",
    "analyze_project",
    "analyze_source",
    "run_analysis",
]


@dataclass
class FileContext:
    """Everything per-file hooks may know about the file being walked."""

    file: ProjectFile
    project: Project
    config: AnalysisConfig
    findings: list[Finding] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.file.path

    @property
    def module(self) -> str:
        return self.file.module

    @property
    def tree(self) -> ast.Module:
        return self.file.tree

    def resolve(self, expr: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Goes through the file's import table (aliases and relative
        imports) and follows re-exports, so ``import time as t`` makes
        ``t.time`` read ``time.time`` and a package re-exporting
        ``time.time`` cannot hide it.
        """
        return self.project.resolve(self.module, expr)

    def report(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                severity=severity,
            )
        )

    def module_in(self, prefixes: list[str]) -> bool:
        """Whether this file's module falls under any prefix."""
        return module_matches(self.module, prefixes)


@dataclass
class AnalysisResult:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_suppressed: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run is clean."""
        return not self.findings


def analyze_project(
    project: Project,
    config: AnalysisConfig | None = None,
    checkers: list | None = None,
) -> AnalysisResult:
    """Run ``checkers`` (default: the full registry) over a built project.

    Checker instances hold state for one run: per-file hooks reset
    their per-file state in ``begin_file``.  Findings come back sorted,
    with suppressed and disabled ones counted, not reported.
    """
    if checkers is None:
        from repro.analysis.checkers import all_checkers

        checkers = all_checkers()
    config = config or AnalysisConfig()

    # dispatch table: node type name → bound visit methods, built once
    handlers: dict[str, list] = {}
    for checker in checkers:
        for attr in dir(checker):
            if attr.startswith("visit_"):
                handlers.setdefault(attr[len("visit_"):], []).append(
                    getattr(checker, attr)
                )

    raw: list[Finding] = []
    for pf in project.files.values():
        ctx = FileContext(file=pf, project=project, config=config)
        for checker in checkers:
            checker.begin_file(ctx)
        for node in ast.walk(pf.tree):
            for handler in handlers.get(type(node).__name__, ()):
                handler(node, ctx)
        for checker in checkers:
            checker.end_file(ctx)
        raw.extend(ctx.findings)

    result = AnalysisResult(
        findings=list(project.parse_findings),
        n_files=len(project.files) + len(project.parse_findings),
    )
    disabled = set(config.disable)
    by_path = {pf.path: pf.suppressions for pf in project.files.values()}
    for finding in raw:
        supp = by_path.get(finding.path)
        if finding.rule in disabled or (
            supp is not None and supp.covers(finding)
        ):
            result.n_suppressed += 1
        else:
            result.findings.append(finding)
    # reasonless suppressions surface after filtering, so a wildcard
    # `disable=all` cannot suppress the very finding that polices it
    if SUPPRESSION_REASON_RULE not in disabled:
        for pf in project.files.values():
            result.findings.extend(pf.suppressions.reason_findings(pf.path))
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def run_analysis(
    paths: list[Path],
    config: AnalysisConfig | None = None,
    checkers: list | None = None,
) -> AnalysisResult:
    """Lint every Python file under ``paths`` as one project."""
    config = config or AnalysisConfig()
    project = build_project(paths, root=config.root)
    return analyze_project(project, config, checkers)


def analyze_source(
    source: str,
    checkers: list | None = None,
    config: AnalysisConfig | None = None,
    module: str = "<module>",
    path: str = "<string>",
) -> AnalysisResult:
    """Lint one source string as a one-file project."""
    project = project_from_source(source, module=module, path=path)
    return analyze_project(project, config, checkers)
