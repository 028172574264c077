"""Checker protocol.

A checker is one rule.  The engine drives two kinds of hook on every
checker it runs, and a rule implements whichever it needs:

* per-file hooks: ``visit_<NodeType>`` methods, called with
  ``(node, ctx)`` during the single AST walk of each file, bracketed by
  ``begin_file``/``end_file`` for setup and whole-file rules;
* ``check(project, config)``, called once after every file has been
  walked, for rules that need the symbol table and call graph.

Checkers report through :meth:`report` (per file) or return findings
built by :meth:`finding` (whole program), and never filter suppressions
themselves.  An instance holds state for one run.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.project import Project

__all__ = ["Checker"]


class Checker:
    """Base class: one rule."""

    #: rule name used in findings, config disables and suppressions
    rule: str = ""
    #: one-line description shown by ``repro-lint --list-rules``
    description: str = ""
    #: default severity of this rule's findings
    severity: str = "error"

    def begin_file(self, ctx: FileContext) -> None:
        """Per-file setup (allowlist checks, per-file state)."""

    def end_file(self, ctx: FileContext) -> None:
        """Whole-file rules that need the complete walk first."""

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        """Whole-program rules, run after every file was walked."""
        return []

    def report(self, ctx: FileContext, node, message: str) -> None:
        """Report a finding under this checker's rule and severity."""
        ctx.report(self.rule, node, message, severity=self.severity)

    def finding(
        self, message: str, path: str, line: int, col: int = 0
    ) -> Finding:
        """Build one whole-program finding under this checker's rule."""
        return Finding(
            rule=self.rule,
            message=message,
            path=path,
            line=line,
            col=col,
            severity=self.severity,
        )
