"""Checker protocol.

A checker is one rule, and every rule is per-file.  The engine calls
``begin_file``, then the ``visit_<NodeType>`` methods with
``(node, ctx)`` during the single AST walk of the file, then
``end_file`` for rules that need the whole file first.  Checkers report
through :meth:`report` and never filter suppressions themselves.  An
instance holds state for one run.
"""

from __future__ import annotations

from repro.analysis.engine import FileContext

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

    def report(self, ctx: FileContext, node, message: str) -> None:
        """Report a finding under this checker's rule and severity."""
        ctx.report(self.rule, node, message, severity=self.severity)
