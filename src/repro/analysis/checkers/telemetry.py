"""telemetry-discipline: spans are always closed.

``tracer.span(...)`` is only ever used as a context manager.  The span
API leans on ``with`` for the enter/exit pairing that keeps the
thread-local nesting stack balanced; a bare call opens a span that
never closes and silently corrupts every descendant's parent edge, and
with it the telemetry layer's byte-identical-trace contract.
(``start_span``/``record_span`` are the sanctioned manual APIs.)

Direct wall-clock reads are clock-purity's job: outside ``clock-allow``
every module reads time through an injected clock object.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["TelemetryDisciplineChecker"]


def _receiver_tail(node: ast.expr) -> str | None:
    """Final identifier of the receiver chain (``self._tracer`` → ``_tracer``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class TelemetryDisciplineChecker(Checker):
    """Flag ``tracer.span(...)`` calls that are not a ``with`` item."""

    rule = "telemetry-discipline"
    description = "tracer.span(...) must be a context manager"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "span":
            tail = _receiver_tail(func.value)
            if tail is not None and "tracer" in tail.lower():
                parent = getattr(node, "_repro_parent", None)
                if not isinstance(parent, ast.withitem):
                    self.report(
                        ctx,
                        node,
                        "tracer.span(...) outside a with-statement leaks an "
                        "open span and unbalances the nesting stack; use "
                        "`with tracer.span(...):` (or start_span/record_span "
                        "for manual timing)",
                    )
