"""clock-purity: simulated code must never read or spin the wall clock.

The campaign's scaling results come from a discrete-event executor whose
virtual clock *is* the experiment; a stray ``time.time()`` in a
sim-facing module silently couples simulated results to host speed, and
a ``time.sleep()`` stalls a worker for real.  Only modules on the
explicit real-execution allowlist (``clock-allow`` in
``[tool.repro-lint]``) may touch wall-clock APIs — everything else gets
its notion of time from the executor (``executor.now`` /
``wait_until``).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.engine import FileContext

__all__ = ["ClockPurityChecker"]

#: wall-clock entry points (resolved through imports and re-exports)
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class ClockPurityChecker(Checker):
    """Flag wall-clock calls outside the real-execution allowlist."""

    rule = "clock-purity"
    description = (
        "no time.time/time.sleep/datetime.now outside the clock-allow "
        "list; sim modules must use the executor clock"
    )

    def begin_file(self, ctx: FileContext) -> None:
        self._allowed = ctx.module_in(ctx.config.clock_allow)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if self._allowed:
            return
        qname = ctx.resolve(node.func)
        if qname in WALL_CLOCK_CALLS:
            self.report(
                ctx,
                node,
                f"wall-clock call {qname}() in module '{ctx.module}'; "
                "simulated stages must advance the executor clock — add "
                "the module to [tool.repro-lint] clock-allow only if it "
                "really runs wall-bound work",
            )
