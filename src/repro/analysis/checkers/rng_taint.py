"""rng-taint: time-derived values must never seed a generator.

A wall-clock reading (``time.time()``, ``datetime.now()``) flowing —
through any number of calls, returns and attribute writes — into a
*seeding* position (``random.seed``, ``np.random.default_rng``,
``repro.util.rng.rng_stream`` / ``RngFactory``) makes every stream
derived from it unreplayable, no matter how disciplined the downstream
code is.  A per-file rule cannot see this once a helper function sits
between the clock read and the seed.

Draws from hidden global RNG state are not traced here: every such call
is already a ``determinism`` finding where it is made.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.findings import Finding
from repro.analysis.project import Project

__all__ = ["RngTaintChecker"]

#: wall-clock reads whose values are nondeterministic across runs
_TIME_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

#: callees whose arguments seed a generator / stream family
_SEED_SINKS = frozenset(
    {
        "random.seed",
        "random.Random",
        "numpy.random.seed",
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "repro.util.rng.rng_stream",
        "repro.util.rng.RngFactory",
        "repro.util.rng.RngFactory.__init__",
    }
)


class RngTaintChecker(Checker):
    """Trace time-derived values into seeding calls across functions."""

    rule = "rng-taint"
    description = "time-derived values must not seed generators"

    def check(self, project: Project, config: AnalysisConfig) -> list[Finding]:
        def source(callee: str | None, call: ast.Call) -> str | None:
            if callee in _TIME_SOURCES:
                return f"{callee}()"
            return None

        analysis = TaintAnalysis(project, source).run()
        findings = []
        seen: set[tuple[str, int]] = set()
        for fq, info in project.functions.items():
            if not analysis.env.get(fq):
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = project.callee_of(node)
                if callee not in _SEED_SINKS:
                    continue
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    taint = analysis.taint_of(arg, info)
                    if taint is None:
                        continue
                    key = (info.path, getattr(node, "lineno", 0))
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        self.finding(
                            f"seeding {callee} with a value derived from "
                            f"{taint.describe()} makes every stream below "
                            "it unreplayable; seeds must come from the "
                            "campaign's root seed",
                            path=info.path,
                            line=getattr(node, "lineno", 0),
                            col=getattr(node, "col_offset", 0),
                        )
                    )
                    break
        return findings
