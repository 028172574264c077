"""Folding overlapping rules together loses no fixture finding.

Before each concern had one owner, nine rules linted the fixtures, and
three pairs policed the same thing: ``lock-discipline`` and ``lockset``
(state shared with worker threads), ``telemetry-discipline``'s clock
half and ``clock-purity`` (wall-clock reads), ``rng-taint``'s hot-path
half and ``determinism`` (global RNG draws).  ``BEFORE`` lists every
(rule, path, line) the nine rules reported over ``fixtures/`` as one
project, with the rule that reports that location now.

One location moves: the unseeded value ``rng-taint`` followed into
``rng_bad_pkg/hot.py`` is reported where it is drawn, at its source
``rng_bad_pkg/util.py:9`` — a ``determinism`` finding before and after.
"""

from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"

#: the module-scoped rules' keys, pointed at their fixtures
CONFIG = dict(
    hot_modules=["vectorization_bad", "vectorization_good"],
    durable_modules=["atomic_bad_pkg.store", "atomic_good_pkg.store"],
)

#: (rule then, path, line, rule now)
BEFORE = [
    ("atomic-write", "atomic_bad_pkg/caller.py", 7, "atomic-write"),
    ("atomic-write", "atomic_bad_pkg/store.py", 9, "atomic-write"),
    ("atomic-write", "atomic_bad_pkg/store.py", 15, "atomic-write"),
    ("atomic-write", "atomic_bad_pkg/store.py", 20, "atomic-write"),
    ("clock-purity", "clock_bad.py", 9, "clock-purity"),
    ("clock-purity", "clock_bad.py", 10, "clock-purity"),
    ("clock-purity", "clock_bad.py", 11, "clock-purity"),
    ("determinism", "determinism_bad.py", 9, "determinism"),
    ("determinism", "determinism_bad.py", 10, "determinism"),
    ("determinism", "determinism_bad.py", 11, "determinism"),
    ("lock-discipline", "locks_bad.py", 24, "lockset"),
    ("lock-discipline", "locks_bad.py", 25, "lockset"),
    ("lockset", "lockset_bad_pkg/worker.py", 19, "lockset"),
    ("lockset", "lockset_bad_pkg/worker.py", 20, "lockset"),
    ("rng-taint", "rng_bad_pkg/hot.py", 15, "rng-taint"),
    ("determinism", "rng_bad_pkg/util.py", 9, "determinism"),
    ("clock-purity", "rng_bad_pkg/util.py", 14, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 10, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 10, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 11, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 11, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 12, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 12, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 13, "telemetry-discipline"),
    ("telemetry-discipline", "telemetry_bad.py", 14, "telemetry-discipline"),
    ("vectorization", "vectorization_bad.py", 9, "vectorization"),
    ("workflow-shape", "workflow_bad.py", 12, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 13, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 14, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 15, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 16, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 18, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 19, "workflow-shape"),
    ("workflow-shape", "workflow_bad.py", 21, "workflow-shape"),
]

#: the one location reported at its source instead (see module doc)
MOVED = ("rng-taint", "rng_bad_pkg/hot.py", 10)
MOVED_TO = ("determinism", "rng_bad_pkg/util.py", 9)


def test_every_fixture_finding_keeps_an_owner():
    result = run_analysis([FIXTURES], AnalysisConfig(root=FIXTURES, **CONFIG))
    now = {(f.rule, f.path, f.line) for f in result.findings}
    expected = {(rule, path, line) for _, path, line, rule in BEFORE}
    # nothing lost, and nothing new either
    assert now == expected
    assert MOVED_TO in now
    assert not any(path == MOVED[1] and line == MOVED[2] for _, path, line in now)
