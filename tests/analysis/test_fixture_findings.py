"""Deleting rules loses no finding of the rules that stay.

Nine rules once linted the fixtures.  Where two policed the same thing
they were folded together: ``lock-discipline`` into ``lockset``,
``telemetry-discipline``'s clock half into ``clock-purity``.  Later
``determinism``, ``telemetry-discipline``, ``workflow-shape`` and
``rng-taint`` went, having reported nothing over the project's history.
``BEFORE`` lists every (rule, path, line) the nine rules reported over
``fixtures/`` as one project whose owner is one of the four rules left,
with the rule that reports that location now; a fixture added later
lists what the rules reported on it when it was added.

``atomic_bad_pkg/caller.py`` line 7 was reported while ``atomic-write``
checked everything reachable from a durable module.  It checks the
listed modules only now, and ``caller`` is not listed here
(``test_interprocedural.py`` shows it is flagged once it is).
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
    ("atomic-write", "atomic_bad_pkg/store.py", 9, "atomic-write"),
    ("atomic-write", "atomic_bad_pkg/store.py", 15, "atomic-write"),
    ("atomic-write", "atomic_bad_pkg/store.py", 20, "atomic-write"),
    ("clock-purity", "clock_bad.py", 9, "clock-purity"),
    ("clock-purity", "clock_bad.py", 10, "clock-purity"),
    ("clock-purity", "clock_bad.py", 11, "clock-purity"),
    ("lock-discipline", "locks_bad.py", 24, "lockset"),
    ("lock-discipline", "locks_bad.py", 25, "lockset"),
    ("lockset", "lockset_bad_pkg/worker.py", 19, "lockset"),
    ("lockset", "lockset_bad_pkg/worker.py", 20, "lockset"),
    ("lockset", "lockset_lane.py", 30, "lockset"),
    ("lockset", "lockset_lane.py", 31, "lockset"),
    ("lockset", "lockset_lane.py", 44, "lockset"),
    ("lockset", "lockset_bound_global.py", 18, "lockset"),
    ("lockset", "lockset_bound_global.py", 22, "lockset"),
    ("clock-purity", "rng_bad_pkg/util.py", 14, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 10, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 10, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 11, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 11, "clock-purity"),
    ("clock-purity", "telemetry_bad.py", 12, "clock-purity"),
    ("telemetry-discipline", "telemetry_bad.py", 12, "clock-purity"),
    ("vectorization", "vectorization_bad.py", 9, "vectorization"),
]


def test_every_fixture_finding_keeps_an_owner():
    result = run_analysis([FIXTURES], AnalysisConfig(root=FIXTURES, **CONFIG))
    now = {(f.rule, f.path, f.line) for f in result.findings}
    expected = {(rule, path, line) for _, path, line, rule in BEFORE}
    # nothing lost, and nothing new either
    assert now == expected
