"""lockset and atomic-write against their bad/good fixture packages."""

from pathlib import Path

from repro.analysis.checkers import AtomicWriteChecker, LocksetChecker
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_project, run_analysis
from repro.analysis.project import build_project

FIXTURES = Path(__file__).parent / "fixtures"


def check(pkg, checker, **config_kwargs):
    project = build_project([FIXTURES / pkg], root=FIXTURES)
    assert not project.parse_findings
    config = AnalysisConfig(**config_kwargs)
    return analyze_project(project, config, [checker]).findings


# --------------------------------------------------------------- atomic-write
def test_atomic_bad_flags_all_three_patterns():
    findings = check(
        "atomic_bad_pkg",
        AtomicWriteChecker(),
        durable_modules=["atomic_bad_pkg.store"],
    )
    messages = "\n".join(f.message for f in findings)
    assert "save_json" in messages  # bare open(..., "w")
    assert "save_array" in messages  # numpy writer, no replace
    assert "fsync" in messages  # append without fsync
    # a helper the durable module calls is not checked in its own,
    # unlisted module
    assert "write_report" not in messages


def test_atomic_checks_a_helper_once_its_module_is_listed():
    findings = check(
        "atomic_bad_pkg",
        AtomicWriteChecker(),
        durable_modules=["atomic_bad_pkg.store", "atomic_bad_pkg.caller"],
    )
    assert [
        f.line for f in findings if f.path == "atomic_bad_pkg/caller.py"
    ] == [7]


def test_atomic_good_is_clean():
    assert (
        check(
            "atomic_good_pkg",
            AtomicWriteChecker(),
            durable_modules=["atomic_good_pkg.store"],
        )
        == []
    )


def test_functions_outside_durable_cone_not_examined():
    findings = check(
        "atomic_bad_pkg",
        AtomicWriteChecker(),
        durable_modules=["atomic_bad_pkg.nothing"],
    )
    assert findings == []


# -------------------------------------------------------------------- lockset
def test_lockset_bad_flags_inconsistently_guarded_attrs():
    findings = check("lockset_bad_pkg", LocksetChecker())
    attrs = {f.message.split("'")[0].split("self.")[1].split(" ")[0] for f in findings}
    assert "total" in attrs
    assert "results" in attrs  # container mutated via .append
    assert all("Counter" in f.message for f in findings)


def test_lockset_good_is_clean():
    assert check("lockset_good_pkg", LocksetChecker()) == []


def test_lockset_follows_a_lane_thread_through_self_and_a_local_instance():
    # the docking lane writes campaign state through self._record, and
    # `lane = Lane(c); Thread(target=lane.run)` hands over a bound method
    # of a local instance
    project = build_project([FIXTURES / "lockset_lane.py"], root=FIXTURES)
    findings = analyze_project(project, AnalysisConfig(), [LocksetChecker()]).findings
    assert [(f.line, f.message.split(" is shared")[0]) for f in findings] == [
        (30, "attribute self.scores of lockset_lane.Campaign"),
        (31, "attribute self.iteration of lockset_lane.Campaign"),
        (44, "attribute self.done of lockset_lane.Lane"),
    ]
    assert "['_docking_lane', '_record']" in findings[0].message


def test_lockset_checks_globals_from_bound_method_and_free_entries_alike():
    # `Thread(target=self._run)` and `Thread(target=_free)` both reach an
    # unlocked `TOTALS["done"] += 1` on a module-level dict
    project = build_project([FIXTURES / "lockset_bound_global.py"], root=FIXTURES)
    findings = analyze_project(project, AnalysisConfig(), [LocksetChecker()]).findings
    assert [f.line for f in findings] == [18, 22]
    assert all("shared 'TOTALS'" in f.message for f in findings)


# ------------------------------------------------------------------- runner
def test_run_interprocedural_merges_both_layers(tmp_path):
    # one run reports every rule's findings together
    (tmp_path / "mod.py").write_text(
        "import threading\n"
        "import time\n"
        "totals = {}\n"
        "def stamp():\n"
        "    return time.time()\n"  # clock-purity finding
        "def work(key):\n"
        "    totals[key] += 1\n"  # lockset finding
        "threading.Thread(target=work, args=('a',)).start()\n"
    )
    result = run_analysis([tmp_path], AnalysisConfig(root=tmp_path))
    assert [(f.rule, f.line) for f in result.findings] == [
        ("clock-purity", 5),
        ("lockset", 7),
    ]


def test_run_project_checkers_honors_inline_suppression(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def go(self):\n"
        "        threading.Thread(target=self._run).start()\n"
        "    def _run(self):\n"
        "        self.x += 1  # repro: disable=lockset -- test fixture\n"
        "    def read(self):\n"
        "        return self.x\n"
    )
    project = build_project([tmp_path], root=tmp_path)
    result = analyze_project(
        project, AnalysisConfig(root=tmp_path), [LocksetChecker()]
    )
    assert result.findings == []
    assert result.n_suppressed == 1


def test_run_project_checkers_honors_config_disable(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def go(self):\n"
        "        threading.Thread(target=self._run).start()\n"
        "    def _run(self):\n"
        "        self.x += 1\n"
        "    def read(self):\n"
        "        return self.x\n"
    )
    project = build_project([tmp_path], root=tmp_path)
    with_rule = analyze_project(project, AnalysisConfig(root=tmp_path))
    assert [f.rule for f in with_rule.findings] == ["lockset"]
    disabled = analyze_project(
        project, AnalysisConfig(root=tmp_path, disable=["lockset"])
    )
    assert disabled.findings == []
