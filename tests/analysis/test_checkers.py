"""Each domain checker against its known-bad / known-good fixture pair."""

from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_source, run_analysis
from repro.analysis.checkers import checkers_for

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, rule, module=None, config=None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    module = module or f"tests.analysis.fixtures.{name.removesuffix('.py')}"
    return analyze_source(
        source,
        checkers_for([rule]),
        config or AnalysisConfig(),
        module=module,
        path=name,
    )


# ------------------------------------------------------------- clock-purity
def test_clock_bad_flags_every_wall_clock_entry():
    result = lint_fixture("clock_bad.py", "clock-purity")
    assert len(result.findings) == 3
    assert {f.rule for f in result.findings} == {"clock-purity"}
    # aliased import (`import time as walltime`) is still resolved
    assert any("time.time" in f.message for f in result.findings)
    assert any("time.sleep" in f.message for f in result.findings)


def test_clock_good_is_clean():
    assert lint_fixture("clock_good.py", "clock-purity").ok


def test_clock_allowlist_exempts_module():
    config = AnalysisConfig(clock_allow=["tests.analysis.fixtures"])
    assert lint_fixture("clock_bad.py", "clock-purity", config=config).ok


def test_clock_purity_sees_through_package_reexport(tmp_path):
    # the package hands out the wall clock under its own name; the call
    # through the package is still a wall-clock read
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from time import time\n")
    (tmp_path / "caller.py").write_text(
        "import pkg\n"
        "from pkg import time as stamp\n"
        "\n"
        "a = pkg.time()\n"
        "b = stamp()\n"
    )
    result = run_analysis(
        [tmp_path], AnalysisConfig(root=tmp_path), checkers_for(["clock-purity"])
    )
    assert [(f.path, f.line) for f in result.findings] == [
        ("caller.py", 4),
        ("caller.py", 5),
    ]
    assert all("time.time()" in f.message for f in result.findings)


# ------------------------------------------- lockset: free functions/closures
def test_locks_bad_flags_unguarded_read_modify_write():
    result = lint_fixture("locks_bad.py", "lockset")
    assert len(result.findings) == 2
    assert any("worker_busy" in f.message for f in result.findings)
    assert any("total_items" in f.message for f in result.findings)


def test_locks_good_is_clean():
    # lock-guarded, thread-local, and plain-local patterns all pass
    assert lint_fixture("locks_good.py", "lockset").ok


def test_locks_ignores_functions_never_submitted():
    src = (
        "counts = {}\n"
        "def tally(key):\n"
        "    counts[key] += 1\n"
    )
    result = analyze_source(src, checkers_for(["lockset"]))
    assert result.ok


# ------------------------------------------------------------ vectorization
def test_vectorization_bad_flags_elementwise_loop_in_hot_module():
    result = lint_fixture(
        "vectorization_bad.py", "vectorization", module="repro.docking.kernel"
    )
    assert len(result.findings) == 1
    assert result.findings[0].severity == "warning"


def test_vectorization_good_is_clean_in_hot_module():
    result = lint_fixture(
        "vectorization_good.py", "vectorization", module="repro.nn.kernel"
    )
    assert result.ok


def test_vectorization_silent_outside_hot_modules():
    result = lint_fixture("vectorization_bad.py", "vectorization")
    assert result.ok
