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


# -------------------------------------------------------------- determinism
def test_determinism_bad_flags_global_rng():
    result = lint_fixture("determinism_bad.py", "determinism")
    assert len(result.findings) == 3
    assert any("numpy.random.seed" in f.message for f in result.findings)
    assert any("numpy.random.rand" in f.message for f in result.findings)
    assert any("random.choice" in f.message for f in result.findings)


def test_determinism_good_is_clean():
    assert lint_fixture("determinism_good.py", "determinism").ok


def test_determinism_allowlist_exempts_module():
    config = AnalysisConfig(determinism_allow=["tests.analysis.fixtures"])
    assert lint_fixture("determinism_bad.py", "determinism", config=config).ok


def test_determinism_sees_through_package_reexport(tmp_path):
    # the package hands out the global-state draw under its own name;
    # the call through the package is still a global-RNG call
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from random import random\n")
    (tmp_path / "caller.py").write_text(
        "import pkg\n"
        "from pkg import random as draw\n"
        "\n"
        "a = pkg.random()\n"
        "b = draw()\n"
    )
    result = run_analysis(
        [tmp_path], AnalysisConfig(root=tmp_path), checkers_for(["determinism"])
    )
    assert [(f.path, f.line) for f in result.findings] == [
        ("caller.py", 4),
        ("caller.py", 5),
    ]
    assert all("random.random()" in f.message for f in result.findings)


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


# ----------------------------------------------------------- workflow-shape
def test_workflow_bad_flags_every_malformed_literal():
    result = lint_fixture("workflow_bad.py", "workflow-shape")
    messages = [f.message for f in result.findings]
    assert any("requests 8 gpus/node" in m for m in messages)
    assert any("requests 64 cpus/node" in m for m in messages)
    assert any("no slots" in m for m in messages)
    assert any("nodes=0" in m for m in messages)
    assert any("duration=-5" in m for m in messages)
    assert any("zero-task stage" in m for m in messages)
    assert any("empty pipeline" in m for m in messages)
    assert any("'orphan' is constructed but never referenced" in m for m in messages)


def test_workflow_good_is_clean():
    assert lint_fixture("workflow_good.py", "workflow-shape").ok


# ----------------------------------------------------- telemetry-discipline
def test_telemetry_bad_flags_clock_reads_and_bare_spans():
    spans = lint_fixture(
        "telemetry_bad.py", "telemetry-discipline", module="repro.rct.raptor"
    )
    # the span-CM findings: `tracer.span(...)` and `self_like.span` is
    # not flagged (receiver tail has no "tracer"), NULL_TRACER.span is
    assert [f.line for f in spans.findings] == [13, 14]
    assert all("outside a with-statement" in f.message for f in spans.findings)
    # the direct clock reads (aliased one included) are clock-purity's
    clocks = lint_fixture(
        "telemetry_bad.py", "clock-purity", module="repro.rct.raptor"
    )
    assert [f.line for f in clocks.findings] == [10, 11, 12]
    messages = [f.message for f in clocks.findings]
    assert any("time.perf_counter()" in m for m in messages)
    assert any("time.time()" in m for m in messages)


def test_telemetry_good_is_clean_in_instrumented_module():
    result = lint_fixture(
        "telemetry_good.py", "telemetry-discipline", module="repro.nn.graph.executor"
    )
    assert result.ok


def test_telemetry_clock_reads_silent_outside_instrumented_modules():
    # clock reads are clock-purity's; a bare tracer.span(...) is a leak
    # in any module
    result = lint_fixture("telemetry_bad.py", "telemetry-discipline")
    assert all("outside a with-statement" in f.message for f in result.findings)
    assert len(result.findings) == 2
