"""The repo's own source must lint clean — and regressions must not.

The checked-in ``[tool.repro-lint]`` table in pyproject.toml is the
baseline; this test is the gate that keeps it honest, running every
rule — per-file and whole-program — exactly as ``repro-lint`` does.
The regression cases re-create the one concurrency bug this lint engine
has caught in the project's history: an unlocked ``+=`` inside a
``run_raptor`` worker (the busy-accounting race once fixed in
production), including inside the pool-mapped ``run_bulk`` nested in
``run_raptor`` itself and a pool map at module level.
"""

from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_source, run_analysis
from repro.analysis.checkers import checkers_for

REPO = Path(__file__).resolve().parents[2]
RAPTOR = REPO / "src" / "repro" / "rct" / "raptor.py"


def repo_config():
    return AnalysisConfig.from_pyproject(REPO / "pyproject.toml")


def lint_raptor(source):
    return analyze_source(
        source,
        checkers_for(["lockset"]),
        repo_config(),
        module="repro.rct.raptor",
        path="src/repro/rct/raptor.py",
    )


def test_src_lints_clean_with_checked_in_config():
    config = repo_config()
    result = run_analysis([REPO / "src"], config)
    assert result.ok, "\n".join(f.render() for f in result.findings)
    assert result.n_files > 50  # the engine actually walked the tree
    # every suppression in src is a reasoned vectorization exemption;
    # a change in this count is a new (or lost) suppression to review
    assert result.n_suppressed == 20


def test_reintroducing_run_raptor_race_is_caught():
    # PR 1's bug, distilled: per-worker busy accounting via unlocked +=
    # inside the function handed to run_raptor.
    src = (
        "from repro.rct.raptor import run_raptor\n"
        "\n"
        "worker_busy = {}\n"
        "\n"
        "def work(item):\n"
        "    out = item.run()\n"
        "    worker_busy[item.worker] += out.elapsed\n"
        "    return out\n"
        "\n"
        "def drive(executor, items):\n"
        "    return run_raptor(executor, items, fn=work)\n"
    )
    result = analyze_source(src, checkers_for(["lockset"]), repo_config())
    assert len(result.findings) == 1
    assert "worker_busy" in result.findings[0].message


def test_unlocked_add_in_nested_run_bulk_is_caught():
    # run_bulk is a def nested in run_raptor and handed to pool.map by
    # its local name: only a lookup through the enclosing scope finds it
    source = RAPTOR.read_text()
    original = "        for i in bulk:\n            run_item(i)\n"
    assert source.count(original) == 1
    racy = source.replace(
        original, original + "        busy_cells[0][0] += len(bulk)\n"
    )
    result = lint_raptor(racy)
    assert len(result.findings) == 1
    assert "'busy_cells'" in result.findings[0].message


def test_module_level_pool_map_is_a_thread_entry():
    # the call graph has no edges for module-level calls, so the
    # handoff must be found by walking every call in the file
    src = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "\n"
        "totals = {}\n"
        "\n"
        "def work(key):\n"
        "    totals[key] += 1\n"
        "\n"
        "POOL = ThreadPoolExecutor(max_workers=2)\n"
        "DONE = list(POOL.map(work, ['a', 'b']))\n"
    )
    result = analyze_source(src, checkers_for(["lockset"]), repo_config())
    assert [f.line for f in result.findings] == [6]
    assert "'totals'" in result.findings[0].message


def test_raptor_module_itself_is_clean():
    # the fixed raptor.py must pass the very rule built from its old bug
    result = lint_raptor(RAPTOR.read_text())
    assert result.ok, "\n".join(f.render() for f in result.findings)
