"""The repo's own source must lint clean — and regressions must not.

The checked-in ``[tool.repro-lint]`` table in pyproject.toml is the
baseline; this test is the gate that keeps it honest, running every
rule exactly as ``repro-lint`` does.
The regression cases re-create the one concurrency bug this lint engine
has caught in the project's history: an unlocked ``+=`` inside a
pool-mapped RAPTOR worker (the busy-accounting race once fixed in
production), both in a ``run_bulk`` nested in its caller and at module
level.
"""

from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_source, run_analysis
from repro.analysis.checkers import checkers_for

REPO = Path(__file__).resolve().parents[2]


def repo_config():
    return AnalysisConfig.from_pyproject(REPO / "pyproject.toml")


def test_src_lints_clean_with_checked_in_config():
    config = repo_config()
    result = run_analysis([REPO / "src"], config)
    assert result.ok, "\n".join(f.render() for f in result.findings)
    assert result.n_files > 50  # the engine actually walked the tree
    # every suppression in src is a reasoned vectorization exemption;
    # a change in this count is a new (or lost) suppression to review
    assert result.n_suppressed == 16


def test_unlocked_add_in_nested_run_bulk_is_caught():
    # run_bulk is a def nested in its caller and handed to pool.map by
    # its local name: only a lookup through the enclosing scope finds it
    src = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "\n"
        "def run(bulks, n_workers):\n"
        "    worker_busy = [0.0]\n"
        "\n"
        "    def run_bulk(bulk):\n"
        "        for item in bulk:\n"
        "            item.run()\n"
        "        worker_busy[0] += len(bulk)\n"
        "\n"
        "    with ThreadPoolExecutor(max_workers=n_workers) as pool:\n"
        "        list(pool.map(run_bulk, bulks))\n"
        "    return worker_busy\n"
    )
    result = analyze_source(src, checkers_for(["lockset"]), repo_config())
    assert [f.line for f in result.findings] == [9]
    assert "'worker_busy'" in result.findings[0].message


def test_module_level_pool_map_is_a_thread_entry():
    # a module-level call has no enclosing function, so the handoff
    # must be found by walking every call in the file
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

