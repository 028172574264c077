"""Engine mechanics: suppressions, config, discovery, reporters."""

import json
from pathlib import Path

import pytest

from repro.analysis.config import AnalysisConfig, ConfigError, find_pyproject
from repro.analysis.engine import AnalysisResult, analyze_source, run_analysis
from repro.analysis.project import (
    PARSE_ERROR_RULE,
    SUPPRESSION_REASON_RULE,
    discover,
    module_name_for,
)
from repro.analysis.findings import Finding
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.checkers import CHECKER_CLASSES, checkers_for

CLOCK = "import time\n\nt = time.time()\n"


def _clock_checkers():
    return checkers_for(["clock-purity"])


def test_finding_surfaces_without_suppression():
    result = analyze_source(CLOCK, _clock_checkers())
    assert not result.ok
    assert [f.rule for f in result.findings] == ["clock-purity"]
    assert result.findings[0].line == 3


def test_line_suppression_counts_not_reports():
    src = "import time\n\nt = time.time()  # repro: disable=clock-purity -- test\n"
    result = analyze_source(src, _clock_checkers())
    assert result.ok
    assert result.n_suppressed == 1


def test_line_suppression_all_wildcard():
    src = "import time\n\nt = time.time()  # repro: disable=all -- test\n"
    result = analyze_source(src, _clock_checkers())
    assert result.ok and result.n_suppressed == 1


def test_line_suppression_other_rule_does_not_apply():
    src = "import time\n\nt = time.time()  # repro: disable=vectorization -- test\n"
    result = analyze_source(src, _clock_checkers())
    assert not result.ok


def test_file_suppression_covers_every_line():
    src = (
        "# repro: disable-file=clock-purity -- test fixture\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.sleep(1)\n"
    )
    result = analyze_source(src, _clock_checkers())
    assert result.ok
    assert result.n_suppressed == 2


def test_reasonless_suppression_is_a_finding():
    src = "import time\n\nt = time.time()  # repro: disable=clock-purity\n"
    result = analyze_source(src, _clock_checkers())
    assert result.n_suppressed == 1  # the clock finding is still suppressed
    assert [f.rule for f in result.findings] == [SUPPRESSION_REASON_RULE]
    assert "has no reason" in result.findings[0].message


def test_reasonless_finding_cannot_suppress_itself():
    # disable=all on the same line must not silence the reason requirement
    src = "import time\n\nt = time.time()  # repro: disable=all\n"
    result = analyze_source(src, _clock_checkers())
    assert [f.rule for f in result.findings] == [SUPPRESSION_REASON_RULE]


def test_reasonless_file_suppression_is_a_finding():
    src = "# repro: disable-file=clock-purity\nimport time\nt = time.time()\n"
    result = analyze_source(src, _clock_checkers())
    assert [f.rule for f in result.findings] == [SUPPRESSION_REASON_RULE]
    assert result.findings[0].line == 1


def test_reason_rule_obeys_config_disable():
    src = "import time\n\nt = time.time()  # repro: disable=clock-purity\n"
    config = AnalysisConfig(disable=[SUPPRESSION_REASON_RULE])
    result = analyze_source(src, _clock_checkers(), config)
    assert result.ok


def test_global_disable_counts_as_suppressed():
    config = AnalysisConfig(disable=["clock-purity"])
    result = analyze_source(CLOCK, _clock_checkers(), config)
    assert result.ok and result.n_suppressed == 1


def test_parse_error_becomes_finding():
    result = analyze_source("def broken(:\n", _clock_checkers())
    assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]


def test_module_name_for_anchors_on_src():
    assert module_name_for(Path("src/repro/md/system.py")) == "repro.md.system"
    assert module_name_for(Path("src/repro/md/__init__.py")) == "repro.md"
    assert (
        module_name_for(Path("tests/analysis/fixtures/clock_bad.py"))
        == "tests.analysis.fixtures.clock_bad"
    )


def test_discover_skips_pycache_and_keeps_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.py").write_text("")
    (tmp_path / "loose.py").write_text("y = 2\n")
    found = discover([tmp_path / "pkg", tmp_path / "loose.py"])
    assert [p.name for p in found] == ["a.py", "loose.py"]


def test_run_analysis_sorts_findings(tmp_path):
    (tmp_path / "b.py").write_text(CLOCK)
    (tmp_path / "a.py").write_text(CLOCK)
    result = run_analysis(
        [tmp_path], AnalysisConfig(root=tmp_path), _clock_checkers()
    )
    assert [f.path for f in result.findings] == ["a.py", "b.py"]
    assert result.n_files == 2


# ------------------------------------------------------------------ config
def test_config_from_table_maps_dashed_keys():
    config = AnalysisConfig.from_table(
        {"clock-allow": ["repro.util.timer"], "hot-modules": ["repro.nn"]},
        root=Path("/tmp"),
    )
    assert config.clock_allow == ["repro.util.timer"]
    assert config.hot_modules == ["repro.nn"]
    assert config.root == Path("/tmp")


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        AnalysisConfig.from_table({"clock_allow": ["x"]})


def test_config_rejects_non_string_lists():
    with pytest.raises(ConfigError, match="list of strings"):
        AnalysisConfig.from_table({"disable": "clock-purity"})


def test_find_pyproject_walks_up(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    assert find_pyproject(nested) == tmp_path / "pyproject.toml"


# --------------------------------------------------------------- reporters
def _result_with_findings():
    result = AnalysisResult(n_files=3, n_suppressed=2)
    result.findings = [
        Finding("clock-purity", "wall clock", "a.py", 3, 4),
        Finding("vectorization", "loop", "b.py", 7, 0, severity="warning"),
    ]
    return result


def test_render_text_lists_findings_and_summary():
    text = render_text(_result_with_findings())
    assert "a.py:3:4: [clock-purity] wall clock" in text
    assert "2 finding(s) (1 error, 1 warning) in 3 file(s); 2 suppressed" in text


def test_render_json_is_stable_and_parseable():
    payload = json.loads(render_json(_result_with_findings()))
    assert payload["summary"] == {
        "n_findings": 2,
        "n_errors": 1,
        "n_warnings": 1,
        "n_files": 3,
        "n_suppressed": 2,
    }
    assert payload["findings"][0]["rule"] == "clock-purity"


def test_render_sarif_shape_and_levels():
    doc = json.loads(render_sarif(_result_with_findings()))
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        "clock-purity",
        "vectorization",
    ]
    assert [r["level"] for r in run["results"]] == ["error", "warning"]
    loc = run["results"][0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"] == {"uri": "a.py", "uriBaseId": "SRCROOT"}
    assert loc["region"] == {"startLine": 3, "startColumn": 5}  # col is 1-based


def test_render_sarif_dedupes_rules_and_clamps_line():
    result = AnalysisResult(n_files=1, n_suppressed=0)
    result.findings = [
        Finding("clock-purity", "one", "a.py", 0, 0),
        Finding("clock-purity", "two", "a.py", 5, 0),
    ]
    doc = json.loads(render_sarif(result))
    run = doc["runs"][0]
    assert len(run["tool"]["driver"]["rules"]) == 1
    assert len(run["results"]) == 2
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1  # file-level findings clamp to line 1


def test_rule_names_cover_all_domain_rules():
    assert [c.rule for c in CHECKER_CLASSES] == [
        "clock-purity",
        "vectorization",
        "lockset",
        "atomic-write",
    ]


def test_checkers_for_rejects_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule"):
        checkers_for(["no-such-rule"])
