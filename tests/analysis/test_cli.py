"""The repro-lint front-end: exit codes, formats, rule selection."""

import json
import shutil
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.checkers import CHECKER_CLASSES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_clean_target_exits_zero(capsys):
    code = main(
        [
            str(FIXTURES / "clock_good.py"),
            "--rules",
            "clock-purity",
            "--config",
            str(REPO_PYPROJECT),
        ]
    )
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one(capsys):
    code = main(
        [
            str(FIXTURES / "clock_bad.py"),
            "--rules",
            "clock-purity",
            "--config",
            str(REPO_PYPROJECT),
        ]
    )
    assert code == 1
    assert "[clock-purity]" in capsys.readouterr().out


def test_json_format_parses(capsys):
    code = main(
        [
            str(FIXTURES / "clock_bad.py"),
            "--rules",
            "clock-purity",
            "--config",
            str(REPO_PYPROJECT),
            "--format",
            "json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["n_errors"] == 3
    assert all(f["rule"] == "clock-purity" for f in payload["findings"])


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [c.rule for c in CHECKER_CLASSES]
    # the severity column lines up under the longest rule name
    assert len({line.index("[") for line in lines}) == 1


def _fixture_tree(tmp_path, *fixtures, table=""):
    """Copies of fixtures under their own pyproject root."""
    (tmp_path / "pyproject.toml").write_text(f"[tool.repro-lint]\n{table}")
    for name in fixtures:
        copy = shutil.copytree if (FIXTURES / name).is_dir() else shutil.copy
        copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def _rules_reported(capsys):
    payload = json.loads(capsys.readouterr().out)
    return {f["rule"] for f in payload["findings"]}


def test_rules_selects_a_whole_program_rule(tmp_path, capsys):
    root = _fixture_tree(tmp_path, "lockset_bad_pkg")
    assert main([str(root), "--rules", "lockset", "--format", "json"]) == 1
    assert _rules_reported(capsys) == {"lockset"}


def test_rules_runs_only_the_selected_rules(tmp_path, capsys):
    # each fixture breaks its own rule; unselected, atomic_bad_pkg's
    # torn writes may not report
    root = _fixture_tree(
        tmp_path,
        "clock_bad.py",
        "atomic_bad_pkg",
        "lockset_bad_pkg",
        table='durable-modules = ["atomic_bad_pkg.store"]\n',
    )
    assert main([str(root), "--format", "json"]) == 1
    assert _rules_reported(capsys) == {"clock-purity", "atomic-write", "lockset"}
    code = main(
        [str(root), "--rules", "clock-purity,lockset", "--format", "json"]
    )
    assert code == 1
    assert _rules_reported(capsys) == {"clock-purity", "lockset"}


def test_unknown_rule_is_usage_error(capsys):
    assert main([str(FIXTURES), "--rules", "no-such-rule"]) == 2
    assert "unknown rules" in capsys.readouterr().err


def test_unknown_disabled_rule_is_usage_error(tmp_path, capsys):
    root = _fixture_tree(tmp_path, "clock_good.py", table='disable = ["determinsm"]\n')
    assert main([str(root)]) == 2
    assert "unknown rules ['determinsm']" in capsys.readouterr().err
    # the documented opt-out stays valid, though no checker carries it
    (root / "pyproject.toml").write_text(
        '[tool.repro-lint]\ndisable = ["suppression-reason"]\n'
    )
    assert main([str(root)]) == 0


def test_missing_path_is_usage_error(capsys):
    assert main(["does/not/exist.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "pyproject.toml"
    bad.write_text('[tool.repro-lint]\nclock_allow = ["oops-underscore"]\n')
    code = main([str(FIXTURES / "clock_good.py"), "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
