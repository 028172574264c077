"""Project builder: import canonicalization through re-exports, parse errors."""

from pathlib import Path

import pytest

from repro.analysis.project import build_project

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def proj():
    return build_project([FIXTURES / "proj_pkg"], root=FIXTURES)


def test_package_reexport_canonicalizes_to_definition(proj):
    assert proj.canonical("proj_pkg.tick") == "proj_pkg.helpers.tick"
    assert proj.canonical("proj_pkg.Engine") == "proj_pkg.core.Engine"


def test_method_through_reexported_class_canonicalizes(proj):
    assert (
        proj.canonical("proj_pkg.Engine.run") == "proj_pkg.core.Engine.run"
    )


def test_unknown_names_come_back_unchanged(proj):
    assert proj.canonical("os.replace") == "os.replace"


def test_parse_failure_becomes_finding_not_crash(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "broken.py").write_text("def f(:\n")
    project = build_project([tmp_path], root=tmp_path)
    assert [f.rule for f in project.parse_findings] == ["parse-error"]
    assert "ok" in project.files and "broken" not in project.files
