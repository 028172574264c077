"""Project builder: symbol table, import canonicalization, call graph."""

from pathlib import Path

import pytest

from repro.analysis.project import build_project

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def proj():
    return build_project([FIXTURES / "proj_pkg"], root=FIXTURES)


# ------------------------------------------------------------ symbol table
def test_functions_and_classes_get_qualified_names(proj):
    assert "proj_pkg.helpers.tick" in proj.functions
    assert "proj_pkg.core.Engine" in proj.classes
    assert "proj_pkg.core.Engine.run" in proj.functions
    info = proj.functions["proj_pkg.core.Engine.run"]
    assert info.is_method
    assert info.class_qualname == "proj_pkg.core.Engine"


def test_nested_def_registers_under_outer_function(proj):
    # trace() defines wrapper inside itself
    assert "proj_pkg.helpers.trace.wrapper" in proj.functions
    assert not proj.functions["proj_pkg.helpers.trace.wrapper"].is_method


def test_decorated_function_keeps_plain_symbol(proj):
    info = proj.functions["proj_pkg.helpers.decorated_tick"]
    assert "proj_pkg.helpers.trace" in info.decorators


# --------------------------------------------------------- canonicalization
def test_package_reexport_canonicalizes_to_definition(proj):
    assert proj.canonical("proj_pkg.tick") == "proj_pkg.helpers.tick"
    assert proj.canonical("proj_pkg.Engine") == "proj_pkg.core.Engine"


def test_method_through_reexported_class_canonicalizes(proj):
    assert (
        proj.canonical("proj_pkg.Engine.run") == "proj_pkg.core.Engine.run"
    )


def test_unknown_names_come_back_unchanged(proj):
    assert proj.canonical("os.replace") == "os.replace"


# ---------------------------------------------------------------- call graph
def test_diamond_arms_resolve_to_one_callee(proj):
    left = proj.calls_from("proj_pkg.left.left_tick")
    right = proj.calls_from("proj_pkg.right.right_tick")
    assert [e.callee for e in left] == ["proj_pkg.helpers.tick"]
    assert [e.callee for e in right] == ["proj_pkg.helpers.tick"]


def test_method_resolution_through_base_class(proj):
    assert (
        proj.method_resolution("proj_pkg.core.Engine", "ping")
        == "proj_pkg.core.Base.ping"
    )
    callees = {e.callee for e in proj.calls_from("proj_pkg.core.Engine.run")}
    assert "proj_pkg.core.Base.ping" in callees


def test_attr_type_from_annotated_init_param_resolves_method_call(proj):
    # self.gear.spin() resolves because __init__ annotates gear: "Gear"
    callees = {e.callee for e in proj.calls_from("proj_pkg.core.Engine.run")}
    assert "proj_pkg.core.Gear.spin" in callees


def test_constructor_call_edges_reach_init(proj):
    callees = {e.callee for e in proj.calls_from("proj_pkg.top.both")}
    assert "proj_pkg.core.Engine.__init__" in callees


def test_decorated_callee_resolves_to_wrapped_body(proj):
    callees = {e.callee for e in proj.calls_from("proj_pkg.top.both")}
    assert "proj_pkg.helpers.decorated_tick" in callees


def test_reachable_walks_transitively(proj):
    reach = proj.reachable(["proj_pkg.top.both"])
    assert "proj_pkg.helpers.tick" in reach
    assert "proj_pkg.core.Gear.spin" in reach


def test_parse_failure_becomes_finding_not_crash(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "broken.py").write_text("def f(:\n")
    project = build_project([tmp_path], root=tmp_path)
    assert [f.rule for f in project.parse_findings] == ["parse-error"]
    assert "ok" in project.files and "broken" not in project.files
