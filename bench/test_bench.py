"""The benchmark's own checks; run with ``python -m pytest bench/test_bench.py``.

Not in ``testpaths``: a smoke set takes about half a minute, and the
tier-1 suite must not depend on the instrument.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import campaign_loop  # noqa: E402
import pilot_flood  # noqa: E402
import screen_stream  # noqa: E402
import service_shared  # noqa: E402
from harness import OVERHEAD  # noqa: E402
from run import WORKLOADS, load_spec  # noqa: E402

MODULES = (campaign_loop, screen_stream, pilot_flood, service_shared)
SEED = 5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _smoke_set(out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--traced",
         "--seed", str(SEED), "--out", str(out)],
        check=True, timeout=300,
    )
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    """Two smoke sets of one seed: every workload, untraced and traced."""
    tmp = tmp_path_factory.mktemp("bench")
    return _smoke_set(tmp / "a.json"), _smoke_set(tmp / "b.json")


def test_spec_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        spec["end_to_end"][0].items()
    assert len(spec["per_layer"]) <= 128


def test_layer_metrics_are_declared_once_and_match_the_spec():
    declared = [name for m in MODULES for name in m.LAYER_METRICS]
    assert len(declared) == len(set(declared))
    spec = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    units = {k: v for m in MODULES for k, v in m.LAYER_METRICS.items()}
    units[OVERHEAD] = "frac"
    assert spec == units


def test_every_metric_reported_once_per_applicable_workload(sets):
    spec = load_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    for module in MODULES:
        entry = sets[0]["workloads"][module.NAME]
        assert len(entry["untraced"]) == 1
        assert set(entry["untraced"][0]["end_to_end"]) == e2e
        assert all(v != 0 for v in entry["untraced"][0]["end_to_end"].values())
        assert set(entry["traced"]["per_layer"]) == set(module.LAYER_METRICS) | {OVERHEAD}
        assert entry["untraced"][0]["failed"] == 0
        assert entry["traced"]["failed"] == 0


def test_same_seed_sets_agree_exactly_where_they_must(sets):
    a, b = sets
    counts = {m["name"] for m in load_spec()["per_layer"] if m["unit"] == "count"}
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        digests = {wa["untraced"][0]["info"]["digest"], wa["traced"]["info"]["digest"],
                   wb["untraced"][0]["info"]["digest"], wb["traced"]["info"]["digest"]}
        assert len(digests) == 1, name
        for key in counts & set(wa["traced"]["per_layer"]):
            assert wa["traced"]["per_layer"][key] == wb["traced"]["per_layer"][key], key
    for name in ("pilot_flood", "service_shared"):
        assert (a["workloads"][name]["untraced"][0]["end_to_end"]["makespan_s"]
                == b["workloads"][name]["untraced"][0]["end_to_end"]["makespan_s"])


def test_spans_resolve_and_campaign_stages_sum_to_the_loop(sets):
    for name in WORKLOADS:
        lines = (BENCH / "out" / f"{name}-seed{SEED}.spans.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        ids = {s["id"] for s in spans}
        assert spans and all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["end"] >= s["start"] and s["workload"] == name for s in spans)
        json.loads((BENCH / "out" / f"{name}-seed{SEED}.trace.json").read_text())
        if name != "campaign_loop":
            # md/esmacs do no work outside the campaign
            assert not [s for s in spans if s["layer"] in ("md", "esmacs")]
    layers = sets[1]["workloads"]["campaign_loop"]["traced"]["per_layer"]
    stage_sum = sum(v for k, v in layers.items()
                    if k.startswith("core.campaign.") and k.endswith("_s"))
    roots = [s for s in spans_of("campaign_loop") if s["name"] == "iter_units"]
    loop_wall = sum(s["end"] - s["start"] for s in roots) / len(roots)
    assert stage_sum == pytest.approx(loop_wall, rel=0.01)


def spans_of(name: str) -> list[dict]:
    path = BENCH / "out" / f"{name}-seed{SEED}.spans.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_the_result_last(trace):
    spec = load_spec()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "service_shared",
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pilot_flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_no_reference_to_oracle_twins_or_private_names():
    """The instrument may only lean on what ROADMAP items 2-3 keep."""
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                private = not node.attr.startswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                assert own or not private, f"{where}: private attribute {node.attr}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] + [getattr(node, "module", "") or ""]
                for module in modules:
                    assert not module.startswith("benchmarks"), where
                    assert "shootout" not in module, where
            if isinstance(node, ast.keyword):
                value = getattr(node.value, "value", None)
                assert (node.arg, value) != ("batched", False), where
                assert value not in ("eager", "first_fit_scan"), where
