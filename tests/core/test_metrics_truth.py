"""Tests for campaign metrics and the reference oracle."""

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.core.metrics import (
    CampaignMetrics,
    StageAccounting,
    enrichment_factor,
)
from repro.core.truth import ReferenceOracle
from repro.docking.receptor import make_receptor


# ------------------------------------------------------------------ metrics


def test_enrichment_factor_random_is_one():
    universe = 100
    true_top = {f"c{i}" for i in range(10)}
    selected = {f"c{i}" for i in range(0, 100, 10)}  # 10 picks, 1 hit
    assert enrichment_factor(selected, true_top, universe) == pytest.approx(1.0)


def test_enrichment_factor_perfect():
    true_top = {"a", "b"}
    assert enrichment_factor({"a", "b"}, true_top, 100) == pytest.approx(50.0)


def test_enrichment_factor_zero_hits():
    assert enrichment_factor({"x"}, {"a"}, 10) == 0.0


def test_enrichment_validates():
    with pytest.raises(ValueError):
        enrichment_factor(set(), {"a"}, 10)
    with pytest.raises(ValueError):
        enrichment_factor({"a"}, set(), 10)
    with pytest.raises(ValueError):
        enrichment_factor({"a"}, {"a", "b"}, 1)


def test_stage_accounting_rate():
    s = StageAccounting(stage="S1", n_ligands=50, wall_seconds=10.0, node_hours=1.0)
    assert s.ligands_per_second == 5.0


def test_campaign_metrics_aggregation():
    m = CampaignMetrics(iteration=0)
    m.stages["S1"] = StageAccounting("S1", 100, 10.0, 0.01)
    m.stages["S3-CG"] = StageAccounting("S3-CG", 10, 50.0, 5.0)
    m.effective_ligands = 3
    assert m.total_node_hours() == pytest.approx(5.01)
    assert m.scientific_performance() == pytest.approx(3 / 5.01)
    assert "S3-CG" in m.summary()


# ------------------------------------------------------------------- oracle


@pytest.fixture(scope="module")
def oracle_setup():
    receptor = make_receptor("PLPro", "6W9C", seed=7)
    lib = generate_library(12, seed=55)
    return ReferenceOracle(receptor, seed=1, restarts=1), lib


def test_oracle_caches(oracle_setup):
    oracle, lib = oracle_setup
    a = oracle.affinity(lib[0].smiles, lib[0].compound_id)
    b = oracle.affinity(lib[0].smiles, lib[0].compound_id)
    assert a == b
    assert lib[0].compound_id in oracle._cache


def test_oracle_affinities_vary(oracle_setup):
    oracle, lib = oracle_setup
    scores = oracle.affinities(lib)
    assert scores.shape == (12,)
    assert scores.std() > 0


def test_true_top_ids(oracle_setup):
    oracle, lib = oracle_setup
    top = oracle.true_top_ids(lib, 0.25)
    assert len(top) == 3
    scores = oracle.affinities(lib)
    best = {lib[int(i)].compound_id for i in np.argsort(scores)[:3]}
    assert top == best


def test_true_top_validates(oracle_setup):
    oracle, lib = oracle_setup
    with pytest.raises(ValueError):
        oracle.true_top_ids(lib, 0.0)


def test_oracle_validates_restarts():
    receptor = make_receptor("PLPro", "6W9C", seed=7)
    with pytest.raises(ValueError):
        ReferenceOracle(receptor, restarts=0)
