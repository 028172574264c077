"""Tests for the batch docking engine (S1 public API)."""

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor

FAST = LGAConfig(population=8, generations=3)


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def library():
    return generate_library(8, seed=13)


@pytest.fixture(scope="module")
def results(receptor, library):
    return DockingEngine(receptor, seed=0, config=FAST).dock_library(library)


def test_results_cover_library(results, library):
    assert len(results) == len(library)
    assert [r.compound_id for r in results] == [e.compound_id for e in library]


def test_scores_finite_and_varied(results):
    scores = np.array([r.score for r in results])
    assert np.isfinite(scores).all()
    assert scores.std() > 0  # different molecules dock differently


def test_docking_independent_of_batch_composition(receptor, library):
    """Per-compound RNG streams: docking alone == docking within a batch."""
    eng = DockingEngine(receptor, seed=0, config=FAST)
    solo = eng.dock_smiles(library[3].smiles, library[3].compound_id)
    batch = DockingEngine(receptor, seed=0, config=FAST).dock_library(library)
    assert solo.score == batch[3].score


def test_limit(receptor, library):
    out = DockingEngine(receptor, seed=0, config=FAST).dock_library(library, limit=3)
    assert len(out) == 3


def test_engine_accumulates_accounting(receptor, library):
    eng = DockingEngine(receptor, seed=0, config=FAST)
    eng.dock_library(library, limit=4)
    assert eng.total_ligands == 4
    assert eng.total_evals > 0


def test_rank_sorted(results):
    ranked = DockingEngine.rank(results)
    scores = [r.score for r in ranked]
    assert scores == sorted(scores)


def test_different_receptor_variants_give_different_scores(library):
    a = DockingEngine(make_receptor("PLPro", "6W9C", seed=7), seed=0, config=FAST)
    b = DockingEngine(make_receptor("PLPro", "6WX4", seed=7), seed=0, config=FAST)
    sa = a.dock_smiles(library[0].smiles, library[0].compound_id).score
    sb = b.dock_smiles(library[0].smiles, library[0].compound_id).score
    assert sa != sb
