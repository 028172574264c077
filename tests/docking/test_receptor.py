"""Tests for receptor grid construction."""

import numpy as np
import pytest

from repro.docking.receptor import TARGETS, make_receptor


def test_known_targets_exist():
    assert set(TARGETS) == {"3CLPro", "PLPro", "ADRP", "NSP15"}
    assert "6W9C" in TARGETS["PLPro"]


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown target"):
        make_receptor("SPIKE")


def test_unknown_pdb_rejected():
    with pytest.raises(ValueError, match="unknown PDB id"):
        make_receptor("PLPro", "9XYZ")


def test_default_pdb_is_first_variant():
    rec = make_receptor("PLPro")
    assert rec.pdb_id == TARGETS["PLPro"][0]


def test_grid_shapes_consistent():
    rec = make_receptor("3CLPro", box_size=12.0, spacing=1.0)
    assert rec.phi.shape == rec.hydro.shape == rec.steric.shape
    assert rec.n_grid == 13
    assert rec.origin == pytest.approx(-6.0)
    assert rec.origin + rec.spacing * (rec.n_grid - 1) == pytest.approx(6.0)


def test_construction_deterministic():
    a = make_receptor("PLPro", "6W9C", seed=5)
    b = make_receptor("PLPro", "6W9C", seed=5)
    np.testing.assert_array_equal(a.phi, b.phi)


def test_different_seeds_differ():
    a = make_receptor("PLPro", "6W9C", seed=5)
    b = make_receptor("PLPro", "6W9C", seed=6)
    assert not np.allclose(a.phi, b.phi)


def test_pdb_variants_similar_but_distinct():
    a = make_receptor("PLPro", "6W9C", seed=5)
    b = make_receptor("PLPro", "6WX4", seed=5)
    assert not np.allclose(a.phi, b.phi)
    # but the pocket is the same protein: fields strongly correlated
    corr = np.corrcoef(a.phi.ravel(), b.phi.ravel())[0, 1]
    assert corr > 0.7


def test_fields_bounded():
    rec = make_receptor("NSP15")
    assert np.isfinite(rec.phi).all()
    assert np.abs(rec.phi).max() < 200
    assert rec.steric.min() >= 0.0


def test_contains():
    rec = make_receptor("ADRP", box_size=10.0)
    inside = np.array([[0.0, 0.0, 0.0], [4.9, 0, 0]])
    outside = np.array([[5.1, 0, 0]])
    assert rec.contains(inside).all()
    assert not rec.contains(outside).any()


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        make_receptor("PLPro", box_size=-1)
    with pytest.raises(ValueError):
        make_receptor("PLPro", spacing=0)
