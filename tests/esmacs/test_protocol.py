"""Tests for the ESMACS protocol (CG/FG presets, replica semantics)."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.receptor import make_receptor
from repro.esmacs.protocol import CG, FG, EsmacsConfig, EsmacsRunner
from repro.util.rng import rng_stream

#: tiny config for tests: real protocol structure, minimal steps
TINY = EsmacsConfig(
    replicas=3,
    equilibration_ns=1.0,
    production_ns=2.0,
    steps_per_ns=8,
    n_residues=50,
    record_every=2,
    minimize_iterations=15,
)


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def mol():
    return parse_smiles("c1ccncc1CC(=O)O")


@pytest.fixture(scope="module")
def result(receptor, mol):
    coords = rng_stream(0, "t/esm").normal(scale=2.0, size=(mol.n_atoms, 3))
    return EsmacsRunner(receptor, TINY, seed=0).run(mol, coords, "CPD1")


def test_paper_presets():
    assert CG.replicas == 6 and FG.replicas == 24
    assert CG.equilibration_ns == 1.0 and FG.equilibration_ns == 2.0
    assert CG.production_ns == 4.0 and FG.production_ns == 10.0


def test_fg_roughly_order_of_magnitude_costlier():
    """Table 2: FG ≈ 10× CG in node-hours per ligand."""
    cg_cost = CG.replicas * (CG.equilibration_steps + CG.production_steps)
    fg_cost = FG.replicas * (FG.equilibration_steps + FG.production_steps)
    assert 7 <= fg_cost / cg_cost <= 13


def test_steps_mapping():
    cfg = EsmacsConfig(replicas=1, equilibration_ns=1.0, production_ns=4.0, steps_per_ns=30)
    assert cfg.equilibration_steps == 30
    assert cfg.production_steps == 120


def test_result_structure(result):
    assert result.compound_id == "CPD1"
    assert len(result.replica_dgs) == 3
    assert len(result.trajectories) == 3
    assert result.protein_atoms is not None
    assert result.md_steps == 3 * (TINY.equilibration_steps + TINY.production_steps)
    assert np.isfinite(result.binding_free_energy)
    assert result.sem >= 0


def test_ensemble_mean_is_replica_mean(result):
    assert result.binding_free_energy == pytest.approx(result.replica_dgs.mean())


def test_replicas_differ(result):
    """Independent replicas must explore different trajectories."""
    assert result.replica_dgs.std() > 0
    f0 = result.trajectories[0].frames[-1]
    f1 = result.trajectories[1].frames[-1]
    assert not np.allclose(f0, f1)


def test_deterministic(receptor, mol):
    coords = rng_stream(1, "t/esm2").normal(scale=2.0, size=(mol.n_atoms, 3))
    a = EsmacsRunner(receptor, TINY, seed=3).run(mol, coords, "X")
    b = EsmacsRunner(receptor, TINY, seed=3).run(mol, coords, "X")
    np.testing.assert_array_equal(a.replica_dgs, b.replica_dgs)


def test_different_seeds_differ(receptor, mol):
    coords = rng_stream(2, "t/esm3").normal(scale=2.0, size=(mol.n_atoms, 3))
    a = EsmacsRunner(receptor, TINY, seed=3).run(mol, coords, "X")
    b = EsmacsRunner(receptor, TINY, seed=4).run(mol, coords, "X")
    assert not np.array_equal(a.replica_dgs, b.replica_dgs)


def test_drop_trajectories_flag(receptor, mol):
    coords = rng_stream(3, "t/esm4").normal(scale=2.0, size=(mol.n_atoms, 3))
    res = EsmacsRunner(receptor, TINY, seed=0).run(
        mol, coords, "X", keep_trajectories=False
    )
    assert res.trajectories == []
    assert np.isfinite(res.binding_free_energy)


def test_config_validation():
    with pytest.raises(ValueError):
        EsmacsConfig(replicas=0, equilibration_ns=1, production_ns=1)
    with pytest.raises(ValueError):
        EsmacsConfig(replicas=1, equilibration_ns=-1, production_ns=1)
