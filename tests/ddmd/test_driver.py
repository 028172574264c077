"""Tests for the DeepDriveMD adaptive-sampling driver."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.ddmd.aae import AAEConfig
from repro.ddmd.driver import AdaptiveSampler, AdaptiveSamplingConfig
from repro.docking.receptor import make_receptor
from repro.md.builder import build_lpc
from repro.md.forcefield import ForceField
from repro.md.minimize import minimize
from repro.util.rng import rng_stream

TINY = AdaptiveSamplingConfig(
    rounds=2,
    simulations_per_round=3,
    steps_per_simulation=30,
    record_every=5,
    aae=AAEConfig(epochs=3, latent_dim=6, hidden=8, batch_size=8),
)


@pytest.fixture(scope="module")
def system():
    receptor = make_receptor("PLPro", "6W9C", seed=7)
    mol = parse_smiles("c1ccncc1CC(=O)O")
    coords = rng_stream(0, "t/drv").normal(scale=2.0, size=(mol.n_atoms, 3))
    sys_ = build_lpc(receptor, mol, coords, seed=0, n_residues=50)
    minimize(sys_, ForceField(), max_iterations=20)
    return sys_


@pytest.fixture(scope="module")
def adaptive_result(system):
    return AdaptiveSampler(system, TINY, seed=0).run()


def test_result_structure(adaptive_result):
    r = adaptive_result
    assert len(r.trajectories) == TINY.rounds * TINY.simulations_per_round
    assert len(r.coverage_per_round) == TINY.rounds
    frames_per_sim = 30 // 5
    assert len(r.frames) == len(r.trajectories) * frames_per_sim
    assert r.frames.shape[1] == 50  # protein beads only
    assert r.max_rmsd > 0
    assert r.model is not None  # AAE trained between rounds


def test_template_not_mutated(system):
    before = system.positions.copy()
    AdaptiveSampler(system, TINY, seed=1).run()
    np.testing.assert_array_equal(system.positions, before)


def test_deterministic(system):
    a = AdaptiveSampler(system, TINY, seed=3).run()
    b = AdaptiveSampler(system, TINY, seed=3).run()
    np.testing.assert_array_equal(a.frames, b.frames)


def test_control_mode_has_no_model(system):
    r = AdaptiveSampler(system, TINY.replace(adaptive=False), seed=0).run()
    assert r.model is None
    assert len(r.coverage_per_round) == TINY.rounds


def test_adaptive_explores_more_than_control(system):
    """The DeepDriveMD claim, at smoke scale: adaptive restarts reach
    farther from the start than restarts from the initial structure."""
    cfg = AdaptiveSamplingConfig(
        rounds=3,
        simulations_per_round=4,
        steps_per_simulation=40,
        record_every=5,
        aae=AAEConfig(epochs=4, latent_dim=6, hidden=8, batch_size=8),
    )
    adaptive = AdaptiveSampler(system, cfg, seed=0).run()
    control = AdaptiveSampler(system, cfg.replace(adaptive=False), seed=0).run()
    assert adaptive.coverage_per_round[-1] > control.coverage_per_round[-1]
    assert adaptive.max_rmsd > control.max_rmsd


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveSamplingConfig(rounds=0)
    with pytest.raises(ValueError):
        AdaptiveSamplingConfig(simulations_per_round=-1)
