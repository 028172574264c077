"""Tests for the Lamarckian genetic algorithm (a fused shard of one)."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.batch import dock_shard
from repro.docking.lga import LGAConfig
from repro.docking.ligand import prepare_ligand
from repro.docking.receptor import make_receptor
from repro.docking.scoring import score_pose
from repro.util.rng import rng_stream


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("3CLPro", seed=7)


@pytest.fixture(scope="module")
def beads():
    return prepare_ligand(parse_smiles("Cc1ccccc1C#N"), rng_stream(0, "t/lga"))


FAST = LGAConfig(population=10, generations=4)


def _dock(receptor, beads, rng, cfg=FAST):
    return dock_shard(receptor, [beads], [rng], cfg)[0]


def test_docking_returns_consistent_result(receptor, beads):
    run = _dock(receptor, beads, rng_stream(1, "t/run"))
    assert score_pose(receptor, beads, run.best_pose).total == run.best_score
    assert run.n_evals > 0
    assert len(run.history) == FAST.generations + 1


def test_history_monotone_nonincreasing(receptor, beads):
    """Elitism guarantees the best score never regresses."""
    run = _dock(receptor, beads, rng_stream(2, "t/mono"))
    assert all(b <= a + 1e-9 for a, b in zip(run.history, run.history[1:]))


def test_deterministic_given_stream(receptor, beads):
    a = _dock(receptor, beads, rng_stream(3, "t/det"))
    b = _dock(receptor, beads, rng_stream(3, "t/det"))
    assert a.best_score == b.best_score
    np.testing.assert_array_equal(a.best_pose.translation, b.best_pose.translation)


def test_search_improves_over_random(receptor, beads):
    """GA must beat the best of an equal-size random sample."""
    rng = rng_stream(4, "t/rand")
    from repro.docking.lga import _random_quaternions
    from repro.docking.scoring import score_poses_batch

    run = _dock(receptor, beads, rng_stream(5, "t/ga"))
    k = 40
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-6, 6, size=(k, 3))
    quats = _random_quaternions(rng, k)
    random_best = score_poses_batch(receptor, beads, conf, trans, quats).min()
    assert run.best_score < random_best


def test_more_generations_no_worse(receptor, beads):
    short = _dock(
        receptor, beads, rng_stream(6, "t/gen"), LGAConfig(population=10, generations=2)
    )
    long = _dock(
        receptor, beads, rng_stream(6, "t/gen"), LGAConfig(population=10, generations=10)
    )
    assert long.best_score <= short.best_score + 1e-9


def test_unknown_local_search_rejected(receptor):
    """The one name lookup fails at engine construction, not mid-screen."""
    from repro.docking.engine import DockingEngine

    with pytest.raises(ValueError, match="unknown local search"):
        DockingEngine(receptor, local_search="newton")


def test_config_validation():
    with pytest.raises(ValueError):
        LGAConfig(population=0)
    with pytest.raises(ValueError):
        LGAConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        LGAConfig(population=4, elitism=4)


def test_best_pose_inside_box(receptor, beads):
    """The optimum must be a physically placed pose, not a wall artifact."""
    run = _dock(receptor, beads, rng_stream(7, "t/box"))
    assert np.abs(run.best_pose.translation).max() < receptor.box_size / 2.0
