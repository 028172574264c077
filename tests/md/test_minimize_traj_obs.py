"""Tests for minimization, trajectory recording and observables."""

import numpy as np
import pytest

from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.minimize import minimize
from repro.md.observables import (
    contact_count,
    kabsch_rmsd,
    radius_of_gyration,
)
from repro.md.system import MDSystem, Topology
from repro.md.trajectory import Trajectory, simulate
from repro.util.rng import rng_stream


def _system(n=15, seed=0):
    rng = rng_stream(seed, "t/mto")
    bonds = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    topo = Topology(
        masses=np.full(n, 30.0),
        charges=rng.normal(scale=0.1, size=n),
        hydro=rng.uniform(-0.3, 0.3, size=n),
        radii=np.full(n, 2.0),
        bonds=bonds,
        bond_lengths=np.full(n - 1, 3.8),
        bond_k=np.full(n - 1, 8.0),
        protein_atoms=np.arange(n - 3),
        ligand_atoms=np.arange(n - 3, n),
    )
    pos = rng.normal(scale=4.0, size=(n, 3))
    return MDSystem(topology=topo, positions=pos)


# ------------------------------------------------------------- minimization


def test_minimize_reduces_energy():
    system = _system()
    ff = ForceField()
    result = minimize(system, ff, max_iterations=80)
    assert result.final_energy < result.initial_energy
    assert ff.potential_energy(system).total == pytest.approx(result.final_energy)


def test_minimize_respects_iteration_cap():
    system = _system(seed=1)
    result = minimize(system, ForceField(), max_iterations=3)
    assert result.n_iterations <= 3


def test_minimize_validates():
    with pytest.raises(ValueError):
        minimize(_system(), ForceField(), max_iterations=0)


# --------------------------------------------------------------- trajectory


def test_simulate_records_expected_frames():
    system = _system(seed=2)
    ff = ForceField()
    traj = simulate(
        system, ff, Langevin(), 50, rng_stream(3, "t/sim"), record_every=10
    )
    assert traj.n_frames == 5
    assert len(traj.times) == 5
    assert traj.times[0] == pytest.approx(10 * Langevin().timestep)
    assert traj.frames.shape == (5, system.n_atoms, 3)
    assert np.isfinite(traj.potential_energies).all()
    assert np.isfinite(traj.interaction_energies).all()


def test_simulate_partial_last_chunk():
    system = _system(seed=3)
    traj = simulate(
        system, ForceField(), Langevin(), 25, rng_stream(4, "t/sim2"), record_every=10
    )
    assert traj.n_frames == 3  # 10, 10, 5


def test_simulate_zero_steps():
    system = _system(seed=4)
    traj = simulate(system, ForceField(), Langevin(), 0, rng_stream(5, "t/sim3"))
    assert traj.n_frames == 0


def test_simulate_validates():
    system = _system()
    with pytest.raises(ValueError):
        simulate(system, ForceField(), Langevin(), -1, rng_stream(0, "x"))
    with pytest.raises(ValueError):
        simulate(system, ForceField(), Langevin(), 10, rng_stream(0, "x"), record_every=0)


def test_trajectory_concatenate():
    system = _system(seed=5)
    ff = ForceField()
    a = simulate(system, ff, Langevin(), 20, rng_stream(6, "t/c1"), record_every=10)
    b = simulate(system, ff, Langevin(), 20, rng_stream(7, "t/c2"), record_every=10)
    joined = a.concatenate(b)
    assert joined.n_frames == 4
    assert (np.diff(joined.times) > 0).all()


# -------------------------------------------------------------- observables


def test_kabsch_rmsd_zero_for_rigid_motion():
    rng = rng_stream(8, "t/kab")
    a = rng.normal(size=(20, 3))
    # random rotation + translation
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x, y, z, w = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    b = a @ rot.T + np.array([5.0, -3.0, 2.0])
    assert kabsch_rmsd(a, b) == pytest.approx(0.0, abs=1e-10)


def test_kabsch_rmsd_detects_deformation():
    rng = rng_stream(9, "t/kab2")
    a = rng.normal(size=(20, 3))
    b = a + rng.normal(scale=0.5, size=a.shape)
    assert kabsch_rmsd(a, b) > 0.1


def test_kabsch_validates_shapes():
    with pytest.raises(ValueError):
        kabsch_rmsd(np.zeros((3, 3)), np.zeros((4, 3)))


def test_radius_of_gyration():
    # beads on a sphere of radius 2 → Rg = 2
    rng = rng_stream(11, "t/rog")
    v = rng.normal(size=(500, 3))
    v = 2.0 * v / np.linalg.norm(v, axis=1, keepdims=True)
    assert radius_of_gyration(v) == pytest.approx(2.0, rel=0.05)


def test_contact_count():
    coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    a = np.array([0])
    b = np.array([1, 2])
    assert contact_count(coords, a, b, cutoff=5.0) == 1
    assert contact_count(coords, a, b, cutoff=20.0) == 2


def test_contact_count_validates():
    with pytest.raises(ValueError):
        contact_count(np.zeros((2, 3)), np.array([0]), np.array([1]), cutoff=0)
