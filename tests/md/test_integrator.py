"""Tests for the Langevin integrator: thermostatting and determinism."""

import numpy as np
import pytest

from repro.md.forcefield import ForceField
from repro.md.integrator import Langevin
from repro.md.system import MDSystem, Topology
from repro.util.rng import rng_stream


def _chain_system(n=20, seed=0):
    rng = rng_stream(seed, "t/integ")
    bonds = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    topo = Topology(
        masses=np.full(n, 50.0),
        charges=np.zeros(n),
        hydro=np.zeros(n),
        radii=np.full(n, 2.0),
        bonds=bonds,
        bond_lengths=np.full(n - 1, 3.8),
        bond_k=np.full(n - 1, 8.0),
        protein_atoms=np.arange(n - 2),
        ligand_atoms=np.arange(n - 2, n),
    )
    # start from a gently perturbed straight chain
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) * 3.8
    pos += rng.normal(scale=0.05, size=pos.shape)
    pos -= pos.mean(axis=0)
    return MDSystem(topology=topo, positions=pos)


def test_langevin_reaches_target_temperature():
    # confinement off: the long initial chain would otherwise dump heat
    # while collapsing, biasing the sampled temperatures
    system = _chain_system(n=40, seed=4)
    ff = ForceField(confine_radius=1e5)
    integ = Langevin(timestep=0.01, temperature=300.0, friction=2.0)
    rng = rng_stream(5, "t/temp")
    integ.run(system, ff, 500, rng)
    temps = []
    for _ in range(50):
        integ.run(system, ff, 10, rng)
        temps.append(system.temperature())
    assert np.mean(temps) == pytest.approx(300.0, rel=0.15)


def test_langevin_deterministic_given_stream():
    a = _chain_system(seed=6)
    b = _chain_system(seed=6)
    ff = ForceField()
    Langevin().run(a, ff, 50, rng_stream(7, "t/det"))
    Langevin().run(b, ff, 50, rng_stream(7, "t/det"))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_langevin_different_streams_diverge():
    a = _chain_system(seed=6)
    b = _chain_system(seed=6)
    ff = ForceField()
    Langevin().run(a, ff, 50, rng_stream(8, "t/d1"))
    Langevin().run(b, ff, 50, rng_stream(9, "t/d2"))
    assert not np.allclose(a.positions, b.positions)


def test_config_validation():
    with pytest.raises(ValueError):
        Langevin(temperature=-1)
    with pytest.raises(ValueError):
        Langevin(friction=0)
