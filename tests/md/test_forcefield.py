"""Tests for the force field: correctness of forces and energies."""

import numpy as np
import pytest

from repro.md.forcefield import ForceField
from repro.md.system import Topology
from repro.util.rng import rng_stream


def _two_bead_topology(q=(0.0, 0.0), h=(0.0, 0.0), bonded=False):
    bonds = np.array([[0, 1]]) if bonded else np.zeros((0, 2), dtype=int)
    return Topology(
        masses=np.full(2, 12.0),
        charges=np.array(q, dtype=float),
        hydro=np.array(h, dtype=float),
        radii=np.full(2, 2.0),
        bonds=bonds,
        bond_lengths=np.full(len(bonds), 2.0),
        bond_k=np.full(len(bonds), 5.0),
        protein_atoms=np.array([0]),
        ligand_atoms=np.array([1]),
    )


def _random_topology(n=30, seed=0):
    rng = rng_stream(seed, "t/fftopo")
    bonds = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return Topology(
        masses=np.full(n, 12.0),
        charges=rng.normal(scale=0.2, size=n),
        hydro=rng.uniform(-0.5, 0.5, size=n),
        radii=rng.uniform(1.5, 2.5, size=n),
        bonds=bonds,
        bond_lengths=np.full(n - 1, 3.8),
        bond_k=np.full(n - 1, 8.0),
        protein_atoms=np.arange(n - 5),
        ligand_atoms=np.arange(n - 5, n),
    )


def test_bond_energy_zero_at_rest_length():
    topo = _two_bead_topology(bonded=True)
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    _, e = ff.compute(topo, pos)
    assert e.bond == pytest.approx(0.0)


def test_bond_restoring_force():
    topo = _two_bead_topology(bonded=True)
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])  # stretched
    f, e = ff.compute(topo, pos)
    assert e.bond > 0
    assert f[0, 0] > 0 and f[1, 0] < 0  # pulled together


def test_bonded_pair_excluded_from_nonbonded():
    ff = ForceField()
    # r = 2.5 != sigma, so the unexcluded LJ energy is nonzero
    pos = np.array([[0.0, 0, 0], [2.5, 0, 0]])
    _, e_bonded = ff.compute(_two_bead_topology(bonded=True), pos)
    _, e_free = ff.compute(_two_bead_topology(bonded=False), pos)
    assert e_bonded.lj == 0.0
    assert e_free.lj != 0.0


def test_opposite_charges_attract():
    topo = _two_bead_topology(q=(0.5, -0.5))
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [4.0, 0, 0]])
    f, e = ff.compute(topo, pos)
    assert e.coulomb < 0
    assert f[0, 0] > 0  # bead 0 pulled toward bead 1


def test_like_charges_repel():
    topo = _two_bead_topology(q=(0.5, 0.5))
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [4.0, 0, 0]])
    f, e = ff.compute(topo, pos)
    assert e.coulomb > 0
    assert f[0, 0] < 0


def test_hydrophobic_pair_attracts():
    topo = _two_bead_topology(h=(0.8, 0.8))
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [3.5, 0, 0]])
    f, e = ff.compute(topo, pos)
    assert e.hydrophobic < 0
    assert f[0, 0] > 0  # attraction


def test_lj_repulsive_at_short_range():
    topo = _two_bead_topology()
    ff = ForceField()
    pos = np.array([[0.0, 0, 0], [1.5, 0, 0]])  # well inside sigma=2
    f, e = ff.compute(topo, pos)
    assert e.lj > 0
    assert f[0, 0] < 0  # pushed apart


def test_confinement_pulls_back():
    topo = _two_bead_topology()
    ff = ForceField(confine_radius=10.0)
    pos = np.array([[0.0, 0, 0], [30.0, 0, 0]])
    f, e = ff.compute(topo, pos)
    assert e.confine > 0
    assert f[1, 0] < 0  # inward


def test_forces_match_numeric_gradient():
    topo = _random_topology()
    ff = ForceField()
    rng = rng_stream(1, "t/ffnum")
    pos = rng.normal(scale=6.0, size=(30, 3))
    f, _ = ff.compute(topo, pos)
    eps = 1e-6
    for idx, ax in [(0, 0), (10, 1), (29, 2), (15, 0)]:
        p = pos.copy()
        p[idx, ax] += eps
        _, eu = ff.compute(topo, p)
        p[idx, ax] -= 2 * eps
        _, ed = ff.compute(topo, p)
        num = -(eu.total - ed.total) / (2 * eps)
        assert f[idx, ax] == pytest.approx(num, rel=1e-4, abs=1e-7)


def test_total_force_near_zero_without_confinement():
    """Newton's third law: internal forces sum to zero."""
    topo = _random_topology()
    ff = ForceField(confine_radius=1e6)  # confinement inactive
    pos = rng_stream(2, "t/ff3").normal(scale=6.0, size=(30, 3))
    f, _ = ff.compute(topo, pos)
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9)


def test_breakdown_total_is_sum():
    topo = _random_topology()
    ff = ForceField()
    pos = rng_stream(3, "t/ffsum").normal(scale=6.0, size=(30, 3))
    _, e = ff.compute(topo, pos)
    assert e.total == pytest.approx(
        e.bond + e.lj + e.coulomb + e.hydrophobic + e.confine
    )


def test_interaction_energy_only_cross_pairs():
    """Moving the ligand far away sends interaction energy to ~zero."""
    topo = _random_topology()
    ff = ForceField()
    pos = rng_stream(4, "t/ffint").normal(scale=5.0, size=(30, 3))
    near = ff.interaction_energy(topo, pos)
    far = pos.copy()
    far[topo.ligand_atoms] += 500.0
    e_far = ff.interaction_energy(topo, far)
    assert abs(e_far) < 1e-2
    assert abs(near) > 10 * abs(e_far)


def test_config_validation():
    with pytest.raises(ValueError):
        ForceField(lj_epsilon=0)
    with pytest.raises(ValueError):
        ForceField(min_distance=-1)


def test_pair_tables_follow_parameter_values_not_object_identity():
    """A collected force field hands its ``id`` to a later one; the tables
    cached on the topology must not come with it."""
    topo = _random_topology()
    pos = rng_stream(5, "t/ffstale").normal(scale=6.0, size=(30, 3))
    ff = ForceField(lj_epsilon=0.15)
    weak = ff.compute(topo, pos)[1].lj
    stale_id = id(ff)
    del ff
    held = []  # keep the misses alive so the freed slot stays on offer
    for _ in range(64):
        ff = ForceField(lj_epsilon=1.5)
        if id(ff) == stale_id:
            break
        held.append(ff)
    strong = ff.compute(topo, pos)[1].lj
    assert weak != 0.0
    assert strong == pytest.approx(10.0 * weak)
