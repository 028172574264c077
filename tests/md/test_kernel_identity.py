"""The workspace force kernel against the dense reference, bit for bit.

``repro.md.forcefield`` evaluates the pair terms through preallocated
buffers, a transposed layout and a few reassociations that are exact in
IEEE arithmetic; ``tests/md/oracle.py`` keeps the dense kernel (and the
allocating Langevin loop) it replaced.  Nothing here uses a tolerance:
forces must be ``array_equal`` and energies ``==``, on generated
topologies that hit every branch of the kernel, and the trajectories
built on top of it (integrators, minimizer, ESMACS, TIES) must not move
by one bit when the reference is monkeypatched in.
"""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.receptor import make_receptor
from repro.esmacs import BindingEstimator, EsmacsConfig, EsmacsRunner
from repro.md import (
    ForceField,
    Langevin,
    MDSystem,
    Topology,
    build_lpc,
    minimize,
)
from repro.ties.protocol import TiesConfig, TiesRunner
from repro.util.rng import rng_stream
from tests.md import oracle

#: none of the changed values is a power of two
ODD_FF = ForceField(hydro_range=3.7, min_distance=1.1, dielectric_slope=3.0)


def _topology(n: int, bonds: str) -> Topology:
    rng = rng_stream(n, f"t/kernel/{bonds}")
    pairs = np.zeros((0, 2), dtype=int)
    if bonds != "none":
        pairs = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    if bonds == "go":  # Gō-dense: a third of all non-adjacent pairs too
        i, j = np.triu_indices(n, k=3)
        keep = rng.random(len(i)) < 1 / 3
        pairs = np.concatenate([pairs, np.stack([i[keep], j[keep]], axis=1)])
    n_lig = max(1, n // 7)
    return Topology(
        masses=rng.uniform(12.0, 110.0, size=n),
        charges=rng.normal(scale=0.3, size=n),
        hydro=rng.uniform(-0.8, 0.8, size=n),
        radii=rng.uniform(1.5, 3.0, size=n),
        bonds=pairs,
        bond_lengths=rng.uniform(3.0, 6.0, size=len(pairs)),
        bond_k=rng.uniform(0.3, 20.0, size=len(pairs)),
        protein_atoms=np.arange(n - n_lig),
        ligand_atoms=np.arange(n - n_lig, n),
    )


def _configurations(n: int, ff: ForceField):
    """Named (n, 3) position sets covering each branch of the kernel."""
    rng = rng_stream(n, "t/kernel/positions")
    compact = rng.normal(scale=4.0, size=(n, 3))
    yield "compact", compact
    spread = rng.normal(scale=14.0, size=(n, 3))
    spread[0] = (40.0, 0.0, 0.0)  # beyond confine_radius
    yield "spread", spread
    coincident = compact.copy()
    coincident[1] = coincident[0]  # r = 0
    yield "coincident", coincident
    clashed = compact.copy()
    clashed[0] = 0.0
    clashed[1] = (0.3, 0.0, 0.0)  # inside the soft core
    if n > 2:
        clashed[2] = (0.0, ff.min_distance, 0.0)  # exactly on its edge
    yield "clashed", clashed


@pytest.mark.parametrize("ff", [ForceField(), ODD_FF], ids=["default", "odd"])
@pytest.mark.parametrize("bonds", ["none", "chain", "go"])
@pytest.mark.parametrize("n", [2, 3, 30, 105])
def test_kernel_matches_reference(n, bonds, ff):
    topology = _topology(n, bonds)
    for label, positions in _configurations(n, ff):
        want_f, want_e = oracle.compute(ff, topology, positions)
        got_f, got_e = ff.compute(topology, positions)
        assert np.array_equal(got_f, want_f), label
        assert got_e == want_e, label  # dataclass ==: every field, exactly
        # the two reduced entry points are the same pass
        assert np.array_equal(ff.forces(topology, positions), want_f), label
        assert ff.energies(topology, positions) == want_e, label


def test_returned_forces_never_alias_the_workspace():
    ff = ForceField()
    topology = _topology(30, "go")
    (_, first), (_, second), *_ = _configurations(30, ff)
    f1 = ff.forces(topology, first)
    snapshot = f1.copy()
    f2, _ = ff.compute(topology, second)
    assert np.array_equal(f1, snapshot)
    assert not np.array_equal(f1, f2)
    workspace = ff._workspace(topology)
    buffers = [
        getattr(workspace, name)
        for name in type(workspace).__slots__
        if isinstance(getattr(workspace, name), np.ndarray)
    ]
    assert len(buffers) > 10
    for out in (f1, f2):
        assert not any(np.shares_memory(out, buf) for buf in buffers)


def test_workspace_is_per_topology_and_per_parameter_value():
    topology = _topology(30, "chain")
    positions = next(iter(_configurations(30, ODD_FF)))[1]
    ws = ForceField()._workspace(topology)
    assert ForceField()._workspace(topology) is ws  # equal value, new object
    assert ODD_FF._workspace(topology) is not ws
    assert ForceField()._workspace(_topology(30, "chain")) is not ws
    # switching back and forth keeps answering for the caller's parameters
    for ff in (ForceField(), ODD_FF, ForceField()):
        want_f, _ = oracle.compute(ff, topology, positions)
        assert np.array_equal(ff.forces(topology, positions), want_f)


# ----------------------------------------------------------- trajectories
@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


@pytest.fixture(scope="module")
def ligand():
    mol = parse_smiles("c1ccncc1CC(=O)Oc1ccccc1")
    coords = rng_stream(0, "t/kernel/pose").normal(scale=2.0, size=(mol.n_atoms, 3))
    return mol, coords


@pytest.fixture(scope="module")
def lpc(receptor, ligand):
    """Campaign-sized complex (90 residues + ligand, ~400 bonds)."""
    return build_lpc(receptor, *ligand, seed=1, n_residues=90)


def _fresh(lpc: MDSystem, seed: int) -> MDSystem:
    system = MDSystem(topology=lpc.topology, positions=lpc.positions.copy())
    system.initialize_velocities(300.0, rng_stream(seed, "t/kernel/v0"))
    return system


def _both(monkeypatch, run):
    """``run()`` under the reference kernels, then under production."""
    with monkeypatch.context() as patch:
        oracle.install(patch)
        want = run()
    return run(), want


def test_langevin_trajectory_is_bit_identical(monkeypatch, lpc):
    def run():
        system = _fresh(lpc, 3)
        rng = rng_stream(3, "t/kernel/langevin")
        integrator = Langevin()
        integrator.run(system, ForceField(), 20, rng)
        integrator.run(system, ForceField(), 30, rng)  # re-entry mid-stream
        return system.positions, system.velocities, rng.random()

    (x, v, u), (want_x, want_v, want_u) = _both(monkeypatch, run)
    assert np.array_equal(x, want_x) and np.array_equal(v, want_v)
    assert u == want_u  # the generator is left in the same state


def test_langevin_clamp_engages_identically(monkeypatch, lpc):
    """A start hot enough to hit ``max_displacement`` on most beads."""

    def run():
        system = _fresh(lpc, 4)
        system.velocities *= 60.0
        Langevin().run(system, ODD_FF, 10, rng_stream(4, "t/kernel/hot"))
        return system.positions, system.velocities

    (x, v), (want_x, want_v) = _both(monkeypatch, run)
    assert np.array_equal(x, want_x) and np.array_equal(v, want_v)


def test_minimize_is_bit_identical(monkeypatch, lpc):
    def run():
        system = _fresh(lpc, 6)
        # strain it so the line search both accepts and backtracks
        system.positions += rng_stream(6, "t/kernel/strain").normal(
            scale=0.4, size=system.positions.shape
        )
        return minimize(system, ForceField(), max_iterations=40), system.positions

    (result, x), (want_result, want_x) = _both(monkeypatch, run)
    assert result == want_result
    assert np.array_equal(x, want_x)


def test_esmacs_replica_dgs_are_bit_identical(monkeypatch, receptor, ligand):
    cg_sized = EsmacsConfig(
        replicas=3,
        equilibration_ns=1.0,
        production_ns=4.0,
        steps_per_ns=14,
        n_residues=90,
        record_every=5,
        minimize_iterations=25,
    )

    def run():
        return EsmacsRunner(receptor, cg_sized, seed=2).run(*ligand, "CPD")

    with monkeypatch.context() as patch:
        oracle.install(patch)
        # the reference re-evaluates E_inter per frame, as the parent did
        patch.setattr(
            BindingEstimator,
            "estimate_recorded",
            lambda self, topology, frames, _recorded: self.estimate_trajectory(
                ForceField(), topology, frames
            ),
        )
        want = run()
    got = run()
    assert np.array_equal(got.replica_dgs, want.replica_dgs)
    assert got.binding_free_energy == want.binding_free_energy
    assert got.sem == want.sem
    for traj, want_traj in zip(got.trajectories, want.trajectories, strict=True):
        assert np.array_equal(traj.frames, want_traj.frames)
        assert np.array_equal(traj.potential_energies, want_traj.potential_energies)
        assert np.array_equal(
            traj.interaction_energies, want_traj.interaction_energies
        )


def test_ties_ddg_is_bit_identical(monkeypatch, receptor):
    tiny = TiesConfig(
        n_windows=3,
        replicas_per_window=2,
        equilibration_steps=8,
        production_steps=24,
        record_every=4,
        n_residues=40,
        minimize_iterations=10,
    )
    mol_a = parse_smiles("c1ccccc1CC(=O)O")
    mol_b = parse_smiles("c1ccccc1CC(=O)N")
    coords = rng_stream(0, "t/kernel/ties").normal(scale=2.0, size=(mol_a.n_atoms, 3))

    def run():
        return TiesRunner(receptor, tiny, seed=0).run(mol_a, mol_b, coords)

    got, want = _both(monkeypatch, run)
    assert got.ddg == want.ddg and got.sem == want.sem
    for leg, want_leg in (
        (got.complex_leg, want.complex_leg),
        (got.solvent_leg, want.solvent_leg),
    ):
        assert np.array_equal(leg.dudl_mean, want_leg.dudl_mean)
        assert np.array_equal(leg.dudl_sem, want_leg.dudl_sem)
