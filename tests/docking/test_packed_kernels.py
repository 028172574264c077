"""Packed multi-ligand kernels: fused stencil and mask behaviour.

These pin the two invariants the fused docking path rests on: the
stacked trilinear gather is *bitwise* the three separate per-grid
interpolations, and ligand padding is inert — padded atom slots come
back with exactly zero energy and exactly zero gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.ligand import pack_ligands, prepare_ligand
from repro.docking.receptor import make_receptor
from repro.docking.scoring import (
    interpolate_stacked,
    packed_atom_energies,
    packed_score_batch,
)
from repro.util.rng import rng_stream
from tests.docking.oracle import interpolate


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("NSP15", seed=3, box_size=12.0, spacing=1.0)


@pytest.fixture(scope="module")
def beads_pair():
    # deliberately ragged: different atom, torsion and pair counts so the
    # pack actually pads
    small = prepare_ligand(parse_smiles("CCO"), rng_stream(0, "t/pk/small"))
    big = prepare_ligand(
        parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), rng_stream(0, "t/pk/big")
    )
    return small, big


def _probe_coords(receptor, rng, n=40):
    half = receptor.box_size / 2.0
    inside = rng.uniform(-half + 0.3, half - 0.3, size=(n, 3))
    edges = np.array(
        [
            [-half, -half, -half],  # box corner
            [half, half, half],  # opposite corner (top cell edge)
            [0.0, 0.0, half],  # face centre
            [half + 1.7, 0.0, 0.0],  # outside the box entirely
            [-half - 2.4, half + 0.9, 0.0],
        ]
    )
    return np.concatenate([inside, edges])


def test_stacked_gather_matches_separate_interpolations(receptor):
    coords = _probe_coords(receptor, np.random.default_rng(11))
    stacked_v, stacked_g = interpolate_stacked(
        receptor.stacked_grids, receptor, coords
    )
    for gi, grid in enumerate(
        (receptor.phi, receptor.hydro, receptor.steric)
    ):
        v, g = interpolate(grid, receptor, coords)
        np.testing.assert_array_equal(stacked_v[gi], v)
        np.testing.assert_array_equal(stacked_g[gi], g)


def test_stacked_gather_score_only_path(receptor):
    coords = _probe_coords(receptor, np.random.default_rng(12))
    v_only, g = interpolate_stacked(
        receptor.stacked_grids, receptor, coords, want_grad=False
    )
    v_full, _ = interpolate_stacked(receptor.stacked_grids, receptor, coords)
    assert g is None
    np.testing.assert_array_equal(v_only, v_full)


def test_stacked_gather_batched_shapes(receptor):
    coords = np.random.default_rng(13).uniform(-4, 4, size=(5, 7, 3))
    v, g = interpolate_stacked(receptor.stacked_grids, receptor, coords)
    assert v.shape == (3, 5, 7)
    assert g.shape == (3, 5, 7, 3)


def test_padded_atoms_zero_energy_and_gradient(receptor, beads_pair):
    small, big = beads_pair
    assert small.n_atoms < big.n_atoms  # the pack genuinely pads
    pack = pack_ligands([small, big])
    plan = pack.plan(2)
    rng = np.random.default_rng(7)
    coords = rng.uniform(-4, 4, size=(4, pack.max_atoms, 3))
    totals, components, atom_grad = packed_atom_energies(
        receptor, pack, plan, coords
    )
    assert totals.shape == (4,)
    assert np.all(np.isfinite(totals))
    # the small ligand's padded slots: exactly zero gradient
    pad = atom_grad[:2, small.n_atoms :]
    np.testing.assert_array_equal(pad, np.zeros_like(pad))
    # and garbage in the padded lanes cannot leak into any energy: the
    # reductions never read them
    coords2 = coords.copy()
    coords2[:2, small.n_atoms :] = 1e6
    totals2, components2, atom_grad2 = packed_atom_energies(
        receptor, pack, plan, coords2
    )
    np.testing.assert_array_equal(totals2, totals)
    np.testing.assert_array_equal(components2, components)
    np.testing.assert_array_equal(
        atom_grad2[:, : small.n_atoms], atom_grad[:, : small.n_atoms]
    )


def test_pack_of_two_matches_two_singles(receptor, beads_pair):
    small, big = beads_pair
    pack = pack_ligands([small, big])
    plan = pack.plan(3)
    rng = np.random.default_rng(19)
    conf = np.zeros(6, dtype=int)
    trans = rng.uniform(-3, 3, size=(6, 3))
    quat = rng.normal(size=(6, 4))
    tors = rng.uniform(-0.5, 0.5, size=(6, pack.max_torsions))
    fused = packed_score_batch(
        receptor, pack, plan, conf, trans, quat, tors
    )
    for li, beads in enumerate((small, big)):
        sub = slice(li * 3, (li + 1) * 3)
        single = pack_ligands([beads])
        solo = packed_score_batch(
            receptor,
            single,
            single.plan(3),
            conf[sub],
            trans[sub],
            quat[sub],
            tors[sub, : beads.n_torsions] if beads.n_torsions else None,
        )
        np.testing.assert_array_equal(fused[sub], solo)
