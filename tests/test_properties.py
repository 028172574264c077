"""Cross-module property-based tests (hypothesis).

Invariants that should hold for *any* input in the domain, not just the
fixtures the unit tests pin down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.fingerprint import morgan_fingerprint, tanimoto
from repro.chem.library import _random_molecule
from repro.util.rng import rng_stream


# ---------------------------------------------------------------- chemistry


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
)
def test_jaccard_distance_triangle_inequality(sa, sb, sc):
    """1 − Tanimoto is a metric: d(a,c) ≤ d(a,b) + d(b,c)."""
    fa = morgan_fingerprint(_random_molecule(rng_stream(sa, "prop/fa")))
    fb = morgan_fingerprint(_random_molecule(rng_stream(sb, "prop/fb")))
    fc = morgan_fingerprint(_random_molecule(rng_stream(sc, "prop/fc")))
    dab = 1 - tanimoto(fa, fb)
    dbc = 1 - tanimoto(fb, fc)
    dac = 1 - tanimoto(fa, fc)
    assert dac <= dab + dbc + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_depiction_bounded_for_any_molecule(seed):
    from repro.chem.depict import depict

    mol = _random_molecule(rng_stream(seed, "prop/depict"))
    img = depict(mol, size=20)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert np.isfinite(img).all()


# ------------------------------------------------------------------ docking


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_docking_score_finite_for_any_ligand(seed):
    from repro.docking.ligand import Pose, prepare_ligand
    from tests.docking.oracle import random_quaternion
    from repro.docking.receptor import make_receptor
    from repro.docking.scoring import score_pose

    receptor = make_receptor("3CLPro", seed=3)
    mol = _random_molecule(rng_stream(seed, "prop/dock"))
    rng = rng_stream(seed, "prop/dockpose")
    beads = prepare_ligand(mol, rng, n_conformers=2)
    pose = Pose(0, rng.uniform(-10, 10, size=3), random_quaternion(rng))
    breakdown = score_pose(receptor, beads, pose)
    assert np.isfinite(breakdown.total)


# ----------------------------------------------------------------------- MD


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=25), st.integers(min_value=0, max_value=999))
def test_forces_are_negative_gradient_property(n, seed):
    from repro.md.forcefield import ForceField
    from repro.md.system import Topology

    rng = rng_stream(seed, "prop/md")
    bonds = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    topo = Topology(
        masses=np.full(n, 20.0),
        charges=rng.normal(scale=0.2, size=n),
        hydro=rng.uniform(-0.5, 0.5, size=n),
        radii=rng.uniform(1.5, 2.5, size=n),
        bonds=bonds,
        bond_lengths=np.full(n - 1, 3.0),
        bond_k=np.full(n - 1, 5.0),
        protein_atoms=np.arange(n - 1),
        ligand_atoms=np.array([n - 1]),
    )
    ff = ForceField()
    pos = rng.normal(scale=5.0, size=(n, 3))
    f, _ = ff.compute(topo, pos)
    idx = int(rng.integers(n))
    ax = int(rng.integers(3))
    eps = 1e-6
    p = pos.copy()
    p[idx, ax] += eps
    _, eu = ff.compute(topo, p)
    p[idx, ax] -= 2 * eps
    _, ed = ff.compute(topo, p)
    num = -(eu.total - ed.total) / (2 * eps)
    assert f[idx, ax] == pytest.approx(num, rel=1e-3, abs=1e-6)


# ------------------------------------------------------------------- raptor


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=5, max_size=200),
    st.integers(min_value=1, max_value=32),
)
def test_raptor_invariants(durations, workers):
    from repro.rct.raptor import RaptorConfig, simulate_raptor

    cfg = RaptorConfig(n_workers=workers, n_masters=1, bulk_size=4, dispatch_overhead=0.01)
    res = simulate_raptor(durations, cfg)
    # work conservation
    assert res.worker_busy.sum() == pytest.approx(sum(durations), rel=1e-9)
    # makespan bounded below by the ideal and by the longest item
    assert res.makespan >= max(durations) - 1e-9
    assert res.makespan >= sum(durations) / workers - 1e-9
    assert res.n_items == len(durations)


# --------------------------------------------------------------- enrichment


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_perfect_predictor_dominates_noisy_everywhere(seed):
    from repro.surrogate.res import res_surface

    rng = rng_stream(seed, "prop/res")
    y = rng.normal(size=150)
    noisy = y + rng.normal(scale=2.0, size=150)
    perfect = res_surface(y, y.copy(), n_budget=4, n_top=3).surface
    imperfect = res_surface(y, noisy, n_budget=4, n_top=3).surface
    assert (perfect >= imperfect - 1e-12).all()
