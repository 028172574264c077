"""Tests for the grid scoring function and its gradients."""

import numpy as np
import pytest

from repro.chem.smiles import parse_smiles
from repro.docking.ligand import Pose, prepare_ligand
from repro.docking.receptor import make_receptor
from repro.docking.scoring import (
    apply_rigid_step,
    apply_rigid_steps_batch,
    score_and_gradient,
    score_and_gradient_batch,
    score_pose,
    score_poses_batch,
)
from repro.util.rng import rng_stream
from tests.docking.oracle import interpolate, random_quaternion


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7, box_size=12.0, spacing=1.0)


@pytest.fixture(scope="module")
def beads():
    return prepare_ligand(parse_smiles("c1ccccc1C(=O)O"), rng_stream(0, "t/beads"))


def _pose(rng_key="t/pose"):
    rng = rng_stream(3, rng_key)
    return Pose(0, rng.uniform(-2, 2, size=3), random_quaternion(rng))


def test_interpolation_exact_at_grid_points(receptor):
    axis = receptor.origin + receptor.spacing * np.arange(receptor.n_grid)
    pts = np.array([[axis[3], axis[4], axis[5]], [axis[0], axis[0], axis[0]]])
    vals, _ = interpolate(receptor.phi, receptor, pts)
    assert vals[0] == pytest.approx(receptor.phi[3, 4, 5])
    assert vals[1] == pytest.approx(receptor.phi[0, 0, 0])


def test_interpolation_gradient_matches_finite_difference(receptor):
    rng = rng_stream(1, "t/interp")
    pts = rng.uniform(-4, 4, size=(10, 3))
    _, grad = interpolate(receptor.phi, receptor, pts)
    eps = 1e-5
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = eps
        up, _ = interpolate(receptor.phi, receptor, pts + shift)
        dn, _ = interpolate(receptor.phi, receptor, pts - shift)
        fd = (up - dn) / (2 * eps)
        np.testing.assert_allclose(grad[:, axis], fd, rtol=1e-4, atol=1e-6)


def test_score_breakdown_total(receptor, beads):
    b = score_pose(receptor, beads, _pose())
    assert b.total == pytest.approx(
        b.electrostatic + b.hydrophobic + b.steric + b.wall
    )


def test_wall_penalty_outside_box(receptor, beads):
    inside = Pose(0, np.zeros(3), np.array([0.0, 0, 0, 1.0]))
    outside = Pose(0, np.array([20.0, 0, 0]), np.array([0.0, 0, 0, 1.0]))
    assert score_pose(receptor, beads, inside).wall == 0.0
    assert score_pose(receptor, beads, outside).wall > 0.0
    assert score_pose(receptor, beads, outside).total > score_pose(
        receptor, beads, inside
    ).total


def test_translation_gradient_matches_finite_difference(receptor, beads):
    pose = _pose()
    _, d_trans, _, _ = score_and_gradient(receptor, beads, pose)
    eps = 1e-5
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = eps
        up = score_pose(receptor, beads, apply_rigid_step(pose, shift, np.zeros(3))).total
        dn = score_pose(receptor, beads, apply_rigid_step(pose, -shift, np.zeros(3))).total
        assert d_trans[axis] == pytest.approx((up - dn) / (2 * eps), rel=1e-3, abs=1e-5)


def test_rotation_gradient_matches_finite_difference(receptor, beads):
    pose = _pose("t/pose-rot")
    _, _, d_rot, _ = score_and_gradient(receptor, beads, pose)
    eps = 1e-5
    for axis in range(3):
        dw = np.zeros(3)
        dw[axis] = eps
        up = score_pose(receptor, beads, apply_rigid_step(pose, np.zeros(3), dw)).total
        dn = score_pose(receptor, beads, apply_rigid_step(pose, np.zeros(3), -dw)).total
        assert d_rot[axis] == pytest.approx((up - dn) / (2 * eps), rel=1e-3, abs=1e-5)


def test_batch_scores_match_single(receptor, beads):
    rng = rng_stream(2, "t/batch")
    k = 6
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-3, 3, size=(k, 3))
    quats = np.stack([random_quaternion(rng) for _ in range(k)])
    batch = score_poses_batch(receptor, beads, conf, trans, quats)
    for i in range(k):
        single = score_pose(receptor, beads, Pose(int(conf[i]), trans[i], quats[i]))
        assert batch[i] == single.total


def test_batch_gradients_match_single(receptor, beads):
    rng = rng_stream(4, "t/batchg")
    k = 4
    conf = rng.integers(beads.n_conformers, size=k)
    trans = rng.uniform(-3, 3, size=(k, 3))
    quats = np.stack([random_quaternion(rng) for _ in range(k)])
    totals, dts, drs, _ = score_and_gradient_batch(receptor, beads, conf, trans, quats)
    for i in range(k):
        s, dt, dr, _ = score_and_gradient(
            receptor, beads, Pose(int(conf[i]), trans[i], quats[i])
        )
        assert totals[i] == pytest.approx(s)
        np.testing.assert_allclose(dts[i], dt, rtol=1e-10)
        np.testing.assert_allclose(drs[i], dr, rtol=1e-10)


def test_rigid_step_zero_is_identity():
    pose = _pose()
    out = apply_rigid_step(pose, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(out.translation, pose.translation)
    np.testing.assert_array_equal(out.quaternion, pose.quaternion)


def test_rigid_step_carries_torsions_on_a_flexible_ligand(receptor):
    """A rigid step moves position and orientation only: the torsion genes
    ride along, so a zero step leaves the score where it was."""
    flexible = prepare_ligand(
        parse_smiles("CCOC(=O)CCc1ccccc1NCC"), rng_stream(7, "t/flex-step")
    )
    assert flexible.n_torsions >= 2
    rng = rng_stream(8, "t/flex-pose")
    pose = Pose(
        0,
        rng.uniform(-2, 2, size=3),
        random_quaternion(rng),
        rng.uniform(-np.pi, np.pi, size=flexible.n_torsions),
    )
    before = score_pose(receptor, flexible, pose).total
    still = apply_rigid_step(pose, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(still.torsion_angles, pose.torsion_angles)
    assert score_pose(receptor, flexible, still).total == before
    moved = apply_rigid_step(pose, np.ones(3), np.array([0.3, -0.2, 0.5]))
    np.testing.assert_array_equal(moved.torsion_angles, pose.torsion_angles)
    assert score_pose(receptor, flexible, moved).total != before


def test_rigid_step_preserves_unit_quaternion():
    pose = _pose()
    out = apply_rigid_step(pose, np.ones(3), np.array([0.3, -0.2, 0.5]))
    assert np.linalg.norm(out.quaternion) == pytest.approx(1.0)


def test_rigid_steps_batch_mixed_zero_and_nonzero():
    rng = rng_stream(5, "t/steps")
    trans = rng.normal(size=(3, 3))
    quats = np.stack([random_quaternion(rng) for _ in range(3)])
    d_rot = np.zeros((3, 3))
    d_rot[1] = [0.1, 0.2, -0.1]
    new_t, new_q = apply_rigid_steps_batch(trans, quats, np.zeros((3, 3)), d_rot)
    np.testing.assert_array_equal(new_q[0], quats[0])
    np.testing.assert_array_equal(new_q[2], quats[2])
    assert not np.allclose(new_q[1], quats[1])


def test_charged_ligand_prefers_complementary_region(receptor):
    """A cation should score best where the potential is most negative."""
    cation = prepare_ligand(parse_smiles("C[N+](C)(C)C"), rng_stream(6, "t/cat"))
    idx_min = np.unravel_index(np.argmin(receptor.phi), receptor.phi.shape)
    idx_max = np.unravel_index(np.argmax(receptor.phi), receptor.phi.shape)
    axis = receptor.origin + receptor.spacing * np.arange(receptor.n_grid)
    at_min = Pose(0, np.array([axis[i] for i in idx_min]), np.array([0.0, 0, 0, 1.0]))
    at_max = Pose(0, np.array([axis[i] for i in idx_max]), np.array([0.0, 0, 0, 1.0]))
    e_min = score_pose(receptor, cation, at_min).electrostatic
    e_max = score_pose(receptor, cation, at_max).electrostatic
    assert e_min < e_max
