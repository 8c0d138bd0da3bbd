import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetkit import (
    Convention,
    DiscreteCurve,
    InitialPose,
    analyze,
    congruent,
    curvature_torsion,
    edge_frames,
    refine,
    reconstruct,
    rigid_align,
)
from frenetkit.errors import AngleOutOfRange, CountMismatch, InputError, InvalidAngles

from conftest import make_random_intrinsic, make_random_refined, random_pose, random_rotation


def test_initial_pose_validation():
    with pytest.raises(InputError):
        InitialPose(tangent=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InputError):
        InitialPose(binormal=np.array([0.0, 0.0, -1.0]))  # left-handed
    # a non-finite frame, with no numpy warning on the way
    for bad in ([math.nan, 0.0, 0.0], [1.0, math.inf, 0.0]):
        with pytest.raises(InputError, match="not orthonormal"):
            InitialPose(tangent=np.array(bad))


def test_zero_angles_straight_line():
    data = curvature_torsion(np.zeros(6), np.zeros(6), 0.5, Convention.INSCRIBED)
    rc = reconstruct(data, InitialPose())
    np.testing.assert_allclose(rc.points[:, 0], 0.5 * np.arange(8), atol=1e-15)
    np.testing.assert_allclose(rc.points[:, 1:], 0.0, atol=1e-15)


def test_hexagon_closure():
    theta = np.zeros(11)
    theta[0::2] = math.pi / 3.0
    data = curvature_torsion(theta, np.zeros(11), 0.5, Convention.INSCRIBED)
    rc = reconstruct(data, InitialPose(), n_steps=12)
    assert np.linalg.norm(rc.points[12] - rc.points[0]) <= 1e-12


def test_helix_on_cylinder():
    # constant turn/twist: all points equidistant from the screw axis
    n_steps = 200
    n_tr = n_steps - 1
    theta = np.zeros(n_tr)
    phi = np.zeros(n_tr)
    theta[0::2] = 0.3
    phi[1::2] = 0.3
    data = curvature_torsion(theta, phi, 1.0, Convention.INSCRIBED)
    rc = reconstruct(data, InitialPose(), n_steps=n_steps)
    pts = rc.points
    # oracle: the double-step map is a fixed screw motion; its rotation axis
    # is the cylinder axis.  Estimate it with a least-squares rigid fit.
    a = pts[:-2]
    b = pts[2:]
    rot, trans, rms = rigid_align(a, b)
    assert rms <= 1e-9
    w, v = np.linalg.eig(rot)
    axis = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    axis /= np.linalg.norm(axis)
    # point on the axis: least-squares solution of (I - R) p = t_perp
    t_par = axis * float(np.dot(axis, trans))
    p0, *_ = np.linalg.lstsq(np.eye(3) - rot, trans - t_par, rcond=None)
    rel = pts - p0
    radial = np.linalg.norm(rel - np.outer(rel @ axis, axis), axis=1)
    # midpoints and turning vertices sit on two coaxial cylinders (compare
    # the refined hexagon: apothem vs circumradius), so test per parity
    for par in (0, 1):
        r = radial[par::2]
        assert np.max(r) - np.min(r) <= 1e-9


def test_helix_angle_round_trip():
    theta = np.zeros(39)
    phi = np.zeros(39)
    theta[0::2] = 0.2
    phi[1::2] = 0.2
    data = curvature_torsion(theta, phi, 1.0, Convention.CENTERED)
    rc = reconstruct(data, InitialPose())
    _, back = analyze(rc, Convention.CENTERED)
    np.testing.assert_allclose(back.theta, theta, atol=1e-12)
    np.testing.assert_allclose(back.phi, phi, atol=1e-12)
    # centered kappa/tau are the angles over the half-edge pair
    np.testing.assert_allclose(back.kappa[0::2], 0.2, atol=1e-12)
    np.testing.assert_allclose(back.tau[1::2], 0.2, atol=1e-12)


def test_round_trip_many_random_curves():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_pts = int(rng.integers(9, 80))
        rc, _ = make_random_refined(rng, n_pts)
        ff, data = analyze(rc)
        pose = InitialPose(
            origin=rc.points[0], tangent=ff.Te[0], normal=ff.Ne[0], binormal=ff.Be[0]
        )
        rebuilt = reconstruct(data, pose, n_steps=rc.n_edges())
        ok, rms = congruent(rc, rebuilt)
        assert ok, rms


def test_reconstruct_validation():
    # the record reconstruct reads checks its angles when it is made, range check included
    with pytest.raises(InvalidAngles):
        curvature_torsion(np.array([0.0, 0.3, 0.0, 0.0]), np.zeros(4), 1.0, Convention.INSCRIBED)
    with pytest.raises(AngleOutOfRange):
        curvature_torsion(np.array([2.0, 0.0, 0.0, 0.0]), np.zeros(4), 1.0, Convention.INSCRIBED)
    # and keeps them as read-only copies, so they stay as checked
    theta = np.zeros(4)
    data = curvature_torsion(theta, np.zeros(4), 1.0, Convention.INSCRIBED)
    theta[1] = 0.3
    with pytest.raises(ValueError):
        data.theta[1] = 0.3
    assert not data.theta.any()
    assert len(reconstruct(data).points) == 6


def test_long_curve_frame_stays_orthonormal():
    rng = np.random.default_rng(11)
    data = make_random_intrinsic(rng, 1200, ell=1.0)
    rc = reconstruct(data, InitialPose())
    ff = edge_frames(rc)
    frames = np.stack([ff.Te, ff.Ne, ff.Be], axis=2)
    worst = max(
        float(np.max(np.abs(f.T @ f - np.eye(3)))) for f in frames[:: 37]
    )
    assert worst <= 1e-12


def _step_loop(data, pose, n_steps):
    """Reference: walk the steps, turning then twisting the frame each time."""
    pts = np.empty((n_steps + 1, 3))
    pts[0] = pose.origin
    t, n, b = pose.tangent, pose.normal, pose.binormal
    for i in range(n_steps):
        pts[i + 1] = pts[i] + data.ell * t
        if i == n_steps - 1:
            break
        c, s = math.cos(data.theta[i]), math.sin(data.theta[i])
        t, n = c * t + s * n, -s * t + c * n
        c, s = math.cos(data.phi[i]), math.sin(data.phi[i])
        n, b = c * n + s * b, -s * n + c * b
    return pts


@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(3, 600),
    planar=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    unused=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_reconstruct_matches_step_loop(seed, n_points, planar, zero_share, unused):
    rng = np.random.default_rng(seed)
    data = make_random_intrinsic(rng, n_points, planar=planar)
    zero = rng.random(len(data.theta)) < zero_share
    theta, phi = np.where(zero, 0.0, data.theta), np.where(zero, 0.0, data.phi)
    data = curvature_torsion(theta, phi, data.ell, Convention.INSCRIBED)
    pose = InitialPose() if planar else random_pose(rng)
    # n_steps may leave trailing angles unused
    n_steps = max(1, len(theta) + 1 - unused)
    got = reconstruct(data, pose, n_steps=n_steps).points
    want = _step_loop(data, pose, n_steps)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * n_steps * data.ell
    if planar:
        # exactly +0.0, so the rebuilt curve reads as planar
        assert all(math.copysign(1.0, z) == 1.0 and z == 0.0 for z in got[:, 2])


def test_roundtrip_at_1e5_turns():
    rng = np.random.default_rng(5)
    data = make_random_intrinsic(rng, 200_001, ell=1.0)
    rc = reconstruct(data, random_pose(rng))
    ff, back = analyze(rc)
    assert np.max(np.abs(back.theta - data.theta)) <= 1e-9
    assert np.max(np.abs(back.phi - data.phi)) <= 1e-9
    pose = InitialPose(origin=rc.points[0], tangent=ff.Te[0], normal=ff.Ne[0], binormal=ff.Be[0])
    ok, rms = congruent(rc, reconstruct(back, pose, n_steps=rc.n_edges()))
    assert ok and rms <= 1e-9, rms


def test_rigid_align_exact_motion(rng):
    pts = rng.normal(size=(40, 3))
    rot = random_rotation(rng)
    moved = pts @ rot.T + np.array([0.3, -1.2, 2.0])
    r2, t2, rms = rigid_align(pts, moved)
    assert rms <= 1e-12
    np.testing.assert_allclose(r2, rot, atol=1e-12)


def test_congruent_rejects_reflection(rng):
    pts = rng.normal(size=(25, 3))
    mirrored = pts * np.array([1.0, 1.0, -1.0])
    ok, rms = congruent(pts, mirrored)
    assert not ok and rms > 1e-3


def test_congruent_dim_padding_and_mismatch():
    tri2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri3 = np.pad(tri2, ((0, 0), (0, 1)))
    ok, rms = congruent(tri2, tri3)
    assert ok and rms <= 1e-15
    with pytest.raises(CountMismatch):
        congruent(tri2, tri3[:2])


def test_congruence_37_degree_rotation(rng):
    rc, _ = make_random_refined(rng, 31)
    ang = math.radians(37.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    rot = np.eye(3) + math.sin(ang) * k + (1 - math.cos(ang)) * (k @ k)
    moved = rc.points @ rot.T + np.array([1.0, 2.0, 3.0])
    ok, rms = congruent(rc.points, moved)
    assert ok and rms <= 1e-12
