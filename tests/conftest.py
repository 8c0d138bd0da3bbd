import math

import numpy as np
import pytest

from frenetkit import (
    Convention,
    InitialPose,
    curvature_torsion,
    reconstruct,
)
from frenetkit.spline2d import _constraint_grad, elastica_constraints


# turning angles of a zig-zag polyline (either sign, up to 0.6 rad) for which
# span 3 of the centered elastica spline converges from no ramp or winding
# start: its best one stalls at 7.8e-5; the clothoid start converges
ZIGZAG_ANGLES = (-0.3, 0.2, 0.2, -0.2, 0.6, 0.4)

# turning angles of a hairpin polyline whose span 3 converges from no ramp or
# winding start, nor from random bumps on them; the clothoid start converges
HAIRPIN_ANGLES = (-0.28, -2.89, -2.43, 1.71, -1.31)

# turning angles of a polyline whose span 1 converges from no start: its
# clothoid start converges only when continued
CONTINUED_ANGLES = (1.13, -0.94, -0.96)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng):
    rot = random_rotation(rng)
    return InitialPose(
        origin=rng.normal(scale=3.0, size=3),
        tangent=rot[:, 0],
        normal=rot[:, 1],
        binormal=rot[:, 2],
    )


def make_random_intrinsic(rng, n_points, ell=None, planar=False, min_angle=0.05):
    """Alternating angle record for a refined curve with n_points points.

    Turning at even transition indices, |theta| in [min_angle, pi/2];
    twisting in [-pi/2, pi/2] for 3D curves.  Planar curves get signed theta
    and no twist.
    """
    n_tr = n_points - 2
    theta = np.zeros(n_tr)
    phi = np.zeros(n_tr)
    turn = np.arange(n_tr) % 2 == 0
    vals = rng.uniform(min_angle, math.pi / 2.0, int(turn.sum()))
    if planar:
        vals = vals * rng.choice([-1.0, 1.0], size=len(vals))
    theta[turn] = vals
    if not planar:
        phi[~turn] = rng.uniform(-math.pi / 2.0, math.pi / 2.0, int((~turn).sum()))
        if n_tr % 2 == 0:
            # a twist after the last turn moves no points; keep it observable
            phi[-1] = 0.0
    if ell is None:
        ell = float(rng.uniform(0.2, 2.0))
    return curvature_torsion(theta, phi, ell, Convention.INSCRIBED)


def curve_from_intrinsic(rng, data, planar=False):
    """Open refined curve with the given angle record, in a random pose (3D)."""
    n_steps = len(data.theta) + 1
    if planar:
        rc = reconstruct(data, InitialPose(), n_steps=n_steps)
        return rc.__class__(rc.points[:, :2], rc.ell, closed=False, vertex_parity=1)
    return reconstruct(data, random_pose(rng), n_steps=n_steps)


def make_random_refined(rng, n_points, planar=False):
    """Random refined curve (via its own intrinsic record) plus that record."""
    data = make_random_intrinsic(rng, n_points, planar=planar)
    return curve_from_intrinsic(rng, data, planar=planar), data


def project_to_constraints(thetas, ds, target, max_iter=50):
    """Minimally adjust interior thetas so the displacement hits the target.

    Used to generate feasible perturbations when probing local minimality.
    Endpoint values are preserved.  Returns the adjusted array or None.
    """
    th = np.asarray(thetas, dtype=float).copy()
    for _ in range(max_iter):
        x, y = elastica_constraints(th, ds)
        g = np.array([x - target[0], y - target[1]])
        if np.max(np.abs(g)) < 1e-13:
            return th
        gx, gy = _constraint_grad(th, ds)
        jac = np.vstack([gx[1:-1], gy[1:-1]])  # 2 x interior
        # minimum-norm correction: dth = -J^T (J J^T)^{-1} g
        jjt = jac @ jac.T
        try:
            mu = np.linalg.solve(jjt, g)
        except np.linalg.LinAlgError:
            return None
        th[1:-1] -= jac.T @ mu
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
