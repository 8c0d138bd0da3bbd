"""The discrete fundamental theorem: rebuild a curve from (ell, theta, phi).

Given the half-edge length and the alternating turning/twisting angles, the
curve is reproduced uniquely up to a rigid motion by stepping along the
tangent and rotating the frame: by theta_i about the binormal at vertices,
by phi_i about the tangent across edges.  Both updates are pure rotations,
so the frame stays orthonormal; a periodic nearest-orthogonal projection
absorbs the slow floating-point drift on very long curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve_core import RefinedCurve
from .errors import CountMismatch, InputError, InvalidAngles
from .frames import IntrinsicData, validate_angle_record

_REORTH_EVERY = 64


@dataclass(frozen=True)
class InitialPose:
    """Starting point and right-handed orthonormal frame for reconstruction."""

    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tangent: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    binormal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        for name in ("origin", "tangent", "normal", "binormal"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        frame = np.column_stack([self.tangent, self.normal, self.binormal])
        if np.max(np.abs(frame.T @ frame - np.eye(3))) > 1e-12:
            raise InputError("initial frame is not orthonormal")
        if np.linalg.det(frame) < 0.0:
            raise InputError("initial frame is not right-handed")


def _orthonormalize(frame: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(frame)
    q = u @ vt
    if np.linalg.det(q) < 0.0:
        u[:, -1] = -u[:, -1]
        q = u @ vt
    return q


def reconstruct(
    data: IntrinsicData,
    pose: InitialPose | None = None,
    n_steps: int | None = None,
) -> RefinedCurve:
    """Integrate the frame equations into a refined curve with n_steps edges.

    theta_i acts between edges i and i+1, so angle arrays must cover indices
    0 .. n_steps-2.  Turns happen at transition indices with the data's
    turn_parity (0 in the standard indexing, which puts original vertices at
    odd point indices of the result).
    """
    theta, phi = data.theta, data.phi
    validate_angle_record(theta, phi, data.turn_parity)
    if n_steps is None:
        n_steps = len(theta) + 1
    if n_steps < 1 or len(theta) < n_steps - 1:
        raise InvalidAngles(f"need at least {n_steps - 1} angles for {n_steps} steps")

    pose = pose or InitialPose()
    ell = data.ell
    pts = np.empty((n_steps + 1, 3))
    pts[0] = pose.origin
    t = pose.tangent.copy()
    n = pose.normal.copy()
    b = pose.binormal.copy()
    for i in range(n_steps):
        pts[i + 1] = pts[i] + ell * t
        if i >= n_steps - 1 or i >= len(theta):
            break
        th = theta[i]
        ph = phi[i]
        if th != 0.0:
            # turn about the binormal
            c, s = math.cos(th), math.sin(th)
            t, n = c * t + s * n, -s * t + c * n
        if ph != 0.0:
            # twist about the tangent
            c, s = math.cos(ph), math.sin(ph)
            n, b = c * n + s * b, -s * n + c * b
        if (i + 1) % _REORTH_EVERY == 0:
            frame = _orthonormalize(np.column_stack([t, n, b]))
            t, n, b = frame[:, 0], frame[:, 1], frame[:, 2]
    return RefinedCurve(pts, ell, closed=False, vertex_parity=(data.turn_parity + 1) % 2)


def rigid_align(a: np.ndarray, b: np.ndarray):
    """Least-squares proper rigid motion taking point set a onto b.

    Returns (rotation, translation, rms).  Reflections are excluded.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CountMismatch(f"point sets differ in shape: {a.shape} vs {b.shape}")
    dim = a.shape[1]
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    corr = np.eye(dim)
    corr[-1, -1] = d
    rot = vt.T @ corr @ u.T
    trans = cb - rot @ ca
    moved = a @ rot.T + trans
    rms = float(np.sqrt(np.mean(np.sum((moved - b) ** 2, axis=1))))
    return rot, trans, rms


def congruent(a, b, tol: float = 1e-9):
    """Whether two curves agree up to a proper rigid motion.

    Accepts RefinedCurve/DiscreteCurve or raw point arrays with equal point
    counts.  Returns (is_congruent, rms).
    """
    pa = a.points if hasattr(a, "points") else np.asarray(a, dtype=float)
    pb = b.points if hasattr(b, "points") else np.asarray(b, dtype=float)
    if pa.shape[0] != pb.shape[0]:
        raise CountMismatch(f"point counts differ: {pa.shape[0]} vs {pb.shape[0]}")
    if pa.shape[1] != pb.shape[1]:
        # compare a planar curve against its 3D embedding
        dim = max(pa.shape[1], pb.shape[1])
        pa = np.pad(pa, ((0, 0), (0, dim - pa.shape[1])))
        pb = np.pad(pb, ((0, 0), (0, dim - pb.shape[1])))
    _, _, rms = rigid_align(pa, pb)
    return rms <= tol, rms
