"""The discrete fundamental theorem: rebuild a curve from (ell, theta, phi).

Given the half-edge length and the alternating turning/twisting angles, the
curve is reproduced uniquely up to a rigid motion by stepping along the
tangent and rotating the frame: by theta_i about the binormal at vertices,
by phi_i about the tangent across edges.  Every frame is therefore a prefix
product of rotations, taken as one array scan over the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import CONGRUENCE_RMS, ORTHONORMAL
from .curve_core import RefinedCurve
from .errors import CountMismatch, InputError, InvalidAngles
from .frames import IntrinsicData


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
        if not (np.all(np.isfinite(frame)) and np.max(np.abs(frame.T @ frame - np.eye(3))) <= ORTHONORMAL):
            raise InputError("initial frame is not orthonormal")
        if np.linalg.det(frame) < 0.0:
            raise InputError("initial frame is not right-handed")


def _prefix_products(m: np.ndarray) -> None:
    """Replace each row of an (n, 3, 3) stack by m[0] @ m[1] @ ... @ m[i].

    A work-efficient scan (Blelloch 1990): the products of row pairs
    (2j, 2j+1) are scanned recursively and become the odd rows, then each
    even row after the first takes the odd row before it on its left.
    About 2n products in all, so the time grows linearly.
    """
    if len(m) > 1:
        odd = m[0::2][: len(m) // 2] @ m[1::2]
        _prefix_products(odd)
        m[1::2] = odd
        m[2::2] = odd[: (len(m) - 1) // 2] @ m[2::2]


def reconstruct(data: IntrinsicData, pose: InitialPose | None = None, n_steps: int | None = None) -> RefinedCurve:
    """Rebuild the refined curve with n_steps edges from the frame equations.

    theta_i acts between edges i and i+1, so angle arrays must cover indices
    0 .. n_steps-2.  Turns happen at transition indices with the data's
    turn_parity (0 in the standard indexing, which puts original vertices at
    odd point indices of the result).  The record validated itself when it was made.
    """
    theta, phi = data.theta, data.phi
    if n_steps is None:
        n_steps = len(theta) + 1
    if n_steps < 1 or len(theta) < n_steps - 1:
        raise InvalidAngles(f"need at least {n_steps - 1} angles for {n_steps} steps")

    pose = pose or InitialPose()
    # row 0 is the initial frame [t n b], row i the step rotation
    # Rz(theta) Rx(phi) after edge i - 1 (one of the two angles is zero)
    th, ph = theta[: n_steps - 1], phi[: n_steps - 1]
    ct, st, cp, sp = np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)
    rot = np.empty((n_steps, 3, 3))
    rot[0] = np.column_stack([pose.tangent, pose.normal, pose.binormal])
    np.stack(
        [ct, -st * cp, st * sp, st, ct * cp, -ct * sp, np.zeros_like(th), sp, cp],
        axis=1,
        out=rot[1:].reshape(-1, 9),
    )
    _prefix_products(rot)
    # a huge ell overflows the sum to inf or nan; RefinedCurve rejects those points
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.cumsum(np.vstack([pose.origin, data.ell * rot[:, :, 0]]), axis=0)
    return RefinedCurve(pts, data.ell, closed=False, vertex_parity=(data.turn_parity + 1) % 2)


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
    dev = a @ rot.T + trans - b
    with np.errstate(over="ignore"):
        mean_sq = float(np.mean(np.sum(dev**2, axis=1)))
    if mean_sq < np.finfo(float).tiny or mean_sq == math.inf:
        # the squares under- or overflowed: the rms of dev / max|dev|, scaled back
        top = float(np.max(np.abs(dev)))
        return rot, trans, top * math.sqrt(np.mean(np.sum((dev / top) ** 2, axis=1))) if top else 0.0
    return rot, trans, math.sqrt(mean_sq)


def congruent(a, b, tol: float = CONGRUENCE_RMS):
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
