"""Edge/vertex Frenet frames, turning and twisting angles, and the
error-free discrete Frenet equations.

The refined curve alternates vertices and midpoints, so its frame field
alternates too: the tangent is shared by the two half-edges of an original
edge (it changes only at vertices, by the turning angle theta), while the
binormal is shared by the two half-edges around a vertex (it changes only
across original edges, by the twisting angle phi).  Exactly one of theta_i,
phi_i is nonzero at each transition index, and with that structure the
discrete Frenet equations hold with no error term at all -- the residual
computed here is zero to machine precision for every frame field built from
a curve.

Planar (2D) input gets the plane normal as a global binormal, which makes
theta, and hence kappa, signed.  In 3D the binormal comes from cross
products of consecutive tangents, so theta >= 0 while phi stays signed.

The residual has one implementation, evaluated for a stack of conventions
with one set of frame differences: frenet_residual is its one-convention
case, and convention_table gives every convention's residual and
curvature/torsion in one pass over a validated angle record.  Curvatures
come only from ngon_circle.kappa_from_angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PARALLEL_CROSS
from .curve_core import DiscreteCurve, RefinedCurve, diff
from .errors import (
    AngleOutOfRange,
    DegenerateVertexFrame,
    InputError,
    InvalidAngles,
    UndefinedBinormal,
)
from .ngon_circle import Convention, kappa_from_angle

_EZ = np.array([0.0, 0.0, 1.0])


def _embed3(points: np.ndarray) -> np.ndarray:
    if points.shape[1] == 3:
        return points
    out = np.zeros((len(points), 3))
    out[:, :2] = points
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of two (n, 3) arrays, bit for bit: its products and differences,
    component by component, without its per-call set-up."""
    (a0, a1, a2), (b0, b1, b2), out = a.T, b.T, np.empty(a.shape)
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of 3-vectors, bit for bit: the squares summed in its order."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


@dataclass(frozen=True)
class FrameField:
    """Per-edge frames (Te, Ne, Be) and per-transition vertex frames.

    Edge arrays have one row per edge; vertex arrays (filled in by
    :func:`vertex_frames`) have one row per transition between consecutive
    edges.  ``turn_mask[i]`` is True where transition i crosses a vertex
    (a turn); the complementary transitions cross midpoints (twists).
    """

    Te: np.ndarray
    Ne: np.ndarray
    Be: np.ndarray
    ell: float
    closed: bool
    turn_mask: np.ndarray
    planar: bool
    Tv: np.ndarray | None = None
    Nv: np.ndarray | None = None
    Bv: np.ndarray | None = None

    @property
    def n_edges(self) -> int:
        return len(self.Te)

    @property
    def n_transitions(self) -> int:
        return len(self.turn_mask)

    def succ(self, arr: np.ndarray) -> np.ndarray:
        """arr, indexed by edge along its next-to-last axis, shifted to the next edge across each transition."""
        if self.closed:
            return np.concatenate((arr[..., 1:, :], arr[..., :1, :]), axis=-2)
        return arr[..., 1:, :]

    def pred_slice(self, arr: np.ndarray) -> np.ndarray:
        """arr, indexed by edge along its next-to-last axis, restricted to the transition index set."""
        if self.closed:
            return arr
        return arr[..., :-1, :]


def edge_frames(rc: RefinedCurve) -> FrameField:
    """Edge frames of a refined curve.

    Binormals at straight vertices (parallel consecutive tangents) are
    parallel-transported from the nearest defined vertex; a 3D curve with no
    turning anywhere has no binormal and raises UndefinedBinormal.
    """
    edges = diff(_embed3(rc.points), rc.closed)
    lengths = _norms(edges)
    if np.min(lengths) <= 0.0:
        raise InputError("zero-length edge")
    Te = edges / lengths[:, None]
    m = len(Te)
    n_trans = m if rc.closed else m - 1
    # transition i joins edges i and i+1 at point i+1; it is a turn iff that
    # point is an original vertex
    turn_mask = np.arange(n_trans) % 2 != rc.vertex_parity
    # the two half-edges of an original edge are collinear (midpoint
    # invariant); share one tangent so twist transitions carry no spurious
    # turning from rounding in the points.  Twist transitions alternate, so
    # the pairs (i, i+1) are disjoint.
    tw = np.arange(rc.vertex_parity, n_trans, 2)
    tw_next = (tw + 1) % m
    t = Te[tw] + Te[tw_next]
    Te[tw] = Te[tw_next] = t / _norms(t)[:, None]

    planar = rc.dim == 2
    if planar:
        Be = np.tile(_EZ, (m, 1))
    else:
        tr = np.arange(1 - rc.vertex_parity, n_trans, 2)
        c = _cross(Te[tr], Te[(tr + 1) % m])
        nc = _norms(c)
        ok = nc >= PARALLEL_CROSS
        tr, b = tr[ok], c[ok] / nc[ok, None]
        if not len(tr):
            raise UndefinedBinormal("curve is straight everywhere; no binormal in 3D")
        # the binormal is shared by the two half-edges around the vertex
        Be = np.empty((m, 3))
        defined = np.zeros(m, dtype=bool)
        Be[tr] = Be[(tr + 1) % m] = b
        defined[tr] = defined[(tr + 1) % m] = True
        # parallel-transport across straight vertices: each undefined edge
        # takes the last defined binormal before it, a leading run the first
        src = np.maximum.accumulate(np.where(defined, np.arange(m), -1))
        src[src < 0] = tr[0]
        Be = Be[src]
    Ne = _cross(Be, Te)
    return FrameField(
        Te=Te, Ne=Ne, Be=Be, ell=rc.ell, closed=rc.closed, turn_mask=turn_mask, planar=planar
    )


def vertex_frames(ff: FrameField) -> FrameField:
    """Fill in vertex frames: normalized sums of consecutive edge frames."""
    edge = np.array([ff.Te, ff.Ne, ff.Be])
    sums = ff.pred_slice(edge) + ff.succ(edge)
    norms = _norms(sums)
    low = norms.min(axis=1) < PARALLEL_CROSS
    if low.any():  # name the first of Tv, Nv and Bv to degenerate, where its sum is shortest
        i = int(np.argmin(norms[np.argmax(low)]))
        raise DegenerateVertexFrame(f"antiparallel frame vectors at transition {i}")
    Tv, Nv, Bv = sums / norms[..., None]
    return replace(ff, Tv=Tv, Nv=Nv, Bv=Bv)


def _signed_angles(a: np.ndarray, b: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Row-wise angle from a[i] to b[i], signed by the sense of rotation about axis[i]."""
    cross = _cross(a, b)
    return np.arctan2(np.einsum("ij,ij->i", axis, cross), np.einsum("ij,ij->i", a, b))


def turn_twist_angles(ff: FrameField):
    """(theta, phi) per transition; theta vanishes at twists, phi at turns.

    A turn measures the tangent rotation about the binormal, a twist the
    binormal rotation about the tangent.
    """
    turn = ff.turn_mask
    Te, Be = ff.pred_slice(ff.Te), ff.pred_slice(ff.Be)
    Te_next, Be_next = ff.succ(ff.Te), ff.succ(ff.Be)
    sel = turn[:, None]
    angle = _signed_angles(
        np.where(sel, Te, Be), np.where(sel, Te_next, Be_next), np.where(sel, Be, Te)
    )
    return np.where(turn, angle, 0.0), np.where(turn, 0.0, angle)


@dataclass(frozen=True)
class IntrinsicData:
    """The curve's intrinsic record: (ell, theta, phi) plus kappa, tau derived under a
    convention; convention, kappa and tau are None in a bare angle record.

    ``turn_parity`` is the parity of transition indices where theta may be
    nonzero (0 in the standard indexing where vertices sit at odd point
    indices).
    """

    ell: float
    theta: np.ndarray
    phi: np.ndarray
    convention: Convention | None
    kappa: np.ndarray | None
    tau: np.ndarray | None
    turn_parity: int = 0

    def __post_init__(self):
        for name in ("theta", "phi", "kappa", "tau"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))


def validate_angle_record(theta: np.ndarray, phi: np.ndarray, turn_parity: int) -> None:
    """Check an angle record: 1-D, equal lengths, alternating zeros, |angle| <= pi/2.

    Turns (theta) may be nonzero only at transition indices of parity
    ``turn_parity``, twists (phi) only at the others.  Raises InvalidAngles
    for a malformed record and AngleOutOfRange for an angle outside
    [-pi/2, pi/2] (NaN included).
    """
    if turn_parity not in (0, 1):
        raise InvalidAngles(f"turn_parity must be 0 or 1, got {turn_parity}")
    if theta.ndim != 1 or phi.ndim != 1:
        raise InvalidAngles(f"theta and phi must be 1-D, got shapes {theta.shape} and {phi.shape}")
    if theta.shape != phi.shape:
        raise InvalidAngles("theta and phi must have the same length")
    if theta[1 - turn_parity :: 2].any() or phi[turn_parity::2].any():
        raise InvalidAngles("alternating-zero angle pattern violated")
    limit = math.pi / 2 + 1e-12
    if not (np.all(np.abs(theta) <= limit) and np.all(np.abs(phi) <= limit)):
        raise AngleOutOfRange("angles must lie in [-pi/2, pi/2]")


def _signed_kernel(signs: np.ndarray, ell, conventions) -> np.ndarray:
    """kappa_from_angle of |signs| at ell per convention, stacked and signed as signs (+0.0 for a -0.0 angle)."""
    angles = np.abs(signs)
    return np.copysign(np.stack([kappa_from_angle(angles, ell, conv) for conv in conventions]), signs) + 0.0


def curvature_torsion(
    theta: np.ndarray,
    phi: np.ndarray,
    ell: float,
    convention: Convention | None,
    turn_parity: int = 0,
) -> IntrinsicData:
    """Convert the angle record to curvature/torsion under a convention.

    Requires the alternating-zero pattern; signed angles give signed kappa/tau
    through |angle| -> formula -> restore sign.  With convention None, the record is returned bare.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    validate_angle_record(theta, phi, turn_parity)
    kappa, tau = _signed_kernel(np.stack([theta, phi]), ell, [convention])[0] if convention else (None, None)
    return IntrinsicData(ell, theta, phi, convention, kappa, tau, turn_parity)


def _residuals(ff: FrameField, data: IntrinsicData, scaled: np.ndarray) -> list[float]:
    """frenet_residual of data's angles for each (ell kappa; ell tau) in the stack scaled, NaN if an equation is."""
    if ff.Tv is None:
        ff = vertex_frames(ff)
    if len(data.theta) != ff.n_transitions:
        raise InputError(f"angle arrays have length {len(data.theta)}, expected {ff.n_transitions}")
    edge = np.array([ff.Te, ff.Ne, ff.Be])
    DTe, DNe, DBe = ff.succ(edge) - ff.pred_slice(edge)
    lk, lt = scaled[:, 0], scaled[:, 1]
    # nu * 2 sin(|angle|/2) = |ell kappa| (or |ell tau|) from the nonzero angle of each
    # transition, 1 where that chord is 0 (its limit, also where a subnormal angle's chord
    # underflows); 2 sin(|angle|/2) is the inscribed kernel at ell = 1
    turning = data.theta != 0.0
    angle = np.abs(np.where(turning, data.theta, data.phi))
    chord = kappa_from_angle(angle, 1.0, Convention.INSCRIBED)
    nu = np.divide(np.abs(np.where(turning, lk, lt)), chord, out=np.ones(lk.shape), where=chord != 0.0)
    nu, lk, lt = nu[..., None], lk[..., None], lt[..., None]
    r1 = _norms(nu * DTe - lk * ff.Nv)
    r2 = _norms(nu * DNe + lk * ff.Tv - lt * ff.Bv)
    r3 = _norms(nu * DBe + lt * ff.Nv)
    return np.max([r.max(axis=-1, initial=0.0) for r in (r1, r2, r3)], axis=0).tolist()


def frenet_residual(ff: FrameField, data: IntrinsicData) -> float:
    """Max residual of the scaled discrete Frenet equations.

    Checks, per transition i,
        nu_i (D Te)_i = ell kappa_i Nv_i
        nu_i (D Ne)_i = -ell kappa_i Tv_i + ell tau_i Bv_i
        nu_i (D Be)_i = -ell tau_i Nv_i
    where nu_i rescales the convention's kappa/tau back to the inscribed
    chord form (nu = 1 for the inscribed convention).  For frames built by
    edge_frames/vertex_frames the result is at machine-precision level.
    """
    return _residuals(ff, data, data.ell * np.stack([data.kappa, data.tau])[None])[0]


def convention_table(ff: FrameField, data: IntrinsicData, conventions) -> tuple[list[float], np.ndarray]:
    """Per convention, frenet_residual at data.ell and, stacked to shape (conventions, 2, n), curvature_torsion's
    (kappa; tau) at the edge 2 * data.ell, from data as analyze validated it; one kernel call serves both lengths."""
    ells = np.array([data.ell, 2.0 * data.ell])[:, None, None]
    table = _signed_kernel(np.stack([data.theta, data.phi]), ells, conventions)  # (convention, length, 2, n)
    return _residuals(ff, data, data.ell * table[:, 0]), table[:, 1]


def analyze(rc: RefinedCurve, convention: Convention | None = Convention.INSCRIBED):
    """Full pipeline: frames, angles, intrinsic data for a refined curve.

    Returns (frame_field_with_vertex_frames, intrinsic_data); with convention None, the bare angle record.
    """
    ff = vertex_frames(edge_frames(rc))
    theta, phi = turn_twist_angles(ff)
    turn_parity = (rc.vertex_parity + 1) % 2
    data = curvature_torsion(theta, phi, rc.ell, convention, turn_parity=turn_parity)
    return ff, data


def polyline_turning_angles(dc: DiscreteCurve) -> np.ndarray:
    """Turning angle at each polyline vertex of an unrefined curve.

    Signed for planar curves (positive = left turn), unsigned in 3D.
    One value per interior vertex (open) or per vertex (closed).
    """
    e = diff(_embed3(dc.points), dc.closed)
    t = e / np.linalg.norm(e, axis=1)[:, None]
    t_next = np.roll(t, -1, axis=0) if dc.closed else t[1:]
    t_here = t if dc.closed else t[:-1]
    if dc.dim == 2:
        return _signed_angles(t_here, t_next, np.broadcast_to(_EZ, t_here.shape))
    cross = _norms(_cross(t_here, t_next))
    return np.arctan2(cross, np.einsum("ij,ij->i", t_here, t_next))
