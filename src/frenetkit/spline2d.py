"""Geometric splinings of planar discrete curves.

Three G1 constructions, one per convention:

* inscribed     -- circular arcs tangent to the edges at their midpoints
* circumscribed -- first-order clothoids interpolating the vertices
* centered      -- elastica segments through offset points, preserving length

plus the discrete elastica turning-angle generator built on Jacobi sn.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .curve_core import DiscreteCurve, RefinedCurve, validate_refined
from .errors import (
    Infeasible,
    InputError,
    MultipleSolutionsWarning,
    NoConvergence,
    NonPlanarData,
)
from .frames import _EZ, _embed3, _signed_angles
from .ngon_circle import centered_vertex_offset
from .specfun import elliptic_K, jacobi_sn

_TWO_PI = 2.0 * math.pi


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % _TWO_PI - math.pi


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


# ---------------------------------------------------------------------------
# clothoid evaluation


_GLN, _GLW = np.polynomial.legendre.leggauss(24)
_MAX_PHASE = 1.5  # rad of phase per Gauss-Legendre panel: 24 nodes are exact to rounding
_BLOCK_NODES = 256 * len(_GLN)  # quadrature nodes per block: temporaries stay ~50 KB


@functools.lru_cache(maxsize=16)
def _panel_nodes(panels: int):
    """Nodes u of [0, 1] in equal panels, weights w, and w * (u^2 - u) for the moment."""
    u = ((np.arange(panels)[:, None] + 0.5 * (_GLN + 1.0)) / panels).ravel()
    w = np.tile(_GLW, panels) / (2.0 * panels)
    table = u, w, w * (u * u - u)
    for a in table:
        a.flags.writeable = False
    return table


def _phase_integrals(c0, c1, c2) -> np.ndarray:
    """(X, Y, G') of theta(u) = c0 + c1 u + c2 u^2 along a last axis of size 3:
    X = int_0^1 cos theta du, Y = int_0^1 sin theta du and
    G' = int_0^1 (u^2 - u) cos theta du, for c0, c1, c2 floats or arrays.

    Each entry gets as many panels as keep its phase change within _MAX_PHASE.
    """
    shape = np.broadcast(c0, c1, c2).shape
    c = np.empty((3,) + shape)
    c[0], c[1], c[2] = c0, c1, c2
    c = c.reshape(3, -1)
    span = np.abs(c[1]) + np.abs(c[2])
    if not np.isfinite(c[0] + span).all():
        raise ValueError("clothoid phase must be finite")
    panels = np.maximum(np.ceil(span / _MAX_PHASE), 1.0).astype(np.intp)
    out = np.empty((panels.size, 3))
    for p in np.flatnonzero(np.bincount(panels)):
        rows = np.flatnonzero(panels == p)
        u, w, wm = _panel_nodes(int(p))
        step = max(1, _BLOCK_NODES // u.size)
        for i in range(0, rows.size, step):
            r = rows[i : i + step]
            c0, c1, c2 = c[:, r, None]
            theta = c0 + u * (c1 + u * c2)
            cos = np.cos(theta)
            out[r, 0], out[r, 1], out[r, 2] = cos @ w, np.sin(theta) @ w, cos @ wm
    return out.reshape(shape + (3,))


def clothoid_xy(kappa0: float, a: float, theta0: float, s):
    """Displacement along a clothoid with curvature kappa0 + a*t, start angle theta0.

    ``s`` is a float or an array of arc lengths; the result has shape
    ``s.shape + (2,)``.  The phase integral is taken from 0 to the smallest
    sample, then over each gap between sorted samples, and summed in order.
    """
    s = np.asarray(s, dtype=float)
    order = np.argsort(s, axis=None, kind="stable")
    t = np.concatenate([[0.0], s.ravel()[order]])
    t, h = t[:-1], np.diff(t)
    gaps = _phase_integrals(theta0 + t * (kappa0 + 0.5 * a * t), (kappa0 + a * t) * h, 0.5 * a * h * h)
    xy = np.empty(s.shape + (2,))
    xy.reshape(-1, 2)[order] = np.cumsum(h[:, None] * gaps[:, :2], axis=0)
    return xy


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class LineSegment:
    start: np.ndarray
    direction: np.ndarray  # unit
    length: float

    def point_at(self, s: float) -> np.ndarray:
        return self.start + s * self.direction

    def angle_at(self, s: float) -> float:
        return math.atan2(self.direction[1], self.direction[0])

    def energy(self) -> float:
        return 0.0

    def polyline(self, tol: float) -> np.ndarray:
        return np.array([self.start, self.start + self.length * self.direction])


@dataclass(frozen=True)
class ArcSegment:
    center: np.ndarray
    radius: float
    start_angle: float  # position angle of the start point about the center
    sweep: float  # signed, radians
    length: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise InputError("arc radius must be positive")
        if self.length == 0.0:
            object.__setattr__(self, "length", abs(self.sweep) * self.radius)

    def point_at(self, s) -> np.ndarray:
        a = self.start_angle + self.sweep * np.asarray(s, dtype=float) / self.length
        return self.center + self.radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def angle_at(self, s: float) -> float:
        a = self.start_angle + self.sweep * s / self.length
        return a + math.copysign(math.pi / 2.0, self.sweep)

    def energy(self) -> float:
        return self.length / self.radius**2

    def polyline(self, tol: float) -> np.ndarray:
        n = max(2, int(math.ceil(abs(self.sweep) / max(2.0 * math.sqrt(2.0 * tol / self.radius), 1e-6))) + 1)
        return self.point_at(np.linspace(0.0, self.length, n))


def check_clothoid_size(kappa0: float, sharpness: float, length: float):
    """Raise InputError unless a clothoid's length and total turning (rad) are at
    most 1e3: its quadrature panels and polyline samples grow with both."""
    turning = abs(kappa0) * length + 0.5 * abs(sharpness) * length * length
    if not max(length, turning) <= 1e3:
        raise InputError(f"clothoid length {length} and turning {turning:.6g} rad must be at most 1e3")


@dataclass(frozen=True)
class ClothoidSegment:
    start: np.ndarray
    start_angle: float
    kappa0: float
    sharpness: float  # d kappa / d s
    length: float

    def point_at(self, s) -> np.ndarray:
        return self.start + clothoid_xy(self.kappa0, self.sharpness, self.start_angle, s)

    def angle_at(self, s: float) -> float:
        return self.start_angle + self.kappa0 * s + 0.5 * self.sharpness * s * s

    def energy(self) -> float:
        # int (kappa0 + a s)^2 ds
        k0, a, L = self.kappa0, self.sharpness, self.length
        return k0 * k0 * L + k0 * a * L * L + a * a * L**3 / 3.0

    def polyline(self, tol: float) -> np.ndarray:
        kmax = max(abs(self.kappa0), abs(self.kappa0 + self.sharpness * self.length), 1e-9)
        step = math.sqrt(8.0 * tol / kmax)
        n = max(2, int(math.ceil(self.length / step)) + 1)
        return self.point_at(np.linspace(0.0, self.length, n))


@dataclass(frozen=True)
class ElasticaSegment:
    """Elastica in turning-angle form: theta sampled on a uniform grid."""

    start: np.ndarray
    thetas: np.ndarray  # (n+1,) turning angle at grid nodes
    length: float
    c_const: float = 0.0  # first-integral constant of theta''' + theta'^3/2 + C theta' = 0

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        if len(self.thetas) < 17:
            raise InputError("elastica segment needs at least 16 grid cells")

    @property
    def ds(self) -> float:
        return self.length / (len(self.thetas) - 1)

    def node_points(self) -> np.ndarray:
        m, _, s, _, _ = _cell_arrays(self.thetas)
        steps = self.ds * np.cumsum(np.column_stack([np.cos(m) * s, np.sin(m) * s]), axis=0)
        return self.start + np.vstack([np.zeros(2), steps])

    def point_at(self, s: float) -> np.ndarray:
        ds = self.ds
        j = int(np.clip(math.floor(s / ds), 0, len(self.thetas) - 2))
        pts = self.node_points()
        frac = s - j * ds
        if frac <= 0.0:
            return pts[j]
        a = self.thetas[j]  # theta is linear over the cell: integrate exactly
        m, _, s, _, _ = _cell_arrays(np.array([a, a + (self.thetas[j + 1] - a) * frac / ds]))
        return pts[j] + frac * s * np.array([math.cos(m[0]), math.sin(m[0])])

    def angle_at(self, s: float) -> float:
        grid = np.linspace(0.0, self.length, len(self.thetas))
        return float(np.interp(s, grid, self.thetas))

    def energy(self) -> float:
        d = np.diff(self.thetas)
        return float(np.sum(d * d) / self.ds)

    def polyline(self, tol: float) -> np.ndarray:
        return self.node_points()


Segment = LineSegment | ArcSegment | ClothoidSegment | ElasticaSegment


@dataclass(frozen=True)
class Spline:
    """Ordered G1 segment list."""

    segments: tuple
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    def total_length(self) -> float:
        return float(sum(seg.length for seg in self.segments))

    def energy(self) -> float:
        return float(sum(seg.energy() for seg in self.segments))


def g1_defects(spline: Spline):
    """(max position gap, max tangent-angle gap in radians) at the joints."""
    segs = spline.segments
    pairs = list(zip(segs[:-1], segs[1:]))
    if spline.closed and len(segs) > 1:
        pairs.append((segs[-1], segs[0]))
    pos = ang = 0.0
    for a, b in pairs:
        pa = a.point_at(a.length)
        pb = b.point_at(0.0)
        pos = max(pos, float(np.linalg.norm(pa - pb)))
        ang = max(ang, abs(_wrap_angle(a.angle_at(a.length) - b.angle_at(0.0))))
    return pos, ang


# ---------------------------------------------------------------------------
# inscribed splining


def _require_planar(points: np.ndarray):
    if points.shape[1] != 2:
        raise NonPlanarData("splining requires planar (2D) input")


def _vertex_turns(rc: RefinedCurve):
    """Vertices with two neighbours: indices, unit half-edges in and out, signed turns."""
    pts, n = rc.points, len(rc.points)
    v = rc.vertex_indices()
    if not rc.closed:
        v = v[(v > 0) & (v < n - 1)]
    e0 = pts[v] - pts[v - 1]  # negative index wraps, which is what closed curves need
    e1 = pts[(v + 1) % n] - pts[v]
    e0, e1 = (e / np.linalg.norm(e, axis=1)[:, None] for e in (e0, e1))
    return v, e0, e1, _signed_angles(_embed3(e0), _embed3(e1), np.broadcast_to(_EZ, (len(v), 3)))


def _arc_from_pose(p: np.ndarray, direction: np.ndarray, kappa: float, length: float) -> ArcSegment:
    center = p + _rot90(direction) / kappa
    radius = 1.0 / abs(kappa)
    alpha0 = math.atan2(p[1] - center[1], p[0] - center[0])
    return ArcSegment(center, radius, alpha0, kappa * length, length)


def spline_inscribed(rc: RefinedCurve, tol: Tolerances = DEFAULT) -> Spline:
    """One arc per vertex, tangent to both adjacent edges at their midpoints."""
    _require_planar(rc.points)
    validate_refined(rc, tol)
    pts = rc.points
    n = len(pts)
    ell = rc.ell
    segments = []
    if not rc.closed and rc.is_vertex(0):
        d = (pts[1] - pts[0]) / np.linalg.norm(pts[1] - pts[0])
        segments.append(LineSegment(pts[0].copy(), d, ell))
    for v, e0, _, theta in zip(*_vertex_turns(rc)):
        m0 = pts[(v - 1) % n]
        m1 = pts[(v + 1) % n]
        if abs(theta) < 1e-12:
            d = (m1 - m0) / np.linalg.norm(m1 - m0)
            segments.append(LineSegment(m0.copy(), d, float(np.linalg.norm(m1 - m0))))
            continue
        kappa = math.tan(theta / 2.0) / ell
        length = abs(theta) / abs(kappa)
        segments.append(_arc_from_pose(m0, e0, kappa, length))
    if not rc.closed and rc.is_vertex(n - 1):
        d = (pts[n - 1] - pts[n - 2]) / np.linalg.norm(pts[n - 1] - pts[n - 2])
        segments.append(LineSegment(pts[n - 2].copy(), d, ell))
    return Spline(tuple(segments), closed=rc.closed)


# ---------------------------------------------------------------------------
# clothoid G1 fitting (circumscribed splining)

def _solve_clothoid_param(phi0: float, delta: float, max_iter: int = 200):
    """Root A of Y(A) = int_0^1 sin(phi0 + (delta - A) u + A u^2) du = 0; None on failure."""
    # linearized solution of the fitting equation
    a_param = 6.0 * phi0 + 3.0 * delta
    best = None
    for _ in range(max_iter):
        _, y, gp = _phase_integrals(phi0, delta - a_param, a_param)
        if best is None or abs(y) < best[0]:
            best = (abs(y), a_param)
        if abs(y) < 1e-14:
            return a_param
        if gp == 0.0:
            break
        step = y / gp
        step = max(-10.0, min(10.0, step))
        a_param -= step
    # fall back to a bracketing scan around the best Newton iterate
    from scipy.optimize import brentq

    center = best[1]
    span = np.linspace(center - 40.0, center + 40.0, 161)
    vals = _phase_integrals(phi0, delta - span, span)[:, 1]
    hits = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)  # a sign change or a zero
    if not hits.size:
        return None
    lo, hi = span[hits[0]], span[hits[0] + 1]
    return float(brentq(lambda a: _phase_integrals(phi0, delta - a, a)[1], lo, hi, xtol=1e-14))


def clothoid_g1_fit(p0, t0, p1, t1, tol: Tolerances = DEFAULT) -> Segment:
    """Shortest line/arc/clothoid joining pose (p0, t0) to (p1, t1).

    Exactly collinear data yields a Line, symmetric data an Arc, anything
    else a first-order clothoid solved by Newton iteration on the normalized
    fitting equation.  NoConvergence carries the best endpoint residual;
    a chord or tangent that is zero, not finite or overflows raises InputError.
    """
    p0, t0, p1, t1 = (np.asarray(v, dtype=float) for v in (p0, t0, p1, t1))
    n0, n1 = np.linalg.norm(t0), np.linalg.norm(t1)
    if not (0.0 < n0 < math.inf and 0.0 < n1 < math.inf):
        raise InputError("fit tangents must be nonzero with a finite norm")
    t0, t1 = t0 / n0, t1 / n1
    chord = p1 - p0
    d = float(np.linalg.norm(chord))
    if not 0.0 < d < math.inf:
        raise InputError(f"fit chord length must be positive and finite, got {d}")
    psi = math.atan2(chord[1], chord[0])
    phi0 = _wrap_angle(math.atan2(t0[1], t0[0]) - psi)
    phi1 = _wrap_angle(math.atan2(t1[1], t1[0]) - psi)
    if abs(phi0) < 1e-12 and abs(phi1) < 1e-12:
        return LineSegment(p0, chord / d, d)
    if abs(phi0 + phi1) < 1e-12:
        # symmetric data: constant curvature
        sweep = phi1 - phi0
        length = d * (sweep / 2.0) / math.sin(sweep / 2.0)
        kappa = sweep / length
        return _arc_from_pose(p0, t0, kappa, length)

    candidates = []
    for k in (0, -1, 1):
        delta = phi1 - phi0 + _TWO_PI * k
        a_param = _solve_clothoid_param(phi0, delta)
        if a_param is None:
            continue
        x = _phase_integrals(phi0, delta - a_param, a_param)[0]
        if x <= 1e-9:
            continue
        length = d / x
        kappa0 = (delta - a_param) / length
        sharp = 2.0 * a_param / length**2
        candidates.append((length, kappa0, sharp))
    if not candidates:
        raise NoConvergence("clothoid fitting equation has no admissible root")
    length, kappa0, sharp = min(candidates, key=lambda c: c[0])
    seg = ClothoidSegment(p0, psi + phi0, kappa0, sharp, length)
    end = seg.point_at(length)
    residual = float(np.linalg.norm(end - p1)) + abs(
        _wrap_angle(seg.angle_at(length) - math.atan2(t1[1], t1[0]))
    )
    if residual > tol.clothoid_fit * max(1.0, d):
        raise NoConvergence(
            f"fitted clothoid misses the end pose by {residual:.3e}", residual=residual
        )
    return seg


def spline_circumscribed(dc: DiscreteCurve, tol: Tolerances = DEFAULT) -> Spline:
    """Clothoid spline interpolating the vertices of a discrete curve.

    The tangent at each vertex is the normalized sum of the adjacent edge
    directions (edge direction itself at open endpoints).
    """
    _require_planar(dc.points)
    pts = dc.points
    n = len(pts)
    edges = dc.edges()
    dirs = edges / np.linalg.norm(edges, axis=1)[:, None]
    if dc.closed:
        sums = np.roll(dirs, 1, axis=0) + dirs
    else:
        sums = np.vstack([dirs[:1], dirs[:-1] + dirs[1:], dirs[-1:]])
    norms = np.linalg.norm(sums, axis=1)
    if (bad := np.flatnonzero(norms < 1e-12)).size:
        raise InputError(f"antiparallel edges at vertex {bad[0]}")
    tangents = sums / norms[:, None]
    segments = []
    spans = n if dc.closed else n - 1
    for i in range(spans):
        j = (i + 1) % n
        try:
            segments.append(clothoid_g1_fit(pts[i], tangents[i], pts[j], tangents[j], tol))
        except NoConvergence as exc:
            raise NoConvergence(f"segment {i}: {exc}", residual=exc.residual) from exc
    return Spline(tuple(segments), closed=dc.closed)


# ---------------------------------------------------------------------------
# elastica (centered splining); the helpers take thetas (n+1,) or rows (B, n+1)


def _cell_arrays(thetas: np.ndarray):
    """Per-cell midpoints, half-spreads and sinc values (vectorized)."""
    a = thetas[..., :-1]
    b = thetas[..., 1:]
    m = 0.5 * (a + b)
    h = 0.5 * (b - a)
    small = np.abs(h) < 1e-5
    safe = np.where(small, 1.0, h)
    s = np.sin(h) / safe
    sp = (np.cos(h) - s) / safe
    if small.any():  # series near zero
        t = h[small]
        s[small] = 1.0 - t * t / 6.0 + t**4 / 120.0
        sp[small] = -t / 3.0 + t**3 / 30.0
    return m, h, s, sp, small


def elastica_constraints(thetas: np.ndarray, ds: float):
    """Displacement (X, Y) of the piecewise-linear turning-angle curve (per row)."""
    m, _, s, _, _ = _cell_arrays(np.asarray(thetas, dtype=float))
    return ds * np.sum(np.cos(m) * s, axis=-1), ds * np.sum(np.sin(m) * s, axis=-1)


def elastica_energy(thetas: np.ndarray, ds: float) -> float:
    d = np.diff(thetas)
    return float(np.sum(d * d) / ds)


def _constraint_grad(thetas: np.ndarray, ds: float):
    """Gradients of (X, Y) with respect to every theta node (analytic)."""
    thetas = np.asarray(thetas, dtype=float)
    m, _, s, sp, _ = _cell_arrays(thetas)
    cm, sm = np.cos(m), np.sin(m)
    gx = np.zeros(thetas.shape)
    gy = np.zeros(thetas.shape)
    # d/da: dm = 1/2, dh = -1/2 ; d/db: dm = 1/2, dh = 1/2
    gx[..., :-1] += ds * 0.5 * (-sm * s - cm * sp)
    gx[..., 1:] += ds * 0.5 * (-sm * s + cm * sp)
    gy[..., :-1] += ds * 0.5 * (cm * s - sm * sp)
    gy[..., 1:] += ds * 0.5 * (cm * s + sm * sp)
    return gx, gy


def _constraint_hessians(thetas: np.ndarray, ds: float):
    """Tridiagonal Hessians of (X, Y): (diag, offdiag) node arrays each."""
    thetas = np.asarray(thetas, dtype=float)
    m, h, s, sp, small = _cell_arrays(thetas)
    # sinc'' = -sinc - 2 sinc'/h, series -1/3 + h^2/10 near zero
    spp = np.where(small, -1.0 / 3.0 + h * h / 10.0, -s - 2.0 * sp / np.where(small, 1.0, h))
    cm, sm = np.cos(m), np.sin(m)
    faa = 0.25 * (-cm * s + 2.0 * sm * sp + cm * spp)
    fbb = 0.25 * (-cm * s - 2.0 * sm * sp + cm * spp)
    fab = -0.25 * cm * (s + spp)
    gaa = 0.25 * (-sm * s - 2.0 * cm * sp + sm * spp)
    gbb = 0.25 * (-sm * s + 2.0 * cm * sp + sm * spp)
    gab = -0.25 * sm * (s + spp)
    dx = np.zeros(thetas.shape)
    dy = np.zeros(thetas.shape)
    dx[..., :-1] += ds * faa
    dx[..., 1:] += ds * fbb
    dy[..., :-1] += ds * gaa
    dy[..., 1:] += ds * gbb
    return dx, ds * fab, dy, ds * gab


def _kkt_residual(thetas, lam, ds, target):
    """Stationarity at the interior nodes, then the two constraint defects."""
    gx, gy = _constraint_grad(thetas, ds)
    x, y = elastica_constraints(thetas, ds)
    grad_e = 2.0 * (2.0 * thetas[..., 1:-1] - thetas[..., :-2] - thetas[..., 2:]) / ds
    stationary = grad_e + lam[..., :1] * gx[..., 1:-1] + lam[..., 1:] * gy[..., 1:-1]
    defect = np.stack([x - target[..., 0], y - target[..., 1]], axis=-1)
    return np.concatenate([stationary, defect], axis=-1)


def _kkt_step(thetas, lam, ds, res):
    """Newton steps of the KKT systems of a batch of rows, and a mask of the
    rows whose systems are nonsingular.

    A row's Lagrangian Hessian is tridiagonal with a two-row constraint
    border: one gtsv (LAPACK's tridiagonal solver, as in scipy's solve_banded)
    solves the block-diagonal band of all rows, and each row's 2x2 Schur
    complement is solved in closed form.
    """
    from scipy.linalg.lapack import dgtsv

    n_rows, n_int = len(thetas), thetas.shape[1] - 2
    gx, gy = _constraint_grad(thetas, ds)
    dx, ex, dy, ey = _constraint_hessians(thetas, ds)
    # energy Hessian: tridiagonal (4, -2, -2)/ds on interior nodes
    diag = 4.0 / ds + lam[:, :1] * dx[:, 1:-1] + lam[:, 1:] * dy[:, 1:-1]
    off = np.zeros((n_rows, n_int))  # the last column couples a row to the next: zero
    off[:, :-1] = -2.0 / ds + lam[:, :1] * ex[:, 1:-1] + lam[:, 1:] * ey[:, 1:-1]
    g = np.stack([gx[:, 1:-1], gy[:, 1:-1]], axis=1)  # B x 2 x n_int
    rhs = np.stack([res[:, :n_int], g[:, 0], g[:, 1]], axis=-1)
    ok = np.ones(n_rows, dtype=bool)
    while True:
        band = off.ravel()[:-1]
        *_, sol, info = dgtsv(band, diag.ravel(), band, rhs.reshape(-1, 3))
        if info == 0:
            break
        # zero pivot in row k's block: retire the row and solve the others again
        k = (info - 1) // n_int
        ok[k] = False
        diag[k], off[k], rhs[k] = 1.0, 0.0, 0.0
    sol = sol.reshape(n_rows, n_int, 3)
    hr, hg = sol[..., 0], sol[..., 1:]  # H^-1 r1, H^-1 G^T
    schur = g @ hg
    c = res[:, n_int:] - np.einsum("bij,bj->bi", g, hr)
    s00, s01, s10, s11 = schur.reshape(-1, 4).T
    det = s00 * s11 - s01 * s10
    ok &= det != 0.0
    adj_c = np.column_stack([s11 * c[:, 0] - s01 * c[:, 1], s00 * c[:, 1] - s10 * c[:, 0]])
    dlam = adj_c / np.where(ok, det, 1.0)[:, None]
    return np.column_stack([-hr - np.einsum("bij,bj->bi", hg, dlam), dlam]), ok


def _newton_batch(starts, ds, targets, max_iter=100):
    """Damped Newton on the KKT system of every row of starts (B, n+1) at once;
    returns the final thetas and each row's max|res|.

    Each row stops below 1e-11, after max_iter steps, on a singular step, or
    after 6 slow steps in a row (max|res| not cut below 0.7x); its line search
    halves the step up to 16 times until max|res| strictly falls.
    """
    thetas = np.array(starts, dtype=float)
    n_int = thetas.shape[1] - 2
    lam = np.zeros((len(thetas), 2))
    res = _kkt_residual(thetas, lam, ds, targets)
    nrm = np.max(np.abs(res), axis=1)
    slow = np.zeros(len(thetas), dtype=int)
    live = np.ones(len(thetas), dtype=bool)
    for _ in range(max_iter):
        live &= nrm >= 1e-11
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        step, ok = _kkt_step(thetas[rows], lam[rows], ds, res[rows])
        live[rows[~ok]] = False
        rows, step = rows[ok], step[ok]
        improved = np.zeros(len(rows), dtype=bool)
        for halvings in range(16):
            todo = np.flatnonzero(~improved)
            if not len(todo):
                break
            r = rows[todo]
            th_try = thetas[r]
            th_try[:, 1:-1] += 0.5**halvings * step[todo, :n_int]
            lam_try = lam[r] + 0.5**halvings * step[todo, n_int:]
            res_try = _kkt_residual(th_try, lam_try, ds, targets[r])
            better = np.max(np.abs(res_try), axis=1) < nrm[r]
            won = r[better]
            thetas[won], lam[won], res[won] = th_try[better], lam_try[better], res_try[better]
            improved[todo[better]] = True
        new = np.max(np.abs(res[rows]), axis=1)
        # crawling basins never reach the tolerance; give up early
        slow[rows] = np.where(improved & (new <= 0.7 * nrm[rows]), 0, slow[rows] + 1)
        nrm[rows] = new
        live[rows] &= slow[rows] < 6
    return thetas, nrm


def _fit_c_const(th: np.ndarray, ds: float) -> float:
    """Least-squares C in theta''' + theta'^3/2 + C theta' = 0 on the interior grid."""
    if len(th) < 7:
        return 0.0
    d1 = (th[3:-1] - th[1:-3]) / (2.0 * ds)
    d3 = (th[4:] - 2.0 * th[3:-1] + 2.0 * th[1:-3] - th[:-4]) / (2.0 * ds**3)
    num = -float(np.dot(d3 + 0.5 * d1**3, d1))
    den = float(np.dot(d1, d1))
    return num / den if den > 0.0 else 0.0


# rows per _newton_batch call: a batch holds about 30 temporaries of its size;
# 64 rows keep them near 1.5 MB, where one batch of 330 rows held 5 MB for 1.3x the speed
_BATCH_ROWS = 64


def _elastica_spans(spans, length, n, restarts, seed, tol, name_spans=False):
    """The elastica of the given length for each span (p0, t0, p1, t1).

    The starts of all spans are solved together, _BATCH_ROWS rows per
    _newton_batch call; span i draws its random starts from
    default_rng(seed + i).  With name_spans, NoConvergence names the span.
    """
    ds = length / n
    grid = np.linspace(0.0, 1.0, n + 1)
    plans, starts, targets = [], [], []  # plans: (p0, thetas if straight, start count)
    for i, (p0, t0, p1, t1) in enumerate(spans):
        p0 = np.asarray(p0, dtype=float)
        chord = np.asarray(p1, dtype=float) - p0
        t0 = np.asarray(t0, dtype=float) / np.linalg.norm(t0)
        t1 = np.asarray(t1, dtype=float) / np.linalg.norm(t1)
        d = float(np.linalg.norm(chord))
        if length < d * (1.0 - 1e-12):
            raise Infeasible(f"length {length} shorter than chord {d}")
        th0 = math.atan2(t0[1], t0[0])
        th1 = th0 + _wrap_angle(math.atan2(t1[1], t1[0]) - th0)
        if length <= d * (1.0 + 1e-12):
            psi = math.atan2(chord[1], chord[0])
            if abs(_wrap_angle(th0 - psi)) > 1e-9 or abs(_wrap_angle(th1 - psi)) > 1e-9:
                raise Infeasible("length equals chord but tangents are not aligned")
            plans.append((p0, np.full(n + 1, psi), 0))
            continue
        rng = np.random.default_rng(seed + i)
        own = [th0 + (th1 + b - th0) * grid for b in (0.0, _TWO_PI, -_TWO_PI)]
        while len(own) < 3 + restarts:
            base = own[len(own) % 3].copy()
            for mode in range(1, 4):
                # interior perturbation only; sin windows vanish at both ends
                base += rng.normal(0.0, 0.6 / mode) * np.sin(math.pi * mode * grid)
            own.append(base)
        plans.append((p0, None, len(own)))
        starts += own
        targets += [chord] * len(own)
    if starts:
        starts, targets = np.array(starts), np.array(targets)
        parts = [
            _newton_batch(starts[i : i + _BATCH_ROWS], ds, targets[i : i + _BATCH_ROWS])
            for i in range(0, len(starts), _BATCH_ROWS)
        ]
        thetas, res = (np.concatenate(a) for a in zip(*parts))
    segments, row = [], 0
    for i, (p0, straight, count) in enumerate(plans):
        if straight is not None:
            segments.append(ElasticaSegment(p0, straight, length, 0.0))
            continue
        found, residuals = thetas[row : row + count], res[row : row + count]
        row += count
        converged = found[residuals < tol.elastica_kkt]  # a copy: no segment keeps the batch
        solutions = sorted([(elastica_energy(th, ds), th) for th in converged], key=lambda e: e[0])
        if not solutions:
            best_res = float(np.min(residuals))
            where = f"span {i}: " if name_spans else ""
            raise NoConvergence(
                f"{where}elastica boundary value problem did not converge "
                f"(best residual {best_res:.3e})",
                residual=best_res,
            )
        distinct = [solutions[0]]
        for e, th in solutions[1:]:
            if all(np.max(np.abs(th - other[1])) > 1e-6 for other in distinct):
                distinct.append((e, th))
        if len(distinct) > 1:
            warnings.warn(
                f"{len(distinct)} distinct elastica solutions; returning lowest energy",
                MultipleSolutionsWarning,
            )
        best = distinct[0][1]
        segments.append(ElasticaSegment(p0, best, length, _fit_c_const(best, ds)))
    return segments


def elastica_bvp(
    p0,
    t0,
    p1,
    t1,
    length: float,
    n: int = 64,
    restarts: int = 8,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> ElasticaSegment:
    """Minimum-bending-energy curve of fixed length clamped at both poses.

    Solves the KKT system of the turning-angle discretization by damped
    Newton from several starts (winding branches plus random smooth
    perturbations); distinct local minima trigger MultipleSolutionsWarning
    and the lowest-energy one is returned.
    """
    return _elastica_spans([(p0, t0, p1, t1)], length, n, restarts, seed, tol)[0]


def project_to_constraints(thetas: np.ndarray, ds: float, target, max_iter: int = 50):
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


# ---------------------------------------------------------------------------
# centered splining


def centered_nodes(rc: RefinedCurve):
    """Nodes of the centered splining: (points, unit directions), a row each.

    Each polyline vertex moves onto its centered circle (offset toward the
    center of curvature by the vertex-angle formula) and takes the average
    of the adjacent edge directions.  An open curve also starts and ends at
    its endpoints, along its end edges.
    """
    if not rc.closed and not rc.is_vertex(0):
        raise InputError("open centered splining expects the curve to start at a vertex")
    pts = rc.points
    v, e0, e1, theta = _vertex_turns(rc)
    tv = (e0 + e1) / np.linalg.norm(e0 + e1, axis=1)[:, None]
    offset = np.sign(theta) * centered_vertex_offset(theta, rc.ell)
    points = pts[v] + offset[:, None] * _rot90(tv)
    if rc.closed:
        return points, tv
    ends = pts[[1, -1]] - pts[[0, -2]]
    ends = ends / np.linalg.norm(ends, axis=1)[:, None]
    return np.vstack([pts[:1], points, pts[-1:]]), np.vstack([ends[:1], tv, ends[1:]])


def spline_centered(
    rc: RefinedCurve,
    n: int = 64,
    restarts: int = 8,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> Spline:
    """Length-preserving elastica spline through centered offset points.

    The spline passes through centered_nodes(rc) along their directions,
    and each span gets an elastica of length exactly 2*ell; every start of
    every span is solved as one Newton batch.
    """
    _require_planar(rc.points)
    validate_refined(rc, tol)
    points, dirs = centered_nodes(rc)
    spans = list(zip(points, dirs, np.roll(points, -1, axis=0), np.roll(dirs, -1, axis=0)))
    spans = spans if rc.closed else spans[:-1]
    segments = _elastica_spans(spans, 2.0 * rc.ell, n, restarts, seed, tol, name_spans=True)
    return Spline(tuple(segments), closed=rc.closed)


# ---------------------------------------------------------------------------
# Sogo's discrete elastica turning angles


def sogo_turning_angles(theta0: float, k: float, n_steps: int) -> np.ndarray:
    """Discrete elastica turning-angle sequence via the Jacobi sn function.

    theta_j = 2 asin( sin(theta0/2) * sn(K(k) * (N - j)/N, k) ), j = 0..N.
    Endpoint identities: theta_N = 0 (sn(0) = 0) and theta_0 = theta0
    (sn(K) = 1).
    """
    if n_steps < 2:
        raise InputError("need at least 2 steps")
    sn = jacobi_sn(elliptic_K(k) * np.arange(n_steps, -1, -1.0) / n_steps, k)
    return 2.0 * np.arcsin(np.clip(math.sin(theta0 / 2.0) * sn, -1.0, 1.0))
