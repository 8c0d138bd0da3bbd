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

from .config import CLOTHOID_FIT, ELASTICA_KKT, MAX_SAMPLES
from .curve_core import DiscreteCurve, RefinedCurve, check_edge_lengths, validate_refined
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

    Each entry gets as many panels as keep its phase change within _MAX_PHASE,
    and does not depend on the other entries: einsum sums each row on its own,
    where BLAS's @ rounds a row by how many rows share the call.
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
            cos, sin = np.cos(theta), np.sin(theta)
            out[r, 0], out[r, 1], out[r, 2] = (np.einsum("ij,j->i", v, q) for v, q in ((cos, w), (sin, w), (cos, wm)))
    return out.reshape(shape + (3,))


def clothoid_xy(kappa0: float, a: float, theta0: float, s):
    """Displacement along a clothoid with curvature kappa0 + a*t, start angle theta0.

    ``s`` is a float or an array of arc lengths; the result has shape
    ``s.shape + (2,)``.  The samples are integrated in sorted order.
    """
    s = np.asarray(s, dtype=float)
    order = np.argsort(s, axis=None, kind="stable")
    xy = np.empty(s.shape + (2,))
    xy.reshape(-1, 2)[order] = _clothoid_runs(theta0, kappa0, a, s.ravel()[order], [0])[0]
    return xy


def _clothoid_runs(theta0, kappa0, a, s, first):
    """Displacements along clothoids at the arc lengths s: one clothoid per run of
    sorted samples, each run starting at an index in first; theta0, kappa0 and a
    are floats or given per sample.  The phase integral is taken over each nonzero
    gap between samples, all in one _phase_integrals call, and summed in order."""
    t = np.concatenate([[0.0], s[:-1]])  # each row integrates from t over the gap h
    t[first] = 0.0
    h = s - t
    c, gap = (theta0 + t * (kappa0 + 0.5 * a * t), (kappa0 + a * t) * h, 0.5 * a * h * h), h != 0.0
    steps = np.zeros((len(s), 2))
    steps[gap] = h[gap, None] * _phase_integrals(*(v[gap] for v in c))[:, :2]
    return [np.cumsum(run, axis=0) for run in np.split(steps, first[1:])]


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
        if 2.0**-511 <= self.radius < 2.0**512:  # exactly where radius**2 is a normal double
            return self.length / self.radius**2
        return self.length / self.radius / self.radius


def clothoid_turning(kappa0: float, sharpness: float, length: float) -> float:
    """A bound on a clothoid's total turning (rad): the phase span whose panels
    _phase_integrals takes from its start to its end."""
    return abs(kappa0) * length + 0.5 * abs(sharpness) * length * length


def check_clothoid_size(kappa0: float, sharpness: float, length: float):
    """Raise InputError unless a clothoid's length and total turning (rad) are at
    most 1e3: its quadrature panels and polyline samples grow with both."""
    turning = clothoid_turning(kappa0, sharpness, length)
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
        k0, a, L = map(np.float64, (self.kappa0, self.sharpness, self.length))
        try:
            with np.errstate(over="raise", under="raise"):
                return float(k0 * k0 * L + k0 * a * L * L + a * a * L**3 / 3.0)
        except FloatingPointError:  # a term is not a normal double: the scale-free form
            v, u = k0 * L, a * L * L
            return float((v * v + v * u + u * u / 3.0) / L)


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
        return _elastica_nodes(self.start, self.thetas, self.length)

    def point_at(self, s: float) -> np.ndarray:
        ds = self.ds
        j = int(np.clip(math.floor(s / ds), 0, len(self.thetas) - 2))
        pts = self.node_points()
        frac = s - j * ds
        if frac <= 0.0:
            return pts[j]
        a = self.thetas[j]  # theta is linear over the cell: integrate exactly
        cm, sm, _, s, _, _ = _cell_arrays(np.array([a, a + (self.thetas[j + 1] - a) * frac / ds]))
        return pts[j] + frac * s * np.array([cm[0], sm[0]])

    def angle_at(self, s: float) -> float:
        grid = np.linspace(0.0, self.length, len(self.thetas))
        return float(np.interp(s, grid, self.thetas))

    def energy(self) -> float:
        return elastica_energy(self.thetas, self.ds)


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


def _groups(segs):
    """(segment type, rows, col) per segment type and elastica grid size: the
    indices of those segments in segs, and col(name) their field name as an array."""
    groups = {}
    for i, seg in enumerate(segs):
        groups.setdefault((type(seg), len(getattr(seg, "thetas", ()))), []).append(i)
    for (kind, _), rows in groups.items():
        yield kind, rows, lambda name, rows=rows: np.array([getattr(segs[i], name) for i in rows], dtype=float)


def _elastica_nodes(start, thetas, length) -> np.ndarray:
    """Grid nodes (..., n+1, 2) of the elastica rows with start points (..., 2),
    turning angles (..., n+1) and lengths (...)."""
    cm, sm, _, s, _, _ = _cell_arrays(thetas)
    steps = np.zeros(thetas.shape + (2,))
    steps[..., 1:, :] = np.cumsum(np.stack([cm * s, sm * s], -1), axis=-2) / (thetas.shape[-1] - 1)
    return start[..., None, :] + np.asarray(length)[..., None, None] * steps


def _grid(lengths, counts):
    """np.linspace(0, length, count) of every row, concatenated; the index of each
    row's first sample; and a function repeating a per-row array per sample."""
    counts = counts.astype(np.intp)
    first = np.cumsum(counts) - counts
    rep = functools.partial(np.repeat, repeats=counts, axis=0)
    s = (np.arange(counts.sum()) - rep(first)) * rep(lengths / (counts - 1))
    s[first + counts - 1] = lengths
    return s, first, rep


def polyline_sampler(segs):
    """A function of a chord tolerance tol that returns every segment's polyline,
    from its start to its end point.  Arc and clothoid chords stray at most tol
    from the curve, and are the chords themselves at an infinite tol; lines and
    elastica give fixed polylines, no larger than their segments.  All arcs are
    sampled as one angle array and all clothoids with one _phase_integrals call.
    InputError if the arcs and clothoids would take over MAX_SAMPLES points
    between their end points."""
    fixed, arcs, clothoids = {}, (), ()  # fixed: the polylines that do not depend on tol
    for kind, rows, col in _groups(segs):
        if kind is ArcSegment:
            arcs = rows, col("length"), col("center"), col("radius"), col("start_angle"), col("sweep")
        elif kind is ClothoidSegment:
            clothoids = rows, col("length"), col("start"), col("start_angle"), col("kappa0"), col("sharpness")
        elif kind is ElasticaSegment:
            fixed.update(zip(rows, _elastica_nodes(col("start"), col("thetas"), col("length"))))
        else:
            fixed.update((i, np.array([segs[i].start, segs[i].point_at(segs[i].length)])) for i in rows)

    def sample(tol: float) -> list:
        n_arc = n_clothoid = np.zeros(0)  # chords per arc and per clothoid
        with np.errstate(over="ignore"):  # a tol that overflows against a curvature needs one chord
            if arcs:
                rows, length, center, radius, a0, sweep = arcs
                n_arc = np.abs(sweep) / np.maximum(2.0 * np.sqrt(2.0 * tol / radius), 1e-6)
            if clothoids:
                rows, length, start, theta0, k0, a = clothoids
                kmax = np.maximum(np.maximum(np.abs(k0), np.abs(k0 + a * length)), 1e-9)
                n_clothoid = length / np.sqrt(8.0 * tol / kmax)
        n_arc, n_clothoid = (np.maximum(np.ceil(n) + 1.0, 2.0) for n in (n_arc, n_clothoid))
        total = n_arc.sum() + n_clothoid.sum()
        # two end points per segment are no more than the segments hold: only the samples between them count
        if not total - 2.0 * (len(n_arc) + len(n_clothoid)) <= MAX_SAMPLES:
            raise InputError(f"drawing the spline needs {total:.6g} points, over the limit of {MAX_SAMPLES}")
        out = dict(fixed)
        if arcs:
            rows, length, center, radius, a0, sweep = arcs
            s, first, rep = _grid(length, n_arc)
            a = rep(a0) + rep(sweep) * s / rep(length)
            pts = rep(center) + rep(radius)[:, None] * np.stack([np.cos(a), np.sin(a)], -1)
            out.update(zip(rows, np.split(pts, first[1:])))
        if clothoids:
            rows, length, start, theta0, k0, a = clothoids
            s, first, rep = _grid(length, n_clothoid)
            out.update(zip(rows, map(np.add, start, _clothoid_runs(rep(theta0), rep(k0), rep(a), s, first))))
        return [out[i] for i in range(len(segs))]

    return sample


def g1_defects(spline: Spline):
    """(max position gap, max tangent-angle gap in radians) at the joints, read from polyline_sampler at tol inf."""
    segs = spline.segments
    joints = len(segs) if spline.closed and len(segs) > 1 else len(segs) - 1
    if joints < 1:
        return 0.0, 0.0
    polylines = polyline_sampler(segs)(math.inf)
    start, end = (np.array([pts[k] for pts in polylines]) for k in (0, -1))
    pos = float(np.max(np.linalg.norm(end[:joints] - np.roll(start, -1, axis=0)[:joints], axis=1)))
    pairs = zip(segs[:joints], segs[1:] + segs[:1])
    return pos, max(abs(_wrap_angle(a.angle_at(a.length) - b.angle_at(0.0))) for a, b in pairs)


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


def spline_inscribed(rc: RefinedCurve) -> Spline:
    """One arc per vertex, tangent to both adjacent edges at their midpoints."""
    _require_planar(rc.points)
    validate_refined(rc)
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

_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance
_CELL_NODES = np.linspace(0.0, 1.0, 65)  # each round splits a bracket into 64 equal cells


def refine_roots(f, lo, hi, xtol: float, *args) -> np.ndarray:
    """A root of f in each bracket [lo[i], hi[i]] whose ends change sign or hold a
    zero, for arrays lo <= hi and f(x, *args) the values at a 1-D array x, where
    args are arrays of one entry per bracket, repeated per point of x.

    Each round evaluates f once, on 65 equally spaced nodes of every bracket still
    wider than xtol + 4 eps |x| (brentq's tolerance), and keeps the first of its
    64 cells whose ends change sign; a node where f is exactly 0 is the root.
    Returns the middle of each final bracket, nan where a round finds no sign
    change; it does not depend on the other brackets if f's values do not.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    for _ in range(100):  # 64x narrower per round: a unit bracket meets 1e-14 in 8
        live = np.flatnonzero(hi - lo > xtol + _RTOL * np.maximum(np.abs(lo), np.abs(hi)))
        if not live.size:
            break
        a, b = lo[live], hi[live]
        x = a[:, None] + (b - a)[:, None] * _CELL_NODES
        x[:, -1] = b
        s = np.sign(f(x.ravel(), *(np.repeat(v[live], x.shape[1]) for v in args))).reshape(x.shape)
        # j is each bracket's first node whose sign is 0 or differs from its start's:
        # the root is x[j] if f is 0 there, else in [x[j - 1], x[j]]
        changed = s * s[:, :1] <= 0.0
        j = np.argmax(changed, axis=1) + np.arange(0, x.size, x.shape[1])
        x, s, found = x.ravel(), s.ravel(), changed.ravel()[j]
        lo[live] = np.where(found, np.where(s[j] == 0.0, x[j], x[j - 1]), math.nan)
        hi[live] = np.where(found, x[j], math.nan)
    return lo + 0.5 * (hi - lo)


def _bracket_roots(phi0, delta, center):
    """Roots A of Y for arrays phi0, delta, center: each in the sign change nearest center of
    a 161-point scan over center +- 40, refined by refine_roots to 1e-14; nan if it has none."""
    y = lambda a, phi0, delta: _phase_integrals(phi0, delta - a, a)[..., 1]  # noqa: E731
    span = np.linspace(center - 40.0, center + 40.0, 161, axis=-1)
    v = y(span, phi0[:, None], delta[:, None])
    hit = np.sign(v[:, :-1]) * np.sign(v[:, 1:]) <= 0.0  # a sign change or a zero
    k = np.argmin(np.where(hit, np.abs(span[:, :-1] + 0.25 - center[:, None]), math.inf), axis=1)
    rows, roots = np.flatnonzero(hit.any(axis=1)), np.full(center.shape, math.nan)
    roots[rows] = refine_roots(y, span[rows, k[rows]], span[rows, k[rows] + 1], 1e-14, phi0[rows], delta[rows])
    return roots


def _clothoid_roots(phi0, delta, max_iter: int = 200):
    """Roots A of Y(A) = int_0^1 sin(phi0 + (delta - A) u + A u^2) du = 0, and X(A)
    (the same integral of cos), for arrays phi0, delta; nan where none is found.
    Newton from the linearized solution runs on all rows at once, then _bracket_roots on
    the rows it leaves (a zero derivative, or max_iter steps); no row depends on another."""
    a = 6.0 * phi0 + 3.0 * delta
    root, best = np.full(a.shape, math.nan), np.full(a.shape, math.inf)
    best_a, live = a.copy(), np.arange(a.size)
    for _ in range(max_iter):
        _, y, gp = _phase_integrals(phi0[live], delta[live] - a[live], a[live]).T
        better = np.abs(y) < best[live]
        best[live[better]], best_a[live[better]] = np.abs(y[better]), a[live[better]]
        done = np.abs(y) < 1e-14
        root[live[done]] = a[live[done]]
        go = ~done & (gp != 0.0)
        a[live[go]] -= np.clip(y[go] / gp[go], -10.0, 10.0)
        if not (live := live[go]).size:
            break
    if (fail := np.flatnonzero(np.isnan(root))).size:
        root[fail] = _bracket_roots(phi0[fail], delta[fail], best_a[fail])
    x, ok = np.full(a.shape, math.nan), np.isfinite(root)
    x[ok] = _phase_integrals(phi0[ok], delta[ok] - root[ok], root[ok])[:, 0]
    return root, x


def _fit_spans(p0, t0, p1, t1, name_spans=False) -> list:
    """clothoid_g1_fit of each row of the (m, 2) arrays p0, t0, p1, t1, with the
    fitting equations of all rows solved together and one quadrature checking
    every end pose.  With name_spans, NoConvergence names the first row that fails.

    A row whose chord-frame end angles phi0, phi1 are both below pi/2 in size is
    solved on the winding branch k = 0 alone, any other row on k = 0, -1, 1, of
    which the shortest admissible wins (the first in that order on a tie).  Both
    give the same clothoid, by this lemma: on the closed square |phi0|, |phi1| <=
    pi/2, Newton converges on k = 0 to a clothoid with L/d <= 1.61 (d the chord),
    and every k = +-1 clothoid has L/d >= 1.73.

    Proof.  At u = s/L the tangent makes the angle
    theta = phi0 (1 - u) + phi1 u + 2 pi k u - A u (1 - u) with the chord; the fit
    needs Y(A) = int_0^1 sin theta du = 0 and has L/d = 1/X, X = int_0^1 cos theta du.
    As sin and cos have slope at most 1, a change d theta moves X and Y by at most
    int_0^1 |d theta| du; and |Y''| <= int_0^1 (u - u^2)^2 du = 1/30.
    (i) k = 0.  Newton starts at A0 = 3 (phi0 + phi1), where
    d theta = dphi0 (1 - u)(1 - 3u) + dphi1 u (3u - 2): X(A0) and Y(A0) move by at
    most 8/27 (|dphi0| + |dphi1|), and Y'(A0) by 1/4 of that.  On a 159 x 159 grid
    of the square, with these moves to the worst point of each node's cell,
    |Y'(A0)| >= 0.127 and Kantorovich's h = |Y(A0)| / (30 Y'(A0)^2) <= 0.069 < 1/2.
    So Newton stays within r <= 0.30 of A0, never clipping a step, and converges to
    a root there, where X >= X(A0) - r/6 >= 0.622.
    (ii) k = +-1.  theta -> -theta maps k = -1 to k = 1 and the square to itself, so
    take k = 1 and bound X at every A, root or not.  Completing the square,
    |X + iY| = |int_s0^s1 exp(+-i s^2) ds| / sqrt|A| <= 4 / sqrt|A|: the part of
    the integral where |s| <= 1 is at most 2, and integrating by parts bounds each
    part where |s| > 1 by 1.  So X <= 0.578 where |A| >= 48.  On a 17 x 17 x 97 grid
    of the square times [-48, 48], Taylor's theorem at each node (the gradient over
    half a spacing, and half of int_0^1 d theta^2 du for the second order) bounds
    X by 0.551.  test_winding_branches_lose_on_the_quarter_turn_square runs both
    grids.
    """
    p0, t0, p1, t1 = (np.array(v, dtype=float, ndmin=2) for v in (p0, t0, p1, t1))
    norms = np.linalg.norm([t0, t1], axis=2)
    if not ((0.0 < norms) & (norms < math.inf)).all():
        raise InputError("fit tangents must be nonzero with a finite norm")
    t0, t1, chord = t0 / norms[0, :, None], t1 / norms[1, :, None], p1 - p0
    d = np.linalg.norm(chord, axis=1)
    if (bad := np.flatnonzero(~((0.0 < d) & (d < math.inf)))).size:
        raise InputError(f"fit chord length must be positive and finite, got {d[bad[0]]}")
    psi = np.arctan2(chord[:, 1], chord[:, 0])
    phi0, phi1 = (_wrap_angle(np.arctan2(t[:, 1], t[:, 0]) - psi) for t in (t0, t1))
    line = (np.abs(phi0) < 1e-12) & (np.abs(phi1) < 1e-12)
    arc = ~line & (np.abs(phi0 + phi1) < 1e-12)  # symmetric data: constant curvature
    rows = np.flatnonzero(~line & ~arc)
    delta = ((phi1 - phi0)[rows, None] + _TWO_PI * np.array([0.0, -1.0, 1.0])).ravel()
    # k = 0 on every row; k = -1, 1 only where an end angle reaches pi/2, as by the lemma they lose elsewhere
    solve = np.repeat(np.maximum(np.abs(phi0), np.abs(phi1))[rows] >= 0.5 * math.pi, 3)
    solve[::3] = True
    a_param, x = np.full((2, delta.size), math.nan)
    a_param[solve], x[solve] = _clothoid_roots(np.repeat(phi0[rows], 3)[solve], delta[solve])
    lengths = np.divide(np.repeat(d[rows], 3), x, out=np.full(x.shape, math.inf), where=x > 1e-9)
    # the shortest admissible branch; argmin keeps the first of equal lengths in the order k = 0, -1, 1
    pick = 3 * np.arange(len(rows)) + np.argmin(lengths.reshape(-1, 3), axis=1)
    found = np.isfinite(lengths[pick])  # the other rows get placeholders and a nan residual
    length, a_param = np.where(found, lengths[pick], 1.0), np.where(found, a_param[pick], 0.0)
    kappa0, sharp = (delta[pick] - a_param) / length, 2.0 * a_param / length**2
    theta0, c1, c2 = psi[rows] + phi0[rows], kappa0 * length, 0.5 * sharp * length * length
    end = p0[rows] + length[:, None] * _phase_integrals(theta0, c1, c2)[:, :2]
    turn = _wrap_angle(theta0 + c1 + c2 - np.arctan2(t1[rows, 1], t1[rows, 0]))
    residual = np.where(found, np.linalg.norm(end - p1[rows], axis=1) + np.abs(turn), math.nan)
    if (bad := np.flatnonzero(~(residual <= CLOTHOID_FIT * np.maximum(1.0, d[rows])))).size:
        r = None if math.isnan(residual[bad[0]]) else float(residual[bad[0]])
        msg = "clothoid fitting equation has no admissible root"
        msg = msg if r is None else f"fitted clothoid misses the end pose by {r:.3e}"
        raise NoConvergence(f"segment {rows[bad[0]]}: {msg}" if name_spans else msg, residual=r)
    segments = [LineSegment(p0[i], chord[i] / d[i], float(d[i])) if line[i] else None for i in range(len(p0))]
    for i, sweep in zip(np.flatnonzero(arc).tolist(), (phi1 - phi0)[arc].tolist()):
        arc_length = float(d[i]) * (sweep / 2.0) / math.sin(sweep / 2.0)
        segments[i] = _arc_from_pose(p0[i], t0[i], sweep / arc_length, arc_length)
    for i, *params in zip(rows.tolist(), theta0.tolist(), kappa0.tolist(), sharp.tolist(), length.tolist()):
        segments[i] = ClothoidSegment(p0[i], *params)
    return segments


def clothoid_g1_fit(p0, t0, p1, t1) -> Segment:
    """Shortest line/arc/clothoid joining pose (p0, t0) to (p1, t1).

    Exactly collinear data yields a Line, symmetric data an Arc, anything
    else a first-order clothoid solved by Newton iteration on the normalized
    fitting equation: on the winding branch k = 0 alone when both tangents are
    less than a quarter turn off the chord, as in every circumscribed span, else
    on k = 0 and the branches of +-2 pi more turning, keeping the shortest (see
    _fit_spans for why).  NoConvergence carries the best endpoint residual;
    a chord or tangent that is zero, not finite or overflows raises InputError.
    """
    return _fit_spans(p0, t0, p1, t1)[0]


def spline_circumscribed(dc: DiscreteCurve) -> Spline:
    """Clothoid spline interpolating the vertices of a discrete curve.

    The tangent at each vertex is the normalized sum of the adjacent edge
    directions (edge direction itself at open endpoints).  All spans are
    fitted as one batch; NoConvergence names the first span that fails.
    """
    _require_planar(dc.points)
    pts = dc.points
    n = len(pts)
    lengths = dc.edge_lengths()
    check_edge_lengths(lengths)
    dirs = dc.edges() / lengths[:, None]
    if dc.closed:
        sums = np.roll(dirs, 1, axis=0) + dirs
    else:
        sums = np.vstack([dirs[:1], dirs[:-1] + dirs[1:], dirs[-1:]])
    norms = np.linalg.norm(sums, axis=1)
    if (bad := np.flatnonzero(norms < 1e-12)).size:
        raise InputError(f"antiparallel edges at vertex {bad[0]}")
    tangents = sums / norms[:, None]
    i = np.arange(n if dc.closed else n - 1)
    j = (i + 1) % n
    return Spline(tuple(_fit_spans(pts[i], tangents[i], pts[j], tangents[j], name_spans=True)), closed=dc.closed)


# ---------------------------------------------------------------------------
# elastica (centered splining); the helpers take thetas (n+1,) or rows (B, n+1)


def _cell_arrays(thetas: np.ndarray):
    """Per cell: cos and sin of the midpoint angle, the half-spread h, sinc h
    and its derivative, and the mask of the cells where those use a series."""
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
    return np.cos(m), np.sin(m), h, s, sp, small


def elastica_constraints(thetas: np.ndarray, ds: float, cells=None):
    """Displacement (X, Y) of the piecewise-linear turning-angle curve (per row);
    cells, if given, are _cell_arrays(thetas)."""
    cm, sm, _, s, _, _ = cells or _cell_arrays(np.asarray(thetas, dtype=float))
    return ds * np.sum(cm * s, axis=-1), ds * np.sum(sm * s, axis=-1)


def elastica_energy(thetas: np.ndarray, ds: float) -> float:
    d = np.diff(thetas)
    return float(np.sum(d * d) / ds)


def _to_nodes(first, last):
    """Node array of per-cell terms: first goes to each cell's first node, last to its last."""
    out = np.zeros(first.shape[:-1] + (first.shape[-1] + 1,))
    out[..., :-1] += first
    out[..., 1:] += last
    return out


def _constraint_grad(thetas: np.ndarray, ds: float, cells=None):
    """Gradients of (X, Y) with respect to every theta node (analytic)."""
    cm, sm, _, s, sp, _ = cells or _cell_arrays(np.asarray(thetas, dtype=float))
    # d/da: dm = 1/2, dh = -1/2 ; d/db: dm = 1/2, dh = 1/2
    gx = _to_nodes(ds * 0.5 * (-sm * s - cm * sp), ds * 0.5 * (-sm * s + cm * sp))
    gy = _to_nodes(ds * 0.5 * (cm * s - sm * sp), ds * 0.5 * (cm * s + sm * sp))
    return gx, gy


def _constraint_hessians(thetas: np.ndarray, ds: float, cells=None):
    """Tridiagonal Hessians of (X, Y): (diag, offdiag) node arrays each."""
    cm, sm, h, s, sp, small = cells or _cell_arrays(np.asarray(thetas, dtype=float))
    # sinc'' = -sinc - 2 sinc'/h, series -1/3 + h^2/10 near zero
    spp = np.where(small, -1.0 / 3.0 + h * h / 10.0, -s - 2.0 * sp / np.where(small, 1.0, h))
    faa = 0.25 * (-cm * s + 2.0 * sm * sp + cm * spp)
    fbb = 0.25 * (-cm * s - 2.0 * sm * sp + cm * spp)
    fab = -0.25 * cm * (s + spp)
    gaa = 0.25 * (-sm * s - 2.0 * cm * sp + sm * spp)
    gbb = 0.25 * (-sm * s + 2.0 * cm * sp + sm * spp)
    gab = -0.25 * sm * (s + spp)
    return _to_nodes(ds * faa, ds * fbb), ds * fab, _to_nodes(ds * gaa, ds * gbb), ds * gab


def _kkt_residual(thetas, lam, ds, target):
    """Stationarity at the interior nodes, then the two constraint defects."""
    cells = _cell_arrays(thetas)
    gx, gy = _constraint_grad(thetas, ds, cells)
    x, y = elastica_constraints(thetas, ds, cells)
    grad_e = 2.0 * (2.0 * thetas[..., 1:-1] - thetas[..., :-2] - thetas[..., 2:]) / ds
    stationary = grad_e + lam[..., :1] * gx[..., 1:-1] + lam[..., 1:] * gy[..., 1:-1]
    defect = np.stack([x - target[..., 0], y - target[..., 1]], axis=-1)
    return np.concatenate([stationary, defect], axis=-1)


def _lagrangian_band(thetas, lam, ds):
    """Each row's Lagrangian Hessian on the interior nodes as a tridiagonal
    band (diag, off), off zero in its last column, and the constraint
    Jacobian G (B x 2 x interior nodes)."""
    n_rows, n_int = len(thetas), thetas.shape[1] - 2
    cells = _cell_arrays(thetas)
    gx, gy = _constraint_grad(thetas, ds, cells)
    dx, ex, dy, ey = _constraint_hessians(thetas, ds, cells)
    # energy Hessian: tridiagonal (4, -2, -2)/ds on interior nodes
    diag = 4.0 / ds + lam[:, :1] * dx[:, 1:-1] + lam[:, 1:] * dy[:, 1:-1]
    off = np.zeros((n_rows, n_int))  # the last column couples a row to the next: zero
    off[:, :-1] = -2.0 / ds + lam[:, :1] * ex[:, 1:-1] + lam[:, 1:] * ey[:, 1:-1]
    return diag, off, np.stack([gx[:, 1:-1], gy[:, 1:-1]], axis=1)


def _band_solve(diag, off, rhs):
    """Solutions (B x n x k) of every row's tridiagonal system for its k
    right-hand sides, and a mask of the rows whose systems are nonsingular.

    One gtsv (LAPACK's tridiagonal solver, as in scipy's solve_banded)
    solves the block-diagonal band of all rows; a singular row is retired,
    its entries overwritten, and the others solved again.
    """
    from scipy.linalg.lapack import dgtsv

    n_int = diag.shape[1]
    ok = np.ones(len(diag), dtype=bool)
    while True:
        band = off.ravel()[:-1]
        *_, sol, info = dgtsv(band, diag.ravel(), band, rhs.reshape(-1, rhs.shape[-1]))
        if info == 0:
            return sol.reshape(rhs.shape), ok
        # zero pivot in row k's block: retire the row and solve the others again
        k = (info - 1) // n_int
        ok[k] = False
        diag[k], off[k], rhs[k] = 1.0, 0.0, 0.0


def _kkt_step(thetas, lam, ds, res):
    """Newton steps of the KKT systems of a batch of rows, and a mask of the
    rows whose systems are nonsingular.

    A row's Lagrangian Hessian is tridiagonal with a two-row constraint
    border: one band solve covers all rows, and each row's 2x2 Schur
    complement is solved in closed form.
    """
    n_int = thetas.shape[1] - 2
    diag, off, g = _lagrangian_band(thetas, lam, ds)
    rhs = np.stack([res[:, :n_int], g[:, 0], g[:, 1]], axis=-1)
    sol, ok = _band_solve(diag, off, rhs)
    hr, hg = sol[..., 0], sol[..., 1:]  # H^-1 r1, H^-1 G^T
    schur = g @ hg
    c = res[:, n_int:] - np.einsum("bij,bj->bi", g, hr)
    s00, s01, s10, s11 = schur.reshape(-1, 4).T
    det = s00 * s11 - s01 * s10
    ok &= det != 0.0
    adj_c = np.column_stack([s11 * c[:, 0] - s01 * c[:, 1], s00 * c[:, 1] - s10 * c[:, 0]])
    dlam = adj_c / np.where(ok, det, 1.0)[:, None]
    return np.column_stack([-hr - np.einsum("bij,bj->bi", hg, dlam), dlam]), ok


def _second_order_ok(thetas, lam, ds):
    """Mask of the rows whose reduced Hessian (the Lagrangian Hessian H on the
    tangent space of the two constraints) is positive definite.

    By Haynsworth's inertia additivity on the KKT matrix [[H, G^T], [G, 0]],
    it is iff H and the 2x2 Schur complement S = G H^-1 G^T are nonsingular
    and have as many negative eigenvalues.  H's count is the number of
    negative LDL^T pivots, O(n) per row; a zero pivot fails the test.
    """
    diag, off, g = _lagrangian_band(thetas, lam, ds)
    pivot = diag[:, 0]
    negative, nonzero = (pivot < 0.0).astype(int), pivot != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, diag.shape[1]):
            pivot = diag[:, k] - off[:, k - 1] ** 2 / pivot
            negative += pivot < 0.0
            nonzero &= pivot != 0.0
    hg, ok = _band_solve(diag, off, g.transpose(0, 2, 1).copy())
    eig = np.linalg.eigvalsh(g @ hg)
    return ok & nonzero & (eig != 0.0).all(axis=1) & (negative == (eig < 0.0).sum(axis=1))


def _newton_batch(starts, ds, targets, max_iter=100):
    """Damped Newton on the KKT system of every row of starts (B, n+1) at once;
    returns the final thetas, each row's max|res| and its multipliers (B, 2).

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
    return thetas, nrm, lam


def _fit_c_const(th: np.ndarray, ds: float) -> float:
    """Least-squares C in theta''' + theta'^3/2 + C theta' = 0 on the interior grid."""
    d1 = (th[3:-1] - th[1:-3]) / (2.0 * ds)
    d3 = (th[4:] - 2.0 * th[3:-1] + 2.0 * th[1:-3] - th[:-4]) / (2.0 * ds**3)
    num = -float(np.dot(d3 + 0.5 * d1**3, d1))
    den = float(np.dot(d1, d1))
    return num / den if den > 0.0 else 0.0


def _span_starts(t0, t1, n):
    """The three start rows (n + 1 nodes each) of a span with unit end tangents
    t0, t1: the linear turning-angle ramp and its two 2 pi windings."""
    grid = np.linspace(0.0, 1.0, n + 1)
    th0 = math.atan2(t0[1], t0[0])
    th1 = th0 + _wrap_angle(math.atan2(t1[1], t1[0]) - th0)
    return np.array([th0 + (th1 + b - th0) * grid for b in (0.0, _TWO_PI, -_TWO_PI)])


def _clothoid_starts(windings, chords):
    """Per span, from its (3, n + 1) winding rows and its chord, the branch-0 clothoid
    between its end poses as a start row, and the index of the winding it turns on:
    theta0 + delta u + A (u^2 - u) on the grid, with the end angles phi0, phi1 wrapped
    against the chord, delta = phi1 - phi0 and A from one _clothoid_roots call (nan if none)."""
    psi = np.arctan2(chords[:, 1], chords[:, 0])
    phi0, phi1 = (_wrap_angle(windings[:, 0, e] - psi) for e in (0, -1))
    a = _clothoid_roots(phi0, phi1 - phi0)[0]
    b = np.argmin(np.abs(windings[..., -1] - windings[..., 0] - (phi1 - phi0)[:, None]), axis=1)
    grid = np.linspace(0.0, 1.0, windings.shape[-1])
    return windings[np.arange(len(b)), b] + a[:, None] * (grid * grid - grid), b


# rows per _newton_batch call: a batch holds about 30 temporaries of its size;
# 64 rows keep them near 1.5 MB, where one batch of 330 rows held 5 MB for 1.3x the speed
_BATCH_ROWS = 64


def _solve_rows(starts, targets, ds):
    """_newton_batch on the rows of starts, _BATCH_ROWS rows per call."""
    parts = [
        _newton_batch(starts[i : i + _BATCH_ROWS], ds, targets[i : i + _BATCH_ROWS])
        for i in range(0, len(starts), _BATCH_ROWS)
    ]
    return (np.concatenate(a) for a in zip(*parts))


def _energy_bound(thetas, ds):
    """The least energy of any row with these end angles, which Newton keeps:
    by Cauchy-Schwarz, sum(dtheta_i^2) / ds >= (theta_n - theta_0)^2 / (n ds)."""
    return (thetas[..., -1] - thetas[..., 0]) ** 2 / (ds * (thetas.shape[-1] - 1))


def _distinct_minima(thetas, residuals, ds):
    """Indices of the converged rows that are distinct minima, lowest energy
    first: a row counts unless it is within 1e-6 (max abs) of one kept, or
    the energy bound of its winding is not below the lowest energy."""
    converged = np.flatnonzero(residuals < ELASTICA_KKT)
    energies = [elastica_energy(thetas[j], ds) for j in converged]
    distinct = []
    for j in converged[np.argsort(energies, kind="stable")]:
        if distinct and _energy_bound(thetas[j], ds) >= min(energies):
            continue
        if all(np.max(np.abs(thetas[j] - thetas[k])) > 1e-6 for k in distinct):
            distinct.append(j)
    return distinct


def _elastica_spans(spans, length, n, name_spans=False):
    """The elastica of the given length for each span (p0, t0, p1, t1).

    No row of a winding branch goes below the branch's _energy_bound, so a
    branch is open only while its bound is below the span's lowest converged
    energy.  Phase 1 solves the ramp start of every span, then its open +-2
    pi windings.  Phase 2 solves the clothoid start of each span whose
    winding starts are inconclusive (none converged, they reached distinct
    minima, or the reduced Hessian at their minimum is not positive
    definite) if its branch is open, all from one _clothoid_starts call.
    Phase 3 continues the best row of each span with no converged row, up to
    3 times.  Each phase solves the rows of all its spans together, scaled to
    the unit length.  With name_spans, NoConvergence names the span.
    """
    ds = 1.0 / n
    segments, curved = [], []  # curved: (span index, p0, chord, t0, t1)
    for i, (p0, t0, p1, t1) in enumerate(spans):
        p0 = np.asarray(p0, dtype=float)
        chord = np.asarray(p1, dtype=float) - p0
        t0 = np.asarray(t0, dtype=float) / np.linalg.norm(t0)
        t1 = np.asarray(t1, dtype=float) / np.linalg.norm(t1)
        d = float(np.linalg.norm(chord))
        if length < d * (1.0 - 1e-12):
            raise Infeasible(f"length {length} shorter than chord {d}")
        if length <= d * (1.0 + 1e-12):  # taut, to rounding
            psi = math.atan2(chord[1], chord[0])
            phi0, phi1 = (_wrap_angle(math.atan2(t[1], t[0]) - psi) for t in (t0, t1))
            if max(abs(phi0), abs(phi1)) <= 1e-9:
                segments.append(ElasticaSegment(p0, np.full(n + 1, psi), length, 0.0))
                continue
            # a grid row from phi0 to phi1 is longer than its chord by about (phi0^2 + phi1^2) length / (8 n)
            # or more: end angles that need more than this 1e-12 d band holds are infeasible
            if (phi0 * phi0 + phi1 * phi1) * length / (8 * n) > 2e-12 * d:
                raise Infeasible("length equals chord but tangents are not aligned")
        segments.append(None)
        curved.append((i, p0, chord, t0, t1))
    if not curved:
        return segments
    chords = np.array([c[2] for c in curved]) / length
    windings = np.array([_span_starts(t0, t1, n) for *_, t0, t1 in curved])
    bounds = _energy_bound(windings, ds)
    rows = [[] for _ in curved]  # per span: (theta, residual, multipliers) of each row solved
    minima = [[] for _ in curved]

    def solve(jobs):
        """Solve the (span, start) jobs as one batch and file each row under its span."""
        if jobs:
            owner, starts = zip(*jobs)
            for k, *row in zip(owner, *_solve_rows(np.array(starts), chords[list(owner)], ds)):
                rows[k].append(row)
            for k in set(owner):
                th, res, _ = zip(*rows[k])
                minima[k] = _distinct_minima(np.array(th), np.array(res), ds)

    def open_branches():
        """(spans, 3) mask of the branches whose bound is below the lowest converged energy."""
        best = [elastica_energy(rows[k][m[0]][0], ds) if m else math.inf for k, m in enumerate(minima)]
        return bounds < np.array(best)[:, None]

    solve([(k, w[0]) for k, w in enumerate(windings)])
    solve([(k, windings[k][b + 1]) for k, b in zip(*np.nonzero(open_branches()[:, 1:]))])
    single = [k for k, m in enumerate(minima) if len(m) == 1]
    th, lam = (np.array([rows[k][minima[k][0]][v] for k in single]) for v in (0, 2))
    sure = dict(zip(single, _second_order_ok(th, lam, ds))) if single else {}
    retry = [k for k in range(len(curved)) if not sure.get(k, False)]
    keep, starts = open_branches(), zip(retry, *_clothoid_starts(windings[retry], chords[retry]))
    solve([(k, start) for k, start, b in starts if keep[k, b] and np.isfinite(start).all()])
    for _ in range(3):  # the slow-step rule can retire a row that would still converge
        stalled = [k for k, m in enumerate(minima) if not m]
        solve([(k, rows[k].pop(int(np.argmin([r[1] for r in rows[k]])))[0]) for k in stalled])
    for (i, p0, *_), found, m in zip(curved, rows, minima):
        if not m:
            best_res = float(min(r[1] for r in found))
            where = f"span {i}: " if name_spans else ""
            raise NoConvergence(
                f"{where}elastica boundary value problem did not converge "
                f"(best residual {best_res:.3e} over {len(found)} starts)",
                residual=best_res,
            )
        if len(m) > 1:
            warnings.warn(
                f"{len(m)} distinct elastica solutions; returning lowest energy",
                MultipleSolutionsWarning,
            )
        best = found[m[0]][0].copy()  # a copy: no segment keeps the batch
        segments[i] = ElasticaSegment(p0, best, length, _fit_c_const(best, ds) / length / length)
    return segments


def elastica_bvp(p0, t0, p1, t1, length: float, n: int = 64) -> ElasticaSegment:
    """Minimum-bending-energy curve of fixed length clamped at both poses.

    Solves the KKT system of the turning-angle discretization by damped
    Newton from the linear turning-angle ramp and from those of its +-2 pi
    windings whose energy bound is below the ramp's energy; the clothoid
    between the two poses runs only when these starts are inconclusive, and
    a start that stalls is continued (see _elastica_spans).  Distinct
    local minima on the windings that could hold the lowest energy trigger
    MultipleSolutionsWarning; the lowest-energy one is returned.
    """
    return _elastica_spans([(p0, t0, p1, t1)], length, n)[0]


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
    offset = np.sign(theta) * centered_vertex_offset(theta, rc.ell)  # AngleOutOfRange first at a turn of pi
    tv = (e0 + e1) / np.linalg.norm(e0 + e1, axis=1)[:, None]
    points = pts[v] + offset[:, None] * _rot90(tv)
    if rc.closed:
        return points, tv
    ends = pts[[1, -1]] - pts[[0, -2]]
    ends = ends / np.linalg.norm(ends, axis=1)[:, None]
    return np.vstack([pts[:1], points, pts[-1:]]), np.vstack([ends[:1], tv, ends[1:]])


def spline_centered(rc: RefinedCurve, n: int = 64) -> Spline:
    """Length-preserving elastica spline through centered offset points.

    The spline passes through centered_nodes(rc) along their directions,
    and each span gets an elastica of length exactly 2*ell; the spans are
    solved together, each as in elastica_bvp.
    """
    _require_planar(rc.points)
    validate_refined(rc)
    points, dirs = centered_nodes(rc)
    spans = list(zip(points, dirs, np.roll(points, -1, axis=0), np.roll(dirs, -1, axis=0)))
    spans = spans if rc.closed else spans[:-1]
    segments = _elastica_spans(spans, 2.0 * rc.ell, n, name_spans=True)
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
