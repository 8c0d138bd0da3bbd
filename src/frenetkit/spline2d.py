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
from dataclasses import dataclass, fields

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


def _angles(v: np.ndarray) -> np.ndarray:
    """The angle of each vector (x, y) along the last axis of v."""
    return np.arctan2(v[..., 1], v[..., 0])


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
    xy.reshape(-1, 2)[order] = _clothoid_runs(theta0, kappa0, a, s.ravel()[order], [0])
    return xy


def _clothoid_runs(theta0, kappa0, a, s, first):
    """Displacements along clothoids at the arc lengths s: one clothoid per run of
    sorted samples, each run starting at an index in first; theta0, kappa0 and a
    are floats or given per sample.  The phase integral is taken over each nonzero
    gap between samples, all in one _phase_integrals call, and summed in order per run."""
    t = np.concatenate([[0.0], s[:-1]])  # each row integrates from t over the gap h
    t[first] = 0.0
    h = s - t
    c, gap = (theta0 + t * (kappa0 + 0.5 * a * t), (kappa0 + a * t) * h, 0.5 * a * h * h), h != 0.0
    steps = np.zeros((len(s), 2))
    steps[gap] = h[gap, None] * _phase_integrals(*(v[gap] for v in c))[:, :2]
    return np.concatenate([np.cumsum(run, axis=0) for run in np.split(steps, first[1:])])


# ---------------------------------------------------------------------------
# segments: each kind a dataclass, and a row view of its kind's table in a Spline


class _Segment:
    def energy(self) -> float:
        """The bending energy, as Spline.energy takes it from the segment tables."""
        return Spline((self,)).energy()


@dataclass(frozen=True)
class LineSegment(_Segment):
    start: np.ndarray
    direction: np.ndarray  # unit
    length: float

    def point_at(self, s: float) -> np.ndarray:
        return self.start + s * self.direction

    def angle_at(self, s: float) -> float:
        return float(np.arctan2(self.direction[1], self.direction[0]))


@dataclass(frozen=True)
class ArcSegment(_Segment):
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
class ClothoidSegment(_Segment):
    start: np.ndarray
    start_angle: float
    kappa0: float
    sharpness: float  # d kappa / d s
    length: float

    def point_at(self, s) -> np.ndarray:
        return self.start + clothoid_xy(self.kappa0, self.sharpness, self.start_angle, s)

    def angle_at(self, s: float) -> float:
        return self.start_angle + self.kappa0 * s + 0.5 * self.sharpness * s * s


@dataclass(frozen=True)
class ElasticaSegment(_Segment):
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


Segment = LineSegment | ArcSegment | ClothoidSegment | ElasticaSegment


def _end_angles(kind, c) -> np.ndarray:
    """(start, end) tangent angle of each row of a table of kind, as angle_at gives them."""
    if kind is LineSegment:
        return np.repeat(_angles(c["direction"])[:, None], 2, axis=1)
    if kind is ElasticaSegment:  # np.interp returns the end nodes themselves
        return c["thetas"][:, [0, -1]]
    a0, s = c["start_angle"][:, None], np.column_stack([np.zeros(len(c["length"])), c["length"]])
    if kind is ArcSegment:
        return a0 + c["sweep"][:, None] * s / c["length"][:, None] + np.copysign(math.pi / 2.0, c["sweep"])[:, None]
    return a0 + c["kappa0"][:, None] * s + 0.5 * c["sharpness"][:, None] * s * s


def _energies(kind, c):
    """Bending energy of each row of a table of kind.  An arc (a = 0, kappa0 = 1 / radius)
    and a clothoid take int_0^L (kappa0 + a s)^2 ds in the scale-free form
    (v^2 + v u + u^2 / 3) / L, v = kappa0 L and u = a L^2: |v| and |u| are at most
    twice the turning, so no term overflows for any length or radius in SPLINE_RANGE."""
    if kind is LineSegment:
        return 0.0
    if kind is ElasticaSegment:
        return elastica_energy(c["thetas"], c["length"] / (c["thetas"].shape[1] - 1))
    L = c["length"]
    v, u = (L / c["radius"], 0.0) if kind is ArcSegment else (c["kappa0"] * L, c["sharpness"] * L * L)
    return (v * v + v * u + u * u / 3.0) / L


def _table(kind, rows, **cols) -> tuple:
    return kind, np.asarray(rows, dtype=np.intp), {f.name: np.asarray(cols[f.name], float) for f in fields(kind)}


class Spline:
    """Ordered G1 segments, held as tables (kind, rows, cols): per segment class
    kind, and per grid size of elastica, the positions rows of its segments in
    the spline, ascending, and the class's fields as columns cols, one row per
    segment.  Spline(segments) gathers the tables of segment objects, and the
    solvers pass their own.  segments, the segment objects in order, are views
    of the table rows made on first use; sampler is the spline's polyline_sampler."""

    def __init__(self, segments=(), closed: bool = False, tables=None):
        if tables is None:
            self.segments = segs = tuple(segments)
            groups = {}  # the positions of the segments of each class and grid size
            for i, seg in enumerate(segs):
                groups.setdefault((type(seg), len(getattr(seg, "thetas", ()))), []).append(i)
            tables = [_table(kind, rows, **{f.name: [getattr(segs[i], f.name) for i in rows] for f in fields(kind)})
                      for (kind, _), rows in groups.items()]
        self.tables, self.closed = [t for t in tables if len(t[1])], closed

    def __len__(self) -> int:
        return sum(len(rows) for _, rows, _ in self.tables)

    @functools.cached_property
    def segments(self) -> tuple:
        out = [None] * len(self)
        for kind, rows, cols in self.tables:
            for i, *values in zip(rows.tolist(), *(c.tolist() if c.ndim == 1 else c for c in cols.values())):
                out[i] = kind(*values)
        return tuple(out)

    @functools.cached_property
    def sampler(self):
        return polyline_sampler(self)

    def in_order(self, per_table, *shape) -> np.ndarray:
        """per_table(kind, cols) of every table, a value (of the given shape) per segment, in order."""
        out = np.empty((len(self), *shape))
        for kind, rows, cols in self.tables:
            out[rows] = per_table(kind, cols)
        return out

    def total_length(self) -> float:
        return float(sum(self.in_order(lambda kind, c: c["length"]).tolist()))

    def energy(self) -> float:
        return float(sum(self.in_order(_energies).tolist()))


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


def polyline_sampler(spline):
    """A function of a chord tolerance tol that returns the spline's polylines as (points,
    starts): segment i's, from its start to its end point, is points[starts[i] : starts[i + 1]].
    Arc and clothoid chords stray at most tol from the curve, and are the chords themselves at
    an infinite tol, which are sampled once, here, and kept; with arcs false, arcs are their
    chords.  Lines and elastica give fixed polylines, no larger than their segments.  All arcs
    are sampled as one angle array and all clothoids with one _phase_integrals call.  InputError
    if the segments sampled would take over MAX_SAMPLES points between their end points."""
    # (the segment of each point, points) of the lines and elastica, after an empty one; the arc and clothoid tables
    fixed, curved = [(np.zeros(0, np.intp), np.zeros((0, 2)))], []
    for kind, rows, c in spline.tables:
        if kind is ElasticaSegment or kind is LineSegment:
            nodes = (_elastica_nodes(c["start"], c["thetas"], c["length"]) if kind is ElasticaSegment
                     else np.stack([c["start"], c["start"] + c["length"][:, None] * c["direction"]], 1))
            fixed.append((np.repeat(rows, nodes.shape[1]), nodes.reshape(-1, 2)))
        else:
            curved.append((kind, rows, c))

    def sample(tol: float, tables: list) -> list:
        """(the segment of each point, points) of each of the arc and clothoid tables at tol."""
        counts = []  # points per arc or clothoid, and per table
        with np.errstate(over="ignore"):  # a tol that overflows against a curvature needs one chord
            for kind, _, c in tables:
                if kind is ArcSegment:
                    n = np.abs(c["sweep"]) / np.maximum(2.0 * np.sqrt(2.0 * tol / c["radius"]), 1e-6)
                else:
                    k0, k1 = np.abs(c["kappa0"]), np.abs(c["kappa0"] + c["sharpness"] * c["length"])
                    n = c["length"] / np.sqrt(8.0 * tol / np.maximum(np.maximum(k0, k1), 1e-9))
                counts.append(np.maximum(np.ceil(n) + 1.0, 2.0))
        total = sum(n.sum() for n in counts)
        # two end points per segment are no more than the segments hold: only the samples between them count
        if not total - 2.0 * sum(map(len, counts)) <= MAX_SAMPLES:
            raise InputError(f"drawing the spline needs {total:.6g} points, over the limit of {MAX_SAMPLES}")
        out = []
        for (kind, rows, c), n in zip(tables, counts):
            s, first, rep = _grid(c["length"], n)
            if kind is ArcSegment:
                a = rep(c["start_angle"]) + rep(c["sweep"]) * s / rep(c["length"])
                pts = rep(c["center"]) + rep(c["radius"])[:, None] * np.stack([np.cos(a), np.sin(a)], -1)
            else:
                runs = _clothoid_runs(rep(c["start_angle"]), rep(c["kappa0"]), rep(c["sharpness"]), s, first)
                pts = rep(c["start"]) + runs
            out.append((rep(rows), pts))
        return out

    def join(tables: list) -> tuple:
        """(points, starts) of the spline from (the segment of each point, points) of every table."""
        owner, points = (np.concatenate(v) for v in zip(*tables))
        order = np.argsort(owner, kind="stable")
        return points.take(order, axis=0), np.searchsorted(owner[order], np.arange(len(spline) + 1))

    whole = join(fixed + sample(math.inf, curved))
    arc_tables, clothoids = ([table for table in curved if table[0] is kind] for kind in (ArcSegment, ClothoidSegment))
    # where no table is sampled at tol (lines, elastica, and arcs when arcs is false), the polylines are the chords
    return lambda tol, arcs=True: (whole if tol == math.inf or not (curved if arcs else clothoids) else
                                   join(fixed + sample(tol, curved)) if arcs else
                                   join(fixed + sample(math.inf, arc_tables) + sample(tol, clothoids)))


def g1_defects(spline: Spline):
    """(max position gap, max tangent-angle gap in radians) at the joints: the
    gaps between the chords of spline.sampler and between its end angles."""
    joints = len(spline) if spline.closed and len(spline) > 1 else len(spline) - 1
    if joints < 1:
        return 0.0, 0.0
    points, starts = spline.sampler(math.inf)
    # a segment's end point against the next one's start point (the first segment's after the last)
    gaps = points[starts[1 : joints + 1] - 1] - points[starts[1 : joints + 1] % len(points)]
    # the norm squares the gaps: scaled by a power of two (exactly), gaps near the underflow keep their squares
    e = int(np.frexp(np.max(np.abs(gaps)))[1])
    pos = float(np.ldexp(np.max(np.linalg.norm(np.ldexp(gaps, -e), axis=1)), e))
    angles = spline.in_order(_end_angles, 2)
    return pos, float(np.max(np.abs(_wrap_angle(angles[:joints, 1] - np.roll(angles[:, 0], -1)[:joints]))))


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
    return v, e0, e1, _signed_angles(_embed3(e0).T, _embed3(e1).T, _EZ[:, None])


def _arc_table(rows, p, direction, kappa, length) -> tuple:
    """The arcs at positions rows that start at the points p along the unit
    directions, with curvatures kappa and the given lengths (rows of arrays).
    Each keeps |sweep| * radius as its length, as an ArcSegment read from a file does."""
    center = p + _rot90(direction) / kappa[:, None]
    radius, sweep = 1.0 / np.abs(kappa), kappa * length
    return _table(ArcSegment, rows, center=center, radius=radius, start_angle=_angles(p - center), sweep=sweep,
                  length=np.abs(sweep) * radius)


def spline_inscribed(rc: RefinedCurve) -> Spline:
    """One arc per vertex, tangent to both adjacent edges at their midpoints: a
    line at a vertex that does not turn, and along each half edge at an open end."""
    _require_planar(rc.points)
    validate_refined(rc)
    pts, n = rc.points, len(rc.points)
    v, e0, _, theta = _vertex_turns(rc)
    head, tail = (int(not rc.closed and rc.is_vertex(k)) for k in (0, n - 1))
    flat = np.abs(theta) < 1e-12
    # lines from pts[i] to pts[j]: the first half edge, the vertices that do not turn, the last half edge
    i = np.concatenate([np.zeros(head, np.intp), (v[flat] - 1) % n, np.full(tail, n - 2)])
    j = np.concatenate([np.ones(head, np.intp), (v[flat] + 1) % n, np.full(tail, n - 1)])
    chord = pts[j] - pts[i]
    d = np.linalg.norm(chord, axis=1)
    length = np.concatenate([[rc.ell] * head, d[head : len(d) - tail], [rc.ell] * tail])
    rows = np.concatenate([np.zeros(head, np.intp), np.flatnonzero(flat) + head, np.full(tail, len(v) + head)])
    lines = _table(LineSegment, rows, start=pts[i], direction=chord / d[:, None], length=length)
    k = np.flatnonzero(~flat)
    kappa = np.tan(theta[k] / 2.0) / rc.ell
    arcs = _arc_table(k + head, pts[(v[k] - 1) % n], e0[k], kappa, np.abs(theta[k]) / np.abs(kappa))
    return Spline(tables=(lines, arcs), closed=rc.closed)


# ---------------------------------------------------------------------------
# clothoid G1 fitting (circumscribed splining)

_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance
_CELL_NODES = np.linspace(0.0, 1.0, 65)  # each round splits a bracket into 64 equal cells
_CLOTHOID_NEWTON_STEPS = 200  # Newton steps of _clothoid_roots before the rows it leaves go to _bracket_roots


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


def _clothoid_roots(phi0, delta, max_iter: int = _CLOTHOID_NEWTON_STEPS):
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


def _fit_spans(p0, t0, p1, t1) -> tuple:
    """clothoid_g1_fit of each row of the (m, 2) arrays p0, t0, p1, t1, with the
    fitting equations of all rows solved together and one quadrature checking
    every end pose.  NoConvergence names the first row that fails.

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
    p0, t0, p1, t1, chord, d, psi, phi0, phi1 = _poses(p0, t0, p1, t1, "fit")
    check_edge_lengths(d, "fit chord length")  # past it, the sharpness 2A/L^2 is no normal double
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
    turn = _wrap_angle(theta0 + c1 + c2 - _angles(t1[rows]))
    residual = np.where(found, np.linalg.norm(end - p1[rows], axis=1) + np.abs(turn), math.nan)
    if (bad := np.flatnonzero(~(residual <= CLOTHOID_FIT * np.maximum(1.0, d[rows])))).size:
        r = None if math.isnan(residual[bad[0]]) else float(residual[bad[0]])
        msg = "clothoid fitting equation has no admissible root"
        msg = msg if r is None else f"fitted clothoid misses the end pose by {r:.3e}"
        raise NoConvergence(f"segment {rows[bad[0]]}: {msg}", residual=r)
    lines, arcs = np.flatnonzero(line), np.flatnonzero(arc)
    sweep = (phi1 - phi0)[arcs]
    arc_length = d[arcs] * (sweep / 2.0) / np.sin(sweep / 2.0)
    return (
        _table(LineSegment, lines, start=p0[lines], direction=chord[lines] / d[lines, None], length=d[lines]),
        _arc_table(arcs, p0[arcs], t0[arcs], sweep / arc_length, arc_length),
        _table(ClothoidSegment, rows, start=p0[rows], start_angle=theta0, kappa0=kappa0, sharpness=sharp,
               length=length),
    )


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
    return Spline(tables=_fit_spans(p0, t0, p1, t1)).segments[0]


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
    return Spline(tables=_fit_spans(pts[i], tangents[i], pts[j], tangents[j]), closed=dc.closed)


# ---------------------------------------------------------------------------
# elastica (centered splining); the helpers take thetas (n+1,) or rows (B, n+1)

_KKT_NEWTON_STEPS = 100  # Newton steps per row of _newton_batch


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


def elastica_energy(thetas: np.ndarray, ds: float):
    """Bending energy sum(dtheta^2) / ds: a float for one row, an array for stacked rows."""
    d = np.diff(thetas)
    e = np.sum(d * d, axis=-1) / ds
    return float(e) if e.ndim == 0 else e


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
    cells = _cell_arrays(thetas)
    gx, gy = _constraint_grad(thetas, ds, cells)
    dx, ex, dy, ey = _constraint_hessians(thetas, ds, cells)
    # energy Hessian: tridiagonal (4, -2, -2)/ds on interior nodes
    diag = 4.0 / ds + lam[:, :1] * dx[:, 1:-1] + lam[:, 1:] * dy[:, 1:-1]
    off = np.zeros((len(thetas), n_int))  # the last column couples a row to the next: zero
    off[:, :-1] = -2.0 / ds + lam[:, :1] * ex[:, 1:-1] + lam[:, 1:] * ey[:, 1:-1]
    g = np.stack([gx[:, 1:-1], gy[:, 1:-1]], axis=1)  # the constraint Jacobian, B x 2 x interior nodes
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


def _newton_batch(starts, ds, targets, max_iter: int = _KKT_NEWTON_STEPS):
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


def _fit_c_const(th: np.ndarray, ds: float) -> np.ndarray:
    """Least-squares C in theta''' + theta'^3/2 + C theta' = 0 on the interior grid of each row
    of th (m, n+1)."""
    d1 = (th[:, 3:-1] - th[:, 1:-3]) / (2.0 * ds)
    d3 = (th[:, 4:] - 2.0 * th[:, 3:-1] + 2.0 * th[:, 1:-3] - th[:, :-4]) / (2.0 * ds**3)
    num, den = -np.sum((d3 + 0.5 * d1**3) * d1, axis=1), np.sum(d1 * d1, axis=1)
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)


def _poses(p0, t0, p1, t1, what: str):
    """The poses (p0, t0) to (p1, t1) as (m, 2) float arrays with unit tangents, the
    chords p1 - p0, their lengths d and angles psi, and the tangents' angles phi0, phi1
    to the chords, wrapped to [-pi, pi).  InputError, named by what, unless every
    tangent's norm is positive and finite.  d is np.linalg.norm's, or hypot where the
    squares are no normal doubles, which the norm would overflow or round."""
    p0, t0, p1, t1 = (np.array(v, dtype=float, ndmin=2) for v in (p0, t0, p1, t1))
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and a chord's raises in the caller
        norms = np.linalg.norm([t0, t1], axis=2)
        if not ((0.0 < norms) & (norms < math.inf)).all():
            raise InputError(f"{what} tangents must be nonzero with a finite norm")
        t0, t1, chord = t0 / norms[0, :, None], t1 / norms[1, :, None], p1 - p0
        d = np.linalg.norm(chord, axis=1)
        odd = ~((2.0**-500 < d) & (d < 2.0**500))
        d[odd] = np.hypot(*chord[odd].T)
    psi = _angles(chord)
    phi0, phi1 = (_wrap_angle(_angles(t) - psi) for t in (t0, t1))
    return p0, t0, p1, t1, chord, d, psi, phi0, phi1


def _span_starts(t0, t1, n):
    """The three start rows (m, 3, n + 1) of spans with unit end tangents t0, t1 (m, 2):
    the linear turning-angle ramp and its two 2 pi windings."""
    grid = np.linspace(0.0, 1.0, n + 1)
    th0 = _angles(t0)[:, None, None]
    th1 = th0 + _wrap_angle(_angles(t1)[:, None, None] - th0)
    return th0 + (th1 + np.array([0.0, _TWO_PI, -_TWO_PI])[:, None] - th0) * grid


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


def _energy_bound(thetas, ds):
    """The least energy of any row with these end angles, which Newton keeps:
    by Cauchy-Schwarz, sum(dtheta_i^2) / ds >= (theta_n - theta_0)^2 / (n ds)."""
    return (thetas[..., -1] - thetas[..., 0]) ** 2 / (ds * (thetas.shape[-1] - 1))


def _distinct_minima(thetas, energies, ds):
    """Indices of the converged rows (finite energies) that are distinct minima,
    lowest energy first: a row counts unless it is within 1e-6 (max abs) of one
    kept, or the energy bound of its winding is not below the lowest energy."""
    distinct = []
    for j in np.argsort(energies, kind="stable")[: np.isfinite(energies).sum()]:
        if distinct and _energy_bound(thetas[j], ds) >= energies.min():
            continue
        if all(np.max(np.abs(thetas[j] - thetas[k])) > 1e-6 for k in distinct):
            distinct.append(j)
    return distinct


def _elastica_spans(p0, t0, p1, t1, length, n):
    """The elastica of the given length for each span from pose (p0, t0) to
    (p1, t1), rows of (m, 2) arrays.

    No row of a winding branch goes below the branch's _energy_bound, so a
    branch is open only while its bound is below the span's lowest converged
    energy.  Each span has four start rows: its linear turning-angle ramp and
    the ramp's +-2 pi windings, of which the one its branch-0 clothoid turns
    on is replaced by that clothoid where it has one (one _clothoid_starts
    call for all spans), and the ramp again.  Phase 1 solves row 0 of every
    span, then its open +-2 pi rows.  Phase 2 solves the ramp of each span
    whose clothoid replaced it and which has no converged row.  Phase 3
    continues the best row of each span with no converged row, up to 3 times.
    Each phase solves its rows of all spans together, in place in one
    (spans, 4, n + 1) table, scaled to the unit length.  Input that is not a
    pose, a length or a grid raises InputError before any solve.
    NoConvergence names the span.
    """
    if n < 16:
        raise InputError("elastica segment needs at least 16 grid cells")
    if not 0.0 < length < math.inf:
        raise InputError(f"elastica length must be positive and finite, got {length}")
    p0, t0, p1, t1, chord, d, psi, phi0, phi1 = _poses(p0, t0, p1, t1, "elastica")
    if not (np.isfinite(p0).all() and np.isfinite(p1).all()):
        raise InputError("elastica end points must be finite")
    if not (d < math.inf).all():
        raise InputError("elastica chord p1 - p0 must have a finite length")
    ds = 1.0 / n
    short = length < d * (1.0 - 1e-12)
    taut = length <= d * (1.0 + 1e-12)  # to rounding
    straight = taut & (np.maximum(np.abs(phi0), np.abs(phi1)) <= 1e-9)
    # a grid row from phi0 to phi1 is longer than its chord by about (phi0^2 + phi1^2) length / (8 n)
    # or more: end angles that need more than this 1e-12 d band holds are infeasible
    bent = taut & ~straight & ((phi0 * phi0 + phi1 * phi1) * length / (8 * n) > 2e-12 * d)
    if (bad := np.flatnonzero(short | bent)).size:
        i = bad[0]
        if short[i]:
            raise Infeasible(f"length {length} shorter than chord {float(d[i])}")
        raise Infeasible("length equals chord but tangents are not aligned")
    thetas = np.repeat(psi[:, None], n + 1, axis=1)  # the straight spans keep these
    c_const = np.zeros(len(p0))
    curved = np.flatnonzero(~straight)
    chords = chord[curved] / length
    windings = _span_starts(t0[curved], t1[curved], n)
    clothoids, turn = _clothoid_starts(windings, chords)
    swap = np.isfinite(clothoids).all(axis=1)  # spans whose clothoid replaces the winding it turns on
    th = np.concatenate([windings, windings[:, :1]], axis=1)  # rows 0-2 the starts, row 3 the ramp
    th[swap, turn[swap]] = clothoids[swap]
    res, energy = np.full((2, len(th), 4), math.inf)  # inf: not solved; for energy, also not converged

    def solve(k, row):
        """Continue row[i] of span k[i] for each i in place, _BATCH_ROWS rows per _newton_batch call."""
        k, row = np.broadcast_arrays(k, row)
        for i in range(0, len(k), _BATCH_ROWS):
            b = k[i : i + _BATCH_ROWS], row[i : i + _BATCH_ROWS]
            th[b], res[b], _ = _newton_batch(th[b], ds, chords[b[0]])
        energy[k, row] = np.where(res[k, row] < ELASTICA_KKT, elastica_energy(th[k, row], ds), math.inf)

    solve(np.arange(len(th)), 0)
    k, b = np.nonzero(_energy_bound(windings[:, 1:], ds) < energy.min(1)[:, None])
    solve(k, b + 1)
    solve(np.flatnonzero(swap & (turn == 0) & (energy.min(1) == math.inf)), 3)  # the ramp the clothoid replaced
    for _ in range(3):  # the slow-step rule can retire a row that would still converge
        stalled = np.flatnonzero(energy.min(1) == math.inf)
        solve(stalled, res[stalled].argmin(1))
    failed = np.flatnonzero(energy.min(1) == math.inf)
    stop = failed[0] if failed.size else len(th)
    for k in np.flatnonzero(np.isfinite(energy[:stop]).sum(1) > 1):
        if (count := len(_distinct_minima(th[k], energy[k], ds))) > 1:
            warnings.warn(f"{count} distinct elastica solutions; returning lowest energy", MultipleSolutionsWarning)
    if failed.size:
        best_res = float(res[stop].min())
        raise NoConvergence(
            f"span {curved[stop]}: elastica boundary value problem did not converge "
            f"(best residual {best_res:.3e} over {np.isfinite(res[stop]).sum()} starts)",
            residual=best_res,
        )
    best = th[np.arange(len(th)), energy.argmin(1)]
    thetas[curved], c_const[curved] = best, _fit_c_const(best, ds) / length / length
    return (_table(ElasticaSegment, np.arange(len(p0)), start=p0, thetas=thetas, length=np.full(len(p0), length),
                   c_const=c_const),)


def elastica_bvp(p0, t0, p1, t1, length: float, n: int = 64) -> ElasticaSegment:
    """Minimum-bending-energy curve of fixed length clamped at both poses.

    Solves the KKT system of the turning-angle discretization on n cells by
    damped Newton from the clothoid between the poses and the other start
    rows of _elastica_spans.  Distinct local minima on the windings that
    could hold the lowest energy trigger MultipleSolutionsWarning; the
    lowest-energy one is returned.  A malformed pose, length or n raises
    InputError before any solve.
    """
    return Spline(tables=_elastica_spans(p0, t0, p1, t1, length, n)).segments[0]


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
    i = np.arange(len(points) if rc.closed else len(points) - 1)
    j = (i + 1) % len(points)
    tables = _elastica_spans(points[i], dirs[i], points[j], dirs[j], 2.0 * rc.ell, n)
    return Spline(tables=tables, closed=rc.closed)


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
