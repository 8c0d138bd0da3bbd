"""The three canonical discretizations of a smooth planar curve.

* inscribed      -- sample points on the curve itself
* circumscribed  -- intersect consecutive tangent lines, edges touch the curve
* centered       -- offset arc-length samples and insert vertices so that the
                    polyline has exactly the length of the curve

Smooth curves are arc-length parametrized; the built-ins that are not
naturally arc-length parametrized (ellipse, sine arc) get a numeric
reparametrization accurate to ~1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import MAX_SAMPLES
from .curve_core import DiscreteCurve, RefinedCurve, check_edge_lengths
from .errors import (
    InfinitelyManyInflections,
    InputError,
    MissingInflectionSample,
    MTooSmall,
    NonConvexCurve,
    OutOfDomain,
    ParallelTangents,
)
from .ngon_circle import centered_offset, centered_offset_exact
from .spline2d import _rot90, check_clothoid_size, clothoid_xy, refine_roots

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_BLOCK = 256  # cells per quadrature block: the (block, 16) temporaries stay ~32 KB
_CELLS = 2048  # quadrature cells of the arc-length table
MAX_INFLECTIONS = 64  # more sign changes of the curvature than this count as infinitely many


@dataclass(frozen=True)
class SmoothCurve:
    """Arc-length parametrized planar curve on s in [0, length].

    ``point``/``tangent``/``curvature`` take arc length s, a float or an array,
    and return shapes ``s.shape + (2,)``, ``s.shape + (2,)`` and ``s.shape``;
    the tangent is unit and curvature is signed (positive = turning left).
    ``parametric`` is (t0, t1, numerator, s_of_t) for a curve on a parameter t other
    than s: numerator(t) has the curvature's sign, and s_of_t(t) is the arc length.
    """

    point: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]
    length: float
    closed: bool = False
    parametric: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise InputError(f"curve length must be positive and finite, got {self.length}")
        if self.length < np.finfo(float).tiny:  # arc-length interpolation overflows below it
            raise InputError(f"curve length {self.length} is subnormal")


def _check_params(positive, **values):
    """Every value must be finite, and those named in positive also > 0."""
    for name, v in values.items():
        if not math.isfinite(v) or (name in positive and v <= 0.0):
            kind = "positive and finite" if name in positive else "finite"
            raise InputError(f"{name} must be {kind}, got {v}")


class _ArcLengthParam:
    """Numeric arc-length reparametrization of a regular parametric curve.

    t_of_s keeps its last input and result: the discretizations ask point, tangent and
    curvature at one sample array in turn, and invert its arc lengths once.
    """

    def __init__(self, deriv, t0, t1):
        self.deriv = deriv
        self.t0 = t0
        self.t1 = t1
        self.grid = np.linspace(t0, t1, _CELLS + 1)
        with np.errstate(over="ignore"):  # an overflowing length fails SmoothCurve's finite-length check
            self.cum = np.concatenate([[0.0], np.cumsum(self._cells(self.grid[:-1], self.grid[1:]))])
        self.length = float(self.cum[-1])
        self._last = (None, None)  # (a copy of s, t_of_s(s)) of the last call; t never leaves this module

    def _cells(self, a, b):
        """16-node Gauss-Legendre speed integrals over the cells [a, b], elementwise."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        out = np.empty_like(mid)
        for i in range(0, out.size, _BLOCK):
            m, h = mid.flat[i : i + _BLOCK], half.flat[i : i + _BLOCK]
            t = m[:, None] + h[:, None] * _GL_NODES
            out.flat[i : i + _BLOCK] = h * (np.hypot(*self.deriv(t)) @ _GL_WEIGHTS)
        return out

    def s_of_t(self, t):
        j = np.clip(np.searchsorted(self.grid, t) - 1, 0, len(self.grid) - 2)
        return self.cum[j] + self._cells(self.grid[j], t)

    def t_of_s(self, s):
        last_s, last_t = self._last
        if last_s is not None and np.shape(s) == last_s.shape and np.array_equal(s, last_s):
            return last_t
        key = np.array(s, dtype=float)
        s = np.clip(key, 0.0, self.length)
        t = np.interp(s, self.cum, self.grid)
        for _ in range(4):
            t = np.clip(t - (self.s_of_t(t) - s) / np.hypot(*self.deriv(t)), self.t0, self.t1)
        self._last = (key, t)
        return t


def _from_parametric(pos, deriv, deriv2, t0, t1, closed) -> SmoothCurve:
    param = _ArcLengthParam(deriv, t0, t1)

    def point(s):
        return np.stack(pos(param.t_of_s(s)), axis=-1)

    def tangent(s):
        dx, dy = deriv(param.t_of_s(s))
        n = np.hypot(dx, dy)
        return np.stack([dx / n, dy / n], axis=-1)

    def numerator(t):  # the curvature times the squared speed, and the speed
        (dx, dy), (ddx, ddy) = deriv(t), deriv2(t)
        n = np.hypot(dx, dy)
        return dx / n * ddy - dy / n * ddx, n

    def curvature(s):
        k, n = numerator(param.t_of_s(s))
        with np.errstate(over="ignore"):  # n**3 overflows where the curvature does not; this only where it does
            return k / n / n

    form = (t0, t1, lambda t: numerator(t)[0], param.s_of_t)
    return SmoothCurve(point, tangent, curvature, param.length, closed, form)


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> SmoothCurve:
    cx, cy = center
    _check_params(("radius",), radius=radius, cx=cx, cy=cy)
    length = 2.0 * math.pi * radius

    def point(s):
        a = np.asarray(s, dtype=float) / radius
        return np.stack([cx + radius * np.cos(a), cy + radius * np.sin(a)], axis=-1)

    def tangent(s):
        a = np.asarray(s, dtype=float) / radius
        return np.stack([-np.sin(a), np.cos(a)], axis=-1)

    return SmoothCurve(point, tangent, lambda s: np.full(np.shape(s), 1.0 / radius), length, closed=True)


def ellipse(a: float = 2.0, b: float = 1.0) -> SmoothCurve:
    _check_params(("a", "b"), a=a, b=b)
    return _from_parametric(
        lambda t: (a * np.cos(t), b * np.sin(t)),
        lambda t: (-a * np.sin(t), b * np.cos(t)),
        lambda t: (-a * np.cos(t), -b * np.sin(t)),
        0.0,
        2.0 * math.pi,
        closed=True,
    )


def sine_arc(amplitude: float = 1.0, x_max: float = 2.0 * math.pi) -> SmoothCurve:
    _check_params(("x_max",), amplitude=amplitude, x_max=x_max)
    return _from_parametric(
        lambda t: (t, amplitude * np.sin(t)),
        lambda t: (np.ones_like(np.asarray(t, dtype=float)), amplitude * np.cos(t)),
        lambda t: (np.zeros_like(np.asarray(t, dtype=float)), -amplitude * np.sin(t)),
        0.0,
        x_max,
        closed=False,
    )


def clothoid_arc(kappa0: float = 0.1, sharpness: float = 0.2, length: float = 5.0) -> SmoothCurve:
    _check_params(("length",), kappa0=kappa0, sharpness=sharpness, length=length)
    check_clothoid_size(kappa0, sharpness, length)

    def point(s):
        return clothoid_xy(kappa0, sharpness, 0.0, s)

    def tangent(s):
        th = kappa0 * s + 0.5 * sharpness * s * s
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    return SmoothCurve(point, tangent, lambda s: kappa0 + sharpness * np.asarray(s, dtype=float), length)


BUILTIN_CURVES = {
    "circle": circle,
    "ellipse": ellipse,
    "sine": sine_arc,
    "clothoid": clothoid_arc,
}


def _check_samples(c: SmoothCurve, samples) -> np.ndarray:
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or len(s) < 2:
        raise InputError("need at least two strictly increasing samples")
    if np.any(np.diff(s) <= 0.0):
        raise InputError("samples must be strictly increasing")
    if s[0] < -1e-12 or s[-1] > c.length + 1e-9:
        raise OutOfDomain(f"samples must lie within [0, {c.length}]")
    tol = 1e-9 * min(c.length, 1.0)
    if c.closed and s[-1] >= s[0] + c.length - tol:  # would repeat the first vertex
        raise OutOfDomain(f"closed curve: last sample {s[-1]} within {tol:.3g} of s[0] + length")
    return s


def uniform_samples(c: SmoothCurve, n: int) -> np.ndarray:
    """n equal arc-length samples (closed: spacing L/n; open: including both ends)."""
    if n < 0:
        raise InputError(f"sample count must be non-negative, got {n}")
    if n > MAX_SAMPLES:
        raise InputError(f"sample count {n} exceeds the limit of {MAX_SAMPLES}")
    return np.linspace(0.0, c.length, n, endpoint=not c.closed)


def discretize_inscribed(c: SmoothCurve, samples) -> DiscreteCurve:
    """Vertices on the curve at the given arc-length samples."""
    s = _check_samples(c, samples)
    return DiscreteCurve(c.point(s), closed=c.closed)


def find_inflections(c: SmoothCurve) -> np.ndarray:
    """Arc-length parameters where the signed curvature changes sign, read on the curve's parameter.

    A zero of the curvature's numerator on a 4096-point grid of the parameter is a
    root; every grid cell whose ends change sign is refined to 1e-13 in the
    parameter, all cells in one refine_roots call.
    """
    t0, t1, numerator, s_of_t = c.parametric or (0.0, c.length, c.curvature, np.asarray)
    grid = np.linspace(t0, t1, 4096)
    sign = np.sign(numerator(grid))
    hits = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
    if len(hits) > MAX_INFLECTIONS:
        raise InfinitelyManyInflections(f"more than {MAX_INFLECTIONS} inflections detected")
    roots = grid[hits]
    change = sign[hits] != 0.0
    if change.any():
        roots[change] = refine_roots(numerator, grid[hits[change]], grid[hits[change] + 1], 1e-13)
    if sign[-1] == 0.0:
        roots = np.append(roots, grid[-1])
    return s_of_t(roots)


def discretize_circumscribed(c: SmoothCurve, samples) -> DiscreteCurve:
    """Vertices at intersections of consecutive tangent lines.

    Every inflection of the curve must appear among the samples, with at
    least one sample strictly between consecutive inflections.  For open
    curves the two curve endpoints are appended so that every sampled
    tangent line carries an edge.
    """
    s = _check_samples(c, samples)
    tol_s = 1e-9 * max(c.length, 1.0)
    inflections = find_inflections(c)
    for s_inf in inflections:
        if np.min(np.abs(s - s_inf)) > tol_s:
            raise MissingInflectionSample(f"inflection at s={s_inf} not sampled")
    for lo, hi in zip(inflections[:-1], inflections[1:]):
        if not np.any((s > lo + tol_s) & (s < hi - tol_s)):
            raise MissingInflectionSample(
                f"no sample strictly between inflections at {lo} and {hi}"
            )
    pts, tans = c.point(s), c.tangent(s)
    i = np.arange(len(s) if c.closed else len(s) - 1)
    j = (i + 1) % len(s)
    ti, tj = tans[i], tans[j]
    d = ti[:, 0] * tj[:, 1] - ti[:, 1] * tj[:, 0]
    if len(parallel := np.flatnonzero(np.abs(d) < 1e-12)):
        a, b = i[parallel[0]], j[parallel[0]]
        at = [f"{k} (s = {s[k]:.6g}, direction ({tans[k, 0]:.6g}, {tans[k, 1]:.6g}))" for k in (a, b)]
        raise ParallelTangents(f"computed tangents at samples {at[0]} and {at[1]} are parallel to within 1e-12")
    rhs = pts[j] - pts[i]
    t = (rhs[:, 0] * tj[:, 1] - rhs[:, 1] * tj[:, 0]) / d
    verts = pts[i] + t[:, None] * ti
    if not c.closed:
        verts = np.concatenate([pts[:1], verts, pts[-1:]])
    return DiscreteCurve(verts, closed=c.closed)


def discretize_centered(
    c: SmoothCurve, density: float, variant: str = "exact"
) -> RefinedCurve:
    """Length-preserving centered discretization with ~density samples per unit length.

    Even vertices are curvature-dependent offsets of uniform arc-length
    samples; odd vertices are inserted so both adjacent half-edges have
    length exactly 1/(2M) and the turning there is positive.  The density is
    snapped so the sample count is integral, which makes the total polyline
    length equal the curve length exactly.

    ``variant`` selects the offset formula: "exact" (apothem offset toward
    the center of curvature, derived from the equal-half-edge construction)
    or "published" (the textbook formula, offset along the outward normal).
    """
    if variant not in ("exact", "published"):
        raise InputError(f"unknown offset variant {variant!r}")
    if not (0.0 < density < math.inf):
        raise InputError(f"density must be positive and finite, got {density}")
    if c.length * density > MAX_SAMPLES:
        raise InputError(f"density {density} asks for over {MAX_SAMPLES} samples")
    n = int(round(c.length * density))
    if n < (3 if c.closed else 1):
        raise MTooSmall("density too small for this curve", minimal_density=3.0 / c.length)
    m_eff = n / c.length
    h = 1.0 / (2.0 * m_eff)
    check_edge_lengths(h, "half-edge length")
    n_even = n if c.closed else n + 1
    s_vals = np.arange(n_even) / m_eff

    k = c.curvature(s_vals)
    bad = np.flatnonzero((k <= 0.0) | (k / m_eff >= math.pi / 2.0))
    if len(bad):
        j = int(bad[0])
        if k[j] <= 0.0:
            raise NonConvexCurve(f"nonpositive curvature at sample {j}", index=j)
        # k[j] is the running maximum of k: every earlier k/M is below pi/2
        raise MTooSmall(
            f"k/M = {k[j] / m_eff:.3f} >= pi/2 at sample {j}",
            index=j,
            minimal_density=2.0 * float(k[j]) / math.pi,
        )
    # offsets along the inward normal, toward the center of curvature (k > 0)
    sign, offset = (1.0, centered_offset_exact) if variant == "exact" else (-1.0, centered_offset)
    normal_in = _rot90(c.tangent(s_vals))
    even = c.point(s_vals) + sign * offset(k, m_eff)[:, None] * normal_in

    p0, p1 = even[:n], even[np.arange(1, n + 1) % n_even]
    d = np.linalg.norm(p1 - p0, axis=1)
    over = np.flatnonzero(d > 2.0 * h + 1e-12)
    if len(over):
        j = int(over[0])
        raise MTooSmall(
            f"offset samples {j} and {j + 1} are {d[j]:.6g} apart, over the "
            f"half-edge budget {2 * h:.6g}; increase the density",
            index=j,
            minimal_density=float(density * d[j] / (2.0 * h)),
        )
    perp = _rot90((p1 - p0) / d[:, None])
    g = np.sqrt(np.maximum(h * h - 0.25 * d * d, 0.0))[:, None]
    mid = 0.5 * (p0 + p1)
    # positive turning at the inserted vertex: q = mid - g * perp
    q = np.where(g > 0.0, mid - g * perp, mid)
    # p0, q interleaved; an open curve ends on its last even vertex
    pts = np.concatenate([np.stack([p0, q], axis=1).reshape(-1, 2), even[n:]])
    return RefinedCurve(pts, h, closed=c.closed, vertex_parity=1)
