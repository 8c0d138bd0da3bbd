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
from scipy.optimize import brentq

from .curve_core import DiscreteCurve, RefinedCurve
from .errors import (
    InfinitelyManyInflections,
    InputError,
    MissingInflectionSample,
    MTooSmall,
    NonConvexCurve,
    OutOfDomain,
    ParallelTangents,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class SmoothCurve:
    """Arc-length parametrized planar curve on s in [0, length].

    ``point``/``tangent``/``curvature`` take the arc-length parameter;
    the tangent is unit and curvature is signed (positive = turning left).
    """

    point: Callable[[float], np.ndarray]
    tangent: Callable[[float], np.ndarray]
    curvature: Callable[[float], float]
    length: float
    closed: bool = False


class _ArcLengthParam:
    """Numeric arc-length reparametrization of a regular parametric curve."""

    def __init__(self, deriv, t0, t1, cells=2048):
        self.deriv = deriv
        self.t0 = t0
        self.t1 = t1
        self.grid = np.linspace(t0, t1, cells + 1)
        cum = np.zeros(cells + 1)
        for j in range(cells):
            cum[j + 1] = cum[j] + self._cell(self.grid[j], self.grid[j + 1])
        self.cum = cum
        self.length = float(cum[-1])

    def _cell(self, a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = mid + half * _GL_NODES
        speed = np.hypot(*self.deriv(t))
        return float(half * np.dot(_GL_WEIGHTS, speed))

    def s_of_t(self, t):
        j = int(np.clip(np.searchsorted(self.grid, t) - 1, 0, len(self.grid) - 2))
        return float(self.cum[j] + self._cell(self.grid[j], t))

    def t_of_s(self, s):
        s = float(np.clip(s, 0.0, self.length))
        t = float(np.interp(s, self.cum, self.grid))
        for _ in range(4):
            dx, dy = self.deriv(t)
            speed = math.hypot(float(dx), float(dy))
            t = float(np.clip(t - (self.s_of_t(t) - s) / speed, self.t0, self.t1))
        return t


def _from_parametric(pos, deriv, deriv2, t0, t1, closed) -> SmoothCurve:
    param = _ArcLengthParam(deriv, t0, t1)

    def point(s):
        t = param.t_of_s(s)
        return np.asarray(pos(t), dtype=float)

    def tangent(s):
        t = param.t_of_s(s)
        dx, dy = deriv(t)
        n = math.hypot(float(dx), float(dy))
        return np.array([dx / n, dy / n], dtype=float)

    def curvature(s):
        t = param.t_of_s(s)
        dx, dy = deriv(t)
        ddx, ddy = deriv2(t)
        speed = math.hypot(float(dx), float(dy))
        return float(dx * ddy - dy * ddx) / speed**3

    return SmoothCurve(point, tangent, curvature, param.length, closed)


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> SmoothCurve:
    cx, cy = center
    length = 2.0 * math.pi * radius

    def point(s):
        a = s / radius
        return np.array([cx + radius * math.cos(a), cy + radius * math.sin(a)])

    def tangent(s):
        a = s / radius
        return np.array([-math.sin(a), math.cos(a)])

    return SmoothCurve(point, tangent, lambda s: 1.0 / radius, length, closed=True)


def ellipse(a: float = 2.0, b: float = 1.0) -> SmoothCurve:
    return _from_parametric(
        lambda t: (a * np.cos(t), b * np.sin(t)),
        lambda t: (-a * np.sin(t), b * np.cos(t)),
        lambda t: (-a * np.cos(t), -b * np.sin(t)),
        0.0,
        2.0 * math.pi,
        closed=True,
    )


def sine_arc(amplitude: float = 1.0, x_max: float = 2.0 * math.pi) -> SmoothCurve:
    return _from_parametric(
        lambda t: (t, amplitude * np.sin(t)),
        lambda t: (np.ones_like(np.asarray(t, dtype=float)), amplitude * np.cos(t)),
        lambda t: (np.zeros_like(np.asarray(t, dtype=float)), -amplitude * np.sin(t)),
        0.0,
        x_max,
        closed=False,
    )


def clothoid_arc(kappa0: float = 0.1, sharpness: float = 0.2, length: float = 5.0) -> SmoothCurve:
    from .spline2d import clothoid_xy  # local import; spline2d does not import us

    def point(s):
        x, y = clothoid_xy(kappa0, sharpness, 0.0, s)
        return np.array([x, y])

    def tangent(s):
        th = kappa0 * s + 0.5 * sharpness * s * s
        return np.array([math.cos(th), math.sin(th)])

    return SmoothCurve(point, tangent, lambda s: kappa0 + sharpness * s, length, closed=False)


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
    hi = c.length if not c.closed else c.length - 1e-12
    if s[0] < -1e-12 or s[-1] > hi + 1e-9:
        raise OutOfDomain(f"samples must lie within [0, {c.length}]")
    return s


def uniform_samples(c: SmoothCurve, n: int) -> np.ndarray:
    """n equal arc-length samples (closed: spacing L/n; open: including both ends)."""
    if n < 0:
        raise InputError(f"sample count must be non-negative, got {n}")
    if c.closed:
        return np.linspace(0.0, c.length, n, endpoint=False)
    return np.linspace(0.0, c.length, n)


def discretize_inscribed(c: SmoothCurve, samples) -> DiscreteCurve:
    """Vertices on the curve at the given arc-length samples."""
    s = _check_samples(c, samples)
    pts = np.array([c.point(v) for v in s])
    return DiscreteCurve(pts, closed=c.closed)


def find_inflections(c: SmoothCurve, max_inflections: int = 64) -> np.ndarray:
    """Arc-length parameters where the signed curvature changes sign."""
    grid = np.linspace(0.0, c.length, 4096)
    k = np.array([c.curvature(v) for v in grid])
    roots = []
    sign = np.sign(k)
    for j in range(len(grid) - 1):
        if sign[j] == 0.0:
            roots.append(grid[j])
        elif sign[j] * sign[j + 1] < 0.0:
            roots.append(brentq(c.curvature, grid[j], grid[j + 1], xtol=1e-13))
        if len(roots) > max_inflections:
            raise InfinitelyManyInflections(
                f"more than {max_inflections} inflections detected"
            )
    if len(k) and sign[-1] == 0.0:
        roots.append(grid[-1])
    return np.asarray(roots)


def discretize_circumscribed(
    c: SmoothCurve, samples, max_inflections: int = 64
) -> DiscreteCurve:
    """Vertices at intersections of consecutive tangent lines.

    Every inflection of the curve must appear among the samples, with at
    least one sample strictly between consecutive inflections.  For open
    curves the two curve endpoints are appended so that every sampled
    tangent line carries an edge.
    """
    s = _check_samples(c, samples)
    tol_s = 1e-9 * max(c.length, 1.0)
    inflections = find_inflections(c, max_inflections)
    for s_inf in inflections:
        if np.min(np.abs(s - s_inf)) > tol_s:
            raise MissingInflectionSample(f"inflection at s={s_inf} not sampled")
    for lo, hi in zip(inflections[:-1], inflections[1:]):
        if not np.any((s > lo + tol_s) & (s < hi - tol_s)):
            raise MissingInflectionSample(
                f"no sample strictly between inflections at {lo} and {hi}"
            )
    pts = np.array([c.point(v) for v in s])
    tans = np.array([c.tangent(v) for v in s])
    pairs = len(s) if c.closed else len(s) - 1
    verts = []
    for i in range(pairs):
        j = (i + 1) % len(s)
        d = float(tans[i, 0] * tans[j, 1] - tans[i, 1] * tans[j, 0])
        if abs(d) < 1e-12:
            raise ParallelTangents(f"tangents at samples {i} and {j} are parallel")
        rhs = pts[j] - pts[i]
        t = (rhs[0] * tans[j, 1] - rhs[1] * tans[j, 0]) / d
        verts.append(pts[i] + t * tans[i])
    if not c.closed:
        verts = [pts[0]] + verts + [pts[-1]]
    return DiscreteCurve(np.array(verts), closed=c.closed)


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
    from .ngon_circle import centered_offset, centered_offset_exact

    if variant not in ("exact", "published"):
        raise InputError(f"unknown offset variant {variant!r}")
    if not (0.0 < density < math.inf):
        raise InputError(f"density must be positive and finite, got {density}")
    n = int(round(c.length * density))
    if n < (3 if c.closed else 1):
        raise MTooSmall("density too small for this curve", minimal_density=3.0 / c.length)
    m_eff = n / c.length
    h = 1.0 / (2.0 * m_eff)
    n_even = n if c.closed else n + 1
    s_vals = np.arange(n_even) / m_eff

    even = np.empty((n_even, 2))
    k_max = 0.0
    for j, sv in enumerate(s_vals):
        k = float(c.curvature(sv))
        if k <= 0.0:
            raise NonConvexCurve(f"nonpositive curvature at sample {j}", index=j)
        k_max = max(k_max, k)
        if k / m_eff >= math.pi / 2.0:
            raise MTooSmall(
                f"k/M = {k / m_eff:.3f} >= pi/2 at sample {j}",
                index=j,
                minimal_density=2.0 * k_max / math.pi,
            )
        p = c.point(sv)
        t = c.tangent(sv)
        normal_in = np.array([-t[1], t[0]])  # toward the center of curvature (k > 0)
        if variant == "exact":
            even[j] = p + centered_offset_exact(k, m_eff) * normal_in
        else:
            even[j] = p - centered_offset(k, m_eff) * normal_in

    pts = []
    for j in range(n):
        p0 = even[j]
        p1 = even[(j + 1) % n_even]
        d = float(np.linalg.norm(p1 - p0))
        if d > 2.0 * h + 1e-12:
            raise MTooSmall(
                f"offset samples {j} and {j + 1} are {d:.6g} apart, over the "
                f"half-edge budget {2 * h:.6g}; increase the density",
                index=j,
                minimal_density=density * d / (2.0 * h),
            )
        u = (p1 - p0) / d
        perp = np.array([-u[1], u[0]])
        g2 = h * h - 0.25 * d * d
        g = math.sqrt(max(g2, 0.0))
        mid = 0.5 * (p0 + p1)
        # positive turning at the inserted vertex: q = mid - g * perp
        q = mid - g * perp if g > 0.0 else mid
        pts.append(p0)
        pts.append(q)
    if not c.closed:
        pts.append(even[-1])
    return RefinedCurve(np.array(pts), h, closed=c.closed, vertex_parity=1)
