"""Circles and N-gons: the kernel relating turning angles to curvature.

Three conventions relate a regular N-gon with side length ell and exterior
angle theta = 2*pi/N to a circle:

* Inscribed      -- polygon vertices lie on the circle:   kappa = (2/ell) sin(theta/2)
* Circumscribed  -- polygon edges are tangent:            kappa = (2/ell) tan(theta/2)
* Centered       -- perimeter equals circumference:       kappa = theta/ell

Every other module measures curvature and torsion through these formulas,
so this module doubles as the analytic oracle of the library.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .curve_core import DiscreteCurve
from .errors import AngleOutOfRange, InputError, NonpositiveLength, OutOfImage


class Convention(enum.Enum):
    INSCRIBED = "inscribed"
    CIRCUMSCRIBED = "circumscribed"
    CENTERED = "centered"


def _check_angle(angle: float | np.ndarray) -> None:
    # the kernel accepts any exterior angle of an N-gon with N > 2; the
    # stricter [-pi/2, pi/2] bound of intrinsic data lives in frames
    angle = np.asarray(angle)
    bad = ~((0.0 <= angle) & (angle < math.pi))
    if bad.any():
        raise AngleOutOfRange(f"angle {float(angle[bad][0])} outside [0, pi)")


def _check_length(ell) -> None:
    if not all(0.0 < length < math.inf for length in np.ravel(ell).tolist()):
        raise NonpositiveLength(f"length must be positive and finite, got {ell}")


def kappa_from_angle(
    theta: float | np.ndarray, ell: float | np.ndarray, convention: Convention
) -> float | np.ndarray:
    """Curvature of the convention's circle for turning angle theta and side ell.

    theta may be a float or an array of angles, and ell a float or an array of
    lengths broadcasting against it; the result has their broadcast form.
    """
    _check_length(ell)
    angle = np.asarray(theta, dtype=float)
    _check_angle(angle)
    if convention is Convention.INSCRIBED:
        kappa = 2.0 / ell * np.sin(angle / 2.0)
    elif convention is Convention.CIRCUMSCRIBED:
        kappa = 2.0 / ell * np.tan(angle / 2.0)
    else:
        kappa = angle / ell
    return kappa if np.ndim(kappa) else float(kappa)


def tau_from_angle(
    phi: float | np.ndarray, ell: float, convention: Convention
) -> float | np.ndarray:
    """Torsion for twisting angle phi; same formulas with phi in place of theta."""
    return kappa_from_angle(phi, ell, convention)


def angle_from_kappa(kappa: float, ell: float, convention: Convention) -> float:
    """Inverse of kappa_from_angle on theta in [0, pi/2]."""
    _check_length(ell)
    if kappa < 0.0:
        raise OutOfImage(f"curvature must be nonnegative, got {kappa}")
    x = kappa * ell / 2.0
    if convention is Convention.INSCRIBED:
        if x > math.sin(math.pi / 4.0) + 1e-15:
            raise OutOfImage(f"kappa*ell/2 = {x} exceeds sin(pi/4)")
        return 2.0 * math.asin(min(x, 1.0))
    if convention is Convention.CIRCUMSCRIBED:
        if x > math.tan(math.pi / 4.0) + 1e-15:
            raise OutOfImage(f"kappa*ell/2 = {x} exceeds tan(pi/4)")
        return 2.0 * math.atan(x)
    theta = kappa * ell
    if theta > math.pi / 2.0 + 1e-15:
        raise OutOfImage(f"kappa*ell = {theta} exceeds pi/2")
    return theta


@dataclass(frozen=True)
class NGonSpec:
    """Regular N-gon: real side count N > 2, side length ell, placement."""

    n: float
    ell: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not self.n > 2.0:
            raise InputError(f"side count must exceed 2, got {self.n}")
        if not self.ell > 0.0:
            raise NonpositiveLength(f"side length must be positive, got {self.ell}")


def circle_of_ngon(spec: NGonSpec, convention: Convention):
    """(center, radius) of the circle splining the N-gon under the convention."""
    theta = 2.0 * math.pi / spec.n
    radius = 1.0 / kappa_from_angle(theta, spec.ell, convention)
    return np.asarray(spec.center, dtype=float), radius


def ngon_of_circle(
    radius: float,
    n: int,
    convention: Convention,
    center=(0.0, 0.0),
    phase: float = 0.0,
) -> DiscreteCurve:
    """Regular N-gon discretizing a circle of the given radius.

    The side length solves kappa_from_angle(2*pi/N, ell, convention) = 1/radius.
    Vertices are placed counterclockwise starting at angle ``phase``.
    """
    if radius <= 0.0:
        raise NonpositiveLength(f"radius must be positive, got {radius}")
    if n < 3 or int(n) != n:
        raise InputError(f"polygon needs an integer N >= 3, got {n}")
    n = int(n)
    theta = 2.0 * math.pi / n
    if convention is Convention.INSCRIBED:
        ell = 2.0 * radius * math.sin(theta / 2.0)
        r_vertex = radius
    elif convention is Convention.CIRCUMSCRIBED:
        ell = 2.0 * radius * math.tan(theta / 2.0)
        r_vertex = radius / math.cos(theta / 2.0)
    else:
        ell = radius * theta
        r_vertex = ell / (2.0 * math.sin(theta / 2.0))
    angles = phase + theta * np.arange(n)
    cx, cy = center
    pts = np.column_stack([cx + r_vertex * np.cos(angles), cy + r_vertex * np.sin(angles)])
    return DiscreteCurve(pts, closed=True)


def _offset_x(k, density: float):
    """k as an array and x = k/M, for k > 0 and x < pi."""
    k = np.asarray(k, dtype=float)
    if (k <= 0.0).any():
        raise InputError(f"curvature must be positive, got {float(k[k <= 0.0][0])}")
    x = k / density
    if (x >= math.pi).any():
        raise InputError(f"k/M = {float(x[x >= math.pi][0])} too large")
    return k, x


def centered_offset(k: float | np.ndarray, density: float) -> float | np.ndarray:
    """Sample offset for the centered 2D discretization, literal published form.

    Positive values move the sample along the outward normal (away from the
    center of curvature).  See also :func:`centered_offset_exact` for the
    variant derived from the equal-half-edge construction; the two disagree
    and only the exact one reproduces a circle's centered polygon.
    """
    k, x = _offset_x(k, density)
    # below x = 1e-8 the series x / (6 M): there x - sin x cancels to 0 and k sin x can underflow
    small = x < 1e-8
    t, kt = np.where(small, 1.0, x), np.where(small, 1.0, k)
    off = np.where(small, x / (6.0 * density), (t - np.sin(t)) / (kt * np.sin(t)))
    return off if k.ndim else float(off)


def centered_offset_exact(k: float | np.ndarray, density: float) -> float | np.ndarray:
    """Offset moving the sample to the apothem of the centered polygon.

    Returned as a distance toward the center of curvature:
    (1/k) * (1 - (x/2) * cot(x/2)) with x = k/M.  On a circle this places the
    even vertices exactly at the midpoints of the centered N-gon's sides.
    """
    k, x = _offset_x(k, density)
    half = x / 2.0
    # below 1e-8, the series 1 - t*cot(t) = t^2/3 + t^4/45 + ...
    small = half < 1e-8
    t = np.where(small, 1.0, half)
    off = np.where(small, half * half / 3.0 + half**4 / 45.0, 1.0 - t / np.tan(t)) / k
    return off if k.ndim else float(off)


def centered_vertex_offset(theta: float | np.ndarray, ell: float) -> float | np.ndarray:
    """Inward offset of a polyline vertex onto its centered circle.

    A vertex with turning angle theta and half-edge ell sits at circumradius
    ell/sin(theta/2) of the local N-gon; the centered circle has radius
    2*ell/theta.  The difference is the distance to move toward the center
    of curvature when building the centered spline.  theta may be a float
    or an array of angles; the result has the same form.
    """
    _check_length(ell)
    t = np.abs(np.asarray(theta, dtype=float))
    _check_angle(t)
    # a vertex below 1e-12 is straight and stays on its edge
    straight = t < 1e-12
    t_safe = np.where(straight, 1.0, t)
    off = np.where(straight, 0.0, ell * (1.0 / np.sin(t_safe / 2.0) - 2.0 / t_safe))
    return off if t.ndim else float(off)
