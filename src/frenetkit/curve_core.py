"""Curve containers, the midpoint refinement operator and the D/M calculus.

A discrete curve is an ordered point sequence.  Refining a curve doubles the
index set: original vertices keep their order and the midpoint of every edge
is inserted between them.  All half-edges of a refined curve have the same
length ``ell``, which is the discrete analogue of parametrization
proportional to arc length.

Index parity: for closed curves the refined sequence starts at a midpoint,
so original vertices sit at odd indices.  An open curve has to start at its
first vertex, which shifts the parity; the ``vertex_parity`` field records
where the original vertices live so downstream code never guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EDGE_RANGE, MIDPOINT_REL, UNIFORM_LENGTH_REL
from .errors import InputError, NonUniformLength, TooShort


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise InputError(f"points must be an (n, 2) or (n, 3) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain non-finite values")
    return pts


@dataclass(frozen=True)
class DiscreteCurve:
    """Ordered point sequence in 2D or 3D."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if self.closed and n < 3:
            raise InputError("closed curve needs at least 3 points")
        if not self.closed and n < 2:
            raise InputError("open curve needs at least 2 points")
        with np.errstate(over="ignore"):
            edges = diff(pts, self.closed)
            lengths = np.linalg.norm(edges, axis=1)
            # a finite nonzero edge whose squared norm overflowed or underflowed: scale it first
            if not 0.0 < lengths.min() <= lengths.max() < np.inf:
                odd = np.isinf(lengths) & np.isfinite(edges).all(axis=1) | (lengths == 0.0) & edges.any(axis=1)
                scale = np.max(np.abs(edges[odd]), axis=1)
                lengths[odd] = scale * np.linalg.norm(edges[odd] / scale[:, None], axis=1)
        if np.min(lengths) <= 0.0:
            raise InputError("consecutive points must be distinct")
        lengths.flags.writeable = False
        object.__setattr__(self, "_edge_lengths", lengths)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def edges(self) -> np.ndarray:
        """Edge vectors, wrapping for closed curves."""
        return diff(self.points, self.closed)

    def edge_lengths(self) -> np.ndarray:
        """The edge lengths, measured once, when the curve is made (read-only)."""
        return self._edge_lengths

    def length(self) -> float:
        return float(np.sum(self.edge_lengths()))


@dataclass(frozen=True)
class RefinedCurve:
    """Alternating vertex/midpoint curve with uniform half-edge length.

    ``vertex_parity`` is the index parity carrying the original vertices
    (1 for curves produced by :func:`refine` on closed input, 0 for open).
    """

    points: np.ndarray
    ell: float
    closed: bool = False
    vertex_parity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        if self.ell <= 0.0:
            raise InputError("half-edge length must be positive")
        if self.vertex_parity not in (0, 1):
            raise InputError("vertex_parity must be 0 or 1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def n_edges(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    def edges(self) -> np.ndarray:
        return diff(self.points, self.closed)

    def length(self) -> float:
        return float(np.sum(np.linalg.norm(self.edges(), axis=1)))

    def is_vertex(self, i: int) -> bool:
        return i % 2 == self.vertex_parity

    def vertex_indices(self) -> np.ndarray:
        n = len(self.points)
        return np.arange(self.vertex_parity, n, 2)


def check_edge_lengths(lengths, what: str = "edge length") -> None:
    """InputError unless every length lies in EDGE_RANGE, where squares stay normal doubles."""
    lo, hi = float(np.min(lengths)), float(np.max(lengths))
    if not EDGE_RANGE[0] <= lo <= hi <= EDGE_RANGE[1]:
        bad = hi if lo >= EDGE_RANGE[0] else lo
        raise InputError(f"{what} {bad!r} is outside the supported range [{EDGE_RANGE[0]:.0e}, {EDGE_RANGE[1]:.0e}]")


def validate_refined(rc: RefinedCurve) -> None:
    """Check the two defining invariants of a refined curve.

    Raises NonUniformLength when half-edge lengths spread beyond tolerance,
    InputError when a midpoint is not the average of its vertex neighbors.
    """
    lengths = np.linalg.norm(rc.edges(), axis=1)
    mean = float(np.mean(lengths))
    if (np.max(lengths) - np.min(lengths)) > UNIFORM_LENGTH_REL * mean:
        raise NonUniformLength(
            f"half-edge lengths spread {np.max(lengths) - np.min(lengths):.3e} "
            f"exceeds {UNIFORM_LENGTH_REL:.1e} relative"
        )
    if abs(mean - rc.ell) > UNIFORM_LENGTH_REL * mean + 1e-300:
        raise NonUniformLength(f"stored ell={rc.ell} disagrees with edges (mean {mean})")
    pts = rc.points
    n = len(pts)
    mids = np.arange(1 - rc.vertex_parity, n, 2)
    if not rc.closed:
        mids = mids[(mids > 0) & (mids < n - 1)]
    defect = np.linalg.norm(pts[mids] - 0.5 * (pts[mids - 1] + pts[(mids + 1) % n]), axis=1)
    bad = np.nonzero(defect > MIDPOINT_REL * max(rc.ell, 1.0))[0]
    if len(bad):
        i = bad[0]
        raise InputError(f"midpoint invariant violated at index {mids[i]} (defect {defect[i]:.3e})")


def refine(curve: DiscreteCurve) -> RefinedCurve:
    """Insert edge midpoints, producing the half-edge-uniform refined curve.

    The input must have uniform edge length 2*ell (relative tolerance
    ``UNIFORM_LENGTH_REL``); NonUniformLength otherwise.  InputError for an
    edge length outside ``EDGE_RANGE``.
    """
    lengths = curve.edge_lengths()
    check_edge_lengths(lengths)
    mean = float(np.mean(lengths))
    if (np.max(lengths) - np.min(lengths)) > UNIFORM_LENGTH_REL * mean:
        raise NonUniformLength(
            f"edge length spread {np.max(lengths) - np.min(lengths):.3e} exceeds "
            f"{UNIFORM_LENGTH_REL:.1e} relative; refine requires uniform edges"
        )
    pts = curve.points
    n = len(pts)
    ell = mean / 2.0
    if curve.closed:
        out = np.empty((2 * n, curve.dim))
        # start at the midpoint of the wrap-around edge so vertices land on odd indices
        out[0] = 0.5 * (pts[-1] + pts[0])
        out[1::2] = pts
        out[2::2] = 0.5 * (pts[:-1] + pts[1:])
        return RefinedCurve(out, ell, closed=True, vertex_parity=1)
    out = np.empty((2 * n - 1, curve.dim))
    out[0::2] = pts
    out[1::2] = 0.5 * (pts[:-1] + pts[1:])
    return RefinedCurve(out, ell, closed=False, vertex_parity=0)


def unrefine(rc: RefinedCurve) -> DiscreteCurve:
    """Project a refined curve back onto its original vertices (exact round trip)."""
    return DiscreteCurve(rc.points[rc.vertex_indices()], closed=rc.closed)


def diff(values, closed: bool = False) -> np.ndarray:
    """Discrete derivative (D x)_i = x_{i+1} - x_i, wrapping when closed."""
    arr = np.asarray(values, dtype=float)
    if len(arr) < 2:
        raise TooShort("diff needs at least 2 values")
    if closed:
        return np.concatenate((arr[1:], arr[:1])) - arr
    return arr[1:] - arr[:-1]


def msum(values, closed: bool = False) -> np.ndarray:
    """Discrete sum (M x)_i = x_{i+1} + x_i, wrapping when closed."""
    arr = np.asarray(values, dtype=float)
    if len(arr) < 2:
        raise TooShort("msum needs at least 2 values")
    if closed:
        return np.roll(arr, -1, axis=0) + arr
    return arr[1:] + arr[:-1]
