"""SVG rendering of planar curves, splines and circles.

Arcs are emitted as native SVG arc path commands; clothoid and elastica
segments become polylines whose chordal deviation stays below a fraction of
the viewport size.  Output is deterministic, which makes the documents
usable as golden files in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .curve_core import DiscreteCurve, RefinedCurve
from .errors import NonPlanarData
from .spline2d import ArcSegment, ClothoidSegment, ElasticaSegment, LineSegment, Spline


_WIDTH = 480  # pixels; the height follows the aspect ratio of the viewport
_PADDING = 0.6  # margin around the drawing, in user units
# stroke width, marker radius and the chordal deviation budget for sampled
# segments, as fractions of the larger viewport side
_STROKE_WIDTH = 0.02
_MARKER_RADIUS = 0.035
_CHORD_TOL_FRAC = 0.001
_CURVE_COLOR = "#1f4e9c"
_SPLINE_COLOR = "#c03020"
_CIRCLE_COLOR = "#3a9c3a"
_MARKER_COLOR = "#202020"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _require_planar(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 3:
        if np.max(np.abs(pts[:, 2])) > 1e-12:
            raise NonPlanarData("SVG rendering requires planar data")
        pts = pts[:, :2]
    return pts


def _bounds_of(chunks):
    pts = np.vstack(chunks) if chunks else np.zeros((1, 2))
    return pts.min(axis=0), pts.max(axis=0)


def _polyline_path(pts: np.ndarray, close: bool) -> str:
    cmds = [f"M {_fmt(pts[0, 0])} {_fmt(-pts[0, 1])}"]
    for p in pts[1:]:
        cmds.append(f"L {_fmt(p[0])} {_fmt(-p[1])}")
    if close:
        cmds.append("Z")
    return " ".join(cmds)


def _segment_path(seg, start_cmd: bool, tol: float) -> str:
    if isinstance(seg, LineSegment):
        p0 = seg.start
        p1 = seg.point_at(seg.length)
        head = f"M {_fmt(p0[0])} {_fmt(-p0[1])} " if start_cmd else ""
        return head + f"L {_fmt(p1[0])} {_fmt(-p1[1])}"
    if isinstance(seg, ArcSegment):
        p0 = seg.point_at(0.0)
        p1 = seg.point_at(seg.length)
        large = 1 if abs(seg.sweep) > math.pi else 0
        # y-flip reverses the sweep sense
        sweep_flag = 0 if seg.sweep > 0 else 1
        head = f"M {_fmt(p0[0])} {_fmt(-p0[1])} " if start_cmd else ""
        return head + (
            f"A {_fmt(seg.radius)} {_fmt(seg.radius)} 0 {large} {sweep_flag} "
            f"{_fmt(p1[0])} {_fmt(-p1[1])}"
        )
    pts = seg.polyline(tol)
    path = _polyline_path(pts, close=False)
    return path if start_cmd else path[path.index("L") :]


def render_svg(curves=(), splines=(), circles=()) -> str:
    """Compose an SVG 1.1 document.

    ``curves``: DiscreteCurve/RefinedCurve instances drawn as polylines with
    point markers; ``splines``: Spline instances; ``circles``: (center,
    radius) pairs.  3D input raises NonPlanarData.
    """
    chunks = []
    curve_pts = []
    for c in curves:
        pts = _require_planar(c.points)
        curve_pts.append((pts, getattr(c, "closed", False)))
        chunks.append(pts)
    spline_paths = []
    for sp in splines:
        for seg in sp.segments:
            chunks.append(seg.polyline(1e-3))
    for center, radius in circles:
        center = np.asarray(center, dtype=float)
        chunks.append(center + np.array([[radius, 0], [-radius, 0], [0, radius], [0, -radius]]))

    lo, hi = _bounds_of(chunks)
    span = np.maximum(hi - lo + 2 * _PADDING, 1e-9)
    scale = float(np.max(span))
    tol = _CHORD_TOL_FRAC * scale

    for sp in splines:
        if not sp.segments:
            continue
        parts = []
        for i, seg in enumerate(sp.segments):
            parts.append(_segment_path(seg, start_cmd=(i == 0), tol=tol))
        spline_paths.append(" ".join(parts))

    height = int(round(_WIDTH * span[1] / span[0]))
    view = f"{_fmt(lo[0] - _PADDING)} {_fmt(-(hi[1] + _PADDING))} {_fmt(span[0])} {_fmt(span[1])}"
    sw = _fmt(_STROKE_WIDTH * scale)
    marker_r = _fmt(_MARKER_RADIUS * scale)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{height}" viewBox="{view}">',
    ]
    for center, radius in circles:
        cx, cy = np.asarray(center, dtype=float)
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(radius)}" fill="none" '
            f'stroke="{_CIRCLE_COLOR}" stroke-width="{sw}"/>'
        )
    for pts, closed in curve_pts:
        out.append(
            f'<path d="{_polyline_path(pts, closed)}" fill="none" '
            f'stroke="{_CURVE_COLOR}" stroke-width="{sw}"/>'
        )
        for p in pts:
            out.append(
                f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" '
                f'r="{marker_r}" fill="{_MARKER_COLOR}"/>'
            )
    for path in spline_paths:
        out.append(
            f'<path d="{path}" fill="none" stroke="{_SPLINE_COLOR}" '
            f'stroke-width="{sw}"/>'
        )
    out.append("</svg>")
    return "\n".join(out)
