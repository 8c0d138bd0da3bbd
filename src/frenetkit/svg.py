"""SVG rendering of planar curves, splines and circles.

Arcs are emitted as native SVG arc path commands; clothoid and elastica
segments become polylines whose chordal deviation stays below a fraction of
the viewport size.  Output is deterministic, which makes the documents
usable as golden files in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPlanarData
from .spline2d import ArcSegment, polyline_sampler


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


def _require_planar(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 3:
        if np.max(np.abs(pts[:, 2])) > 1e-12:
            raise NonPlanarData("SVG rendering requires planar data")
        pts = pts[:, :2]
    return pts


def _fill(template: str, values) -> str:
    """template, which holds a "%.10g" per value, filled with the values: the one
    spelling of every number in a document."""
    return template % tuple(np.ravel(values).tolist())


def _xy(pts: np.ndarray) -> np.ndarray:
    """The points' x and -y, pair by pair (the y-flip spells a y of 0.0 as -0)."""
    return np.column_stack([pts[:, 0], np.negative(pts[:, 1])])


def _polyline_path(pts: np.ndarray, close: bool) -> str:
    return _fill(" L ".join(["%.10g %.10g"] * len(pts)).join(["M ", " Z" if close else ""]), _xy(pts))


def _spline_path(segs, polylines) -> str:
    """Path data of a spline: arcs as native arc commands, every other segment as
    lines through its polyline."""
    cmds, values = ["M %.10g %.10g"], [_xy(polylines[0][:1])]
    for seg, pts in zip(segs, polylines):
        if isinstance(seg, ArcSegment):
            # y-flip reverses the sweep sense
            large, sweep_flag = int(abs(seg.sweep) > math.pi), 0 if seg.sweep > 0 else 1
            cmds.append(f"A %.10g %.10g 0 {large} {sweep_flag} %.10g %.10g")
            values += [[[seg.radius, seg.radius]], _xy(pts[-1:])]
        else:
            cmds += ["L %.10g %.10g"] * (len(pts) - 1)
            values.append(_xy(pts[1:]))
    return _fill(" ".join(cmds), np.concatenate(values))


def render_svg(curves=(), splines=(), circles=()) -> str:
    """Compose an SVG 1.1 document.

    ``curves``: DiscreteCurve/RefinedCurve instances drawn as polylines with
    point markers; ``splines``: Spline instances; ``circles``: (center,
    radius) pairs.  3D input raises NonPlanarData; a spline that would need
    more than config.MAX_SAMPLES polyline points raises InputError.
    """
    curve_pts = [(_require_planar(c.points), getattr(c, "closed", False)) for c in curves]
    chunks = [pts for pts, _ in curve_pts]
    samplers = [(sp.segments, polyline_sampler(sp.segments)) for sp in splines if sp.segments]
    for _, sample in samplers:
        chunks += sample(1e-3)
    for center, radius in circles:
        center = np.asarray(center, dtype=float)
        chunks.append(center + np.array([[radius, 0], [-radius, 0], [0, radius], [0, -radius]]))

    drawn = np.vstack(chunks or [np.zeros((1, 2))])
    lo, hi = drawn.min(axis=0), drawn.max(axis=0)
    span = np.maximum(hi - lo + 2 * _PADDING, 1e-9)
    scale = float(np.max(span))
    height = int(round(_WIDTH * span[1] / span[0]))
    sw, marker_r = _fill("%.10g", _STROKE_WIDTH * scale), _fill("%.10g", _MARKER_RADIUS * scale)
    marker = f'<circle cx="%.10g" cy="%.10g" r="{marker_r}" fill="{_MARKER_COLOR}"/>'
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        _fill(
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{height}" viewBox="%.10g %.10g %.10g %.10g">',
            [lo[0] - _PADDING, -(hi[1] + _PADDING), *span],
        ),
    ]
    circle = f'<circle cx="%.10g" cy="%.10g" r="%.10g" fill="none" stroke="{_CIRCLE_COLOR}" stroke-width="{sw}"/>'
    for center, radius in circles:
        cx, cy = np.asarray(center, dtype=float)
        out.append(_fill(circle, [cx, -cy, radius]))
    path = f'<path d="{{}}" fill="none" stroke="{{}}" stroke-width="{sw}"/>'
    for pts, closed in curve_pts:
        markers = _fill("\n".join([marker] * len(pts)), _xy(pts))
        out += [path.format(_polyline_path(pts, closed), _CURVE_COLOR), markers]
    tol = _CHORD_TOL_FRAC * scale
    out += [path.format(_spline_path(segs, sample(tol)), _SPLINE_COLOR) for segs, sample in samplers]
    out.append("</svg>")
    return "\n".join(out)
