"""SVG rendering of planar curves, splines and circles.

Arcs are emitted as native SVG arc path commands; clothoid and elastica
segments become polylines whose chordal deviation stays below a fraction of
the viewport size.  Output is deterministic, which makes the documents
usable as golden files in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NonPlanarData
from .spline2d import ArcSegment


_WIDTH = 480  # pixels; the height follows the aspect ratio of the viewport
_PADDING = 0.6  # margin around the drawing, in user units times min(1, its extent)
# stroke width, marker radius and the chordal deviation budget for sampled
# segments, as fractions of the larger viewport side
_STROKE_WIDTH = 0.02
_MARKER_RADIUS = 0.035
_CHORD_TOL_FRAC = 0.001
_CURVE_COLOR = "#1f4e9c"
_SPLINE_COLOR = "#c03020"
_CIRCLE_COLOR = "#3a9c3a"
_MARKER_COLOR = "#202020"
# arc commands by 2 * (large arc) + (sweep flag)
_ARC_COMMANDS = [f" A %.10g %.10g 0 {large} {sweep} %.10g %.10g" for large in (0, 1) for sweep in (0, 1)]


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


def _spline_path(spline, points, starts) -> str:
    """Path data of a spline from its polylines (points, starts), whose first points repeat the last
    ones before them: arcs as native arc commands to their end points, the other segments as lines."""
    radius, sweep = spline.in_order(lambda kind, c: np.column_stack([c["radius"], c["sweep"]])
                                    if kind is ArcSegment else math.nan, 2).T
    arcs = np.flatnonzero(~np.isnan(radius))
    keep = np.ones(len(points), dtype=bool)
    keep[starts[1:-1]] = False
    xy = _xy(points.compress(keep, axis=0))
    ends = starts[arcs + 1] - 1 - arcs  # each arc's end point in xy
    flags = (2 * (np.abs(sweep[arcs]) > math.pi) + (sweep[arcs] <= 0.0)).tolist()  # y-flip reverses the sweep sense
    bounds = [0, *ends.tolist(), len(xy)]  # the path's start, its arc ends and its end: line commands run between
    runs = zip(bounds, bounds[1:], [_ARC_COMMANDS[f] for f in flags] + [""])
    cmds = "".join(" L %.10g %.10g" * (end - start - 1) + arc for start, end, arc in runs)
    return _fill("M %.10g %.10g" + cmds, np.insert(xy.ravel(), np.repeat(2 * ends, 2), np.repeat(radius[arcs], 2)))


def render_svg(curves=(), splines=(), circles=()) -> str:
    """Compose an SVG 1.1 document.

    ``curves``: DiscreteCurve/RefinedCurve instances drawn as polylines with
    point markers; ``splines``: Spline instances; ``circles``: (center,
    radius) pairs.  3D input raises NonPlanarData; a drawing whose extent
    overflows, or a spline whose arcs and clothoids would need more than
    config.MAX_SAMPLES polyline points, raises InputError.
    """
    curve_pts = [(_require_planar(c.points), getattr(c, "closed", False)) for c in curves]
    chunks = [pts for pts, _ in curve_pts]
    splines = [sp for sp in splines if len(sp)]
    if splines:
        # bounds from a sample within 1e-3, or within 1e-6 of the chords' extent if that is larger
        chords = np.vstack([sp.sampler(math.inf)[0] for sp in splines])
        with np.errstate(over="ignore"):  # an extent that overflows samples at the chords
            tol = max(1e-3, 1e-6 * float(np.max(chords.max(axis=0) - chords.min(axis=0))))
        chunks += [sp.sampler(tol)[0] for sp in splines]
    for center, radius in circles:
        center = np.asarray(center, dtype=float)
        chunks.append(center + np.array([[radius, 0], [-radius, 0], [0, radius], [0, -radius]]))

    drawn = np.vstack(chunks or [np.zeros((1, 2))])
    lo, hi = drawn.min(axis=0), drawn.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an input error below
        extent = float(np.max(hi - lo))
        unit = min(1.0, extent) if extent > 0.0 else 1.0  # a drawing of one point keeps unit margins
        pad = _PADDING * unit
        span = np.maximum(hi - lo + 2 * pad, 1e-9 * unit)
        height = _WIDTH * span[1] / span[0]
    if not np.isfinite([*span, height]).all():
        raise InputError(f"the drawing from {lo.tolist()} to {hi.tolist()} is too large to lay out")
    scale = float(np.max(span))
    height = int(round(height))
    sw, marker_r = _fill("%.10g", _STROKE_WIDTH * scale), _fill("%.10g", _MARKER_RADIUS * scale)
    marker = f'<circle cx="%.10g" cy="%.10g" r="{marker_r}" fill="{_MARKER_COLOR}"/>'
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        _fill(
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{height}" viewBox="%.10g %.10g %.10g %.10g">',
            [lo[0] - pad, -(hi[1] + pad), *span],
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
    # arcs are drawn natively from their end points: only the clothoids are sampled at tol
    out += [path.format(_spline_path(sp, *sp.sampler(tol, arcs=False)), _SPLINE_COLOR) for sp in splines]
    out.append("</svg>")
    return "\n".join(out)
