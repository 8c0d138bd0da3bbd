"""Canonical demonstration figures.

Each builder returns a deterministic SVG document; the test suite keeps
golden copies and the render_figures script writes them to disk.  The set
covers discretizing a circle by all three conventions, the convention
circles of a regular polygon, the centered discretization, and the three
splining methods on a small discrete curve.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .curve_core import DiscreteCurve, refine
from .discretize2d import circle, discretize_centered
from .errors import MultipleSolutionsWarning
from .ngon_circle import Convention, NGonSpec, circle_of_ngon, ngon_of_circle
from .spline2d import centered_nodes, spline_centered, spline_circumscribed, spline_inscribed
from .svg import render_svg


def _unit_step_polyline(angles) -> DiscreteCurve:
    """Open uniform polyline from successive turning angles, unit edges."""
    heading = np.cumsum([0.0, *angles])
    steps = np.column_stack([np.cos(heading), np.sin(heading)])
    return DiscreteCurve(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))


# the polyline splined in the last four figures; gentle convex turns
_SPLINE_DEMO_ANGLES = (0.55, 0.4, 0.65, 0.35)


def fig_circle_squares() -> str:
    """Unit circle with its inscribed, circumscribed and centered squares."""
    squares = [ngon_of_circle(1.0, 4, conv) for conv in Convention]
    return render_svg(curves=squares, circles=[((0.0, 0.0), 1.0)])


def fig_hexagon_circles() -> str:
    """Side-1 hexagon with its three convention circles."""
    ang = np.arange(6) * math.pi / 3.0
    hexagon = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    spec = NGonSpec(6, 1.0)
    circles = [circle_of_ngon(spec, conv) for conv in Convention]
    return render_svg(curves=[hexagon], circles=circles)


def fig_centered_discretization() -> str:
    """Centered discretization of the unit circle at a coarse density."""
    rc = discretize_centered(circle(1.0), 2.0, variant="exact")
    return render_svg(curves=[rc], circles=[((0.0, 0.0), 1.0)])


def fig_spline_input() -> str:
    return render_svg(curves=[_unit_step_polyline(_SPLINE_DEMO_ANGLES)])


def fig_inscribed_spline() -> str:
    dc = _unit_step_polyline(_SPLINE_DEMO_ANGLES)
    return render_svg(curves=[dc], splines=[spline_inscribed(refine(dc))])


def fig_circumscribed_spline() -> str:
    dc = _unit_step_polyline(_SPLINE_DEMO_ANGLES)
    return render_svg(curves=[dc], splines=[spline_circumscribed(dc)])


def fig_centered_offsets() -> str:
    """The splining polyline together with its offset vertices."""
    dc = _unit_step_polyline(_SPLINE_DEMO_ANGLES)
    nodes, _ = centered_nodes(refine(dc))
    return render_svg(curves=[dc, DiscreteCurve(nodes)])


def fig_centered_spline() -> str:
    dc = _unit_step_polyline(_SPLINE_DEMO_ANGLES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleSolutionsWarning)
        sp = spline_centered(refine(dc), n=48)
    return render_svg(curves=[dc], splines=[sp])


FIGURES = {
    "circle_squares": fig_circle_squares,
    "hexagon_circles": fig_hexagon_circles,
    "centered_discretization": fig_centered_discretization,
    "spline_input": fig_spline_input,
    "inscribed_spline": fig_inscribed_spline,
    "circumscribed_spline": fig_circumscribed_spline,
    "centered_offsets": fig_centered_offsets,
    "centered_spline": fig_centered_spline,
}
