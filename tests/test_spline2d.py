import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.optimize import brentq  # the oracle of refine_roots

from frenetkit import Convention, DiscreteCurve, ngon_of_circle, refine, spline2d
from frenetkit.config import ELASTICA_KKT, MAX_SAMPLES
from frenetkit.errors import FrenetError, Infeasible, InputError, MultipleSolutionsWarning, NoConvergence
from frenetkit.figures import _SPLINE_DEMO_ANGLES, _unit_step_polyline
from frenetkit.spline2d import (
    ArcSegment,
    ClothoidSegment,
    ElasticaSegment,
    LineSegment,
    centered_nodes,
    clothoid_g1_fit,
    clothoid_xy,
    elastica_bvp,
    elastica_constraints,
    elastica_energy,
    g1_defects,
    polyline_sampler,
    refine_roots,
    sogo_turning_angles,
    spline_centered,
    spline_circumscribed,
    spline_inscribed,
)

from conftest import CONTINUED_ANGLES, HAIRPIN_ANGLES, ZIGZAG_ANGLES, project_to_constraints


def _wrap(a):
    return math.remainder(a, 2.0 * math.pi)


def _hexagon(closed=True):
    ang = np.arange(6) * math.pi / 3.0
    return DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=closed)


# ---------------------------------------------------------------------------
# inscribed


def test_inscribed_hexagon_arcs():
    sp = spline_inscribed(refine(_hexagon()))
    assert len(sp.segments) == 6
    radii = [s.radius for s in sp.segments]
    np.testing.assert_allclose(radii, math.sqrt(3.0) / 2.0, atol=1e-12)
    pos, ang = g1_defects(sp)
    assert pos <= 1e-12 and ang <= 1e-12
    assert sp.total_length() == pytest.approx(6 * math.sqrt(3.0) / 2.0 * math.pi / 3.0)


def test_inscribed_hexagon_of_unit_circle():
    # hexagon circumscribing the unit circle: edges tangent at midpoints,
    # so the arc spline is exactly the unit circle
    hexa = ngon_of_circle(1.0, 6, Convention.CIRCUMSCRIBED)
    sp = spline_inscribed(refine(hexa))
    for seg in sp.segments:
        assert seg.radius == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(seg.center, 0.0, atol=1e-12)


def test_inscribed_l_shape():
    rc = refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])))
    sp = spline_inscribed(rc)
    kinds = [type(s).__name__ for s in sp.segments]
    assert kinds == ["LineSegment", "ArcSegment", "LineSegment"]
    arc = sp.segments[1]
    # kappa = tan(theta/2)/ell with theta = pi/2, ell = 1/2
    assert arc.radius == pytest.approx(0.5 / math.tan(math.pi / 4.0))
    # interpolates the edge midpoints tangentially
    np.testing.assert_allclose(arc.point_at(0.0), [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(arc.point_at(arc.length), [1.0, 0.5], atol=1e-12)
    pos, ang = g1_defects(sp)
    assert pos <= 1e-12 and ang <= 1e-12


def test_inscribed_straight_is_lines():
    rc = refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))
    sp = spline_inscribed(rc)
    assert all(isinstance(s, LineSegment) for s in sp.segments)
    assert sp.total_length() == pytest.approx(2.0)


def test_inscribed_interpolates_midpoints(rng):
    from conftest import make_random_refined

    rc, _ = make_random_refined(rng, 17, planar=True)
    sp = spline_inscribed(rc)
    joints = [seg.point_at(0.0) for seg in sp.segments]
    mids = rc.points[0::2] if rc.vertex_parity == 1 else rc.points[1::2]
    for j in joints[1:]:
        assert np.min(np.linalg.norm(mids - j, axis=1)) <= 1e-10


# ---------------------------------------------------------------------------
# clothoid evaluation


def _clothoid_oracle(kappa0, a, theta0, s):
    """Displacement by adaptive quadrature over pieces of at most 2 rad of turning."""
    theta = lambda t: theta0 + kappa0 * t + 0.5 * a * t * t  # noqa: E731
    edges = np.linspace(0.0, s, max(1, math.ceil(abs(kappa0 * s) + 0.5 * abs(a) * s * s)) + 1)
    xy = np.zeros(2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        for i, f in enumerate((math.cos, math.sin)):
            xy[i] += quad(lambda t: f(theta(t)), lo, hi, epsabs=1e-14 * (hi - lo), limit=200)[0]
    return xy


@st.composite
def _clothoids(draw):
    """(kappa0, a, theta0, s) with |a| s^2 in [1e-12, 10] and kappa0^2 / |a| up to 1e15."""
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    a = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 1.0)) / (s * s)
    kappa0 = draw(st.sampled_from([-1.0, 1.0])) * math.sqrt(10.0 ** draw(st.floats(-6.0, 15.0)) * abs(a))
    assume(abs(kappa0) * s <= 300.0)  # keeps the oracle's pieces few
    return kappa0, a, draw(st.floats(-math.pi, math.pi)), s


@given(_clothoids())
@example((100.0, 2.6e-7, 0.0, 2.0))  # kappa0^2 / a = 3.8e10: a completed-square Fresnel form loses 4e-8
@settings(max_examples=60, deadline=None)
def test_clothoid_xy_matches_quadrature(clothoid):
    kappa0, a, theta0, s = clothoid
    xy = clothoid_xy(kappa0, a, theta0, np.array([s, 0.5 * s, 0.0]))
    assert xy.shape == (3, 2)
    for row, v in zip(xy, (s, 0.5 * s)):
        assert np.max(np.abs(row - _clothoid_oracle(kappa0, a, theta0, v))) <= 1e-11 * max(1.0, v)
    assert np.all(xy[2] == 0.0)


def test_clothoid_xy_nearly_circular():
    kappa0 = 1e-10
    s = np.linspace(0.0, 1e3, 16001)
    xy = clothoid_xy(kappa0, 0.0, 0.0, s)
    np.testing.assert_allclose(xy[:, 0], np.sin(kappa0 * s) / kappa0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(xy[:, 1], 2.0 * np.sin(kappa0 * s / 2.0) ** 2 / kappa0, rtol=0, atol=1e-9)


def _polylines(sampled):
    """The per-segment polylines of a sampler's (points, starts)."""
    points, starts = sampled
    assert starts[0] == 0 and starts[-1] == len(points) and (np.diff(starts) >= 2).all()
    return np.split(points, starts[1:-1])


def test_segment_polylines_match_pointwise_evaluation():
    arc = ArcSegment(np.array([0.5, -1.0]), 2.0, 0.3, -2.5)
    clothoid = ClothoidSegment(np.array([1.0, 2.0]), 0.4, -0.7, 1.3, 3.0)
    # each segment alone, and both sampled together
    for segs in ([arc], [clothoid], [arc, clothoid]):
        for seg, pts in zip(segs, _polylines(polyline_sampler(spline2d.Spline(segs))(1e-4)), strict=True):
            s = np.linspace(0.0, seg.length, len(pts))
            atol = 0.0 if seg is arc else 1e-14
            np.testing.assert_allclose(pts, [seg.point_at(v) for v in s], rtol=0, atol=atol)


def _reference_polyline(seg, tol):
    """A segment's polyline at chord tolerance tol, sampled on its own."""
    if isinstance(seg, LineSegment):
        return np.array([seg.start, seg.start + seg.length * seg.direction])
    if isinstance(seg, ArcSegment):
        n = max(2, int(math.ceil(abs(seg.sweep) / max(2.0 * math.sqrt(2.0 * tol / seg.radius), 1e-6))) + 1)
    elif isinstance(seg, ClothoidSegment):
        kmax = max(abs(seg.kappa0), abs(seg.kappa0 + seg.sharpness * seg.length), 1e-9)
        n = max(2, int(math.ceil(seg.length / math.sqrt(8.0 * tol / kmax))) + 1)
    else:
        return seg.node_points()
    return seg.point_at(np.linspace(0.0, seg.length, n))


_XY = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array)
_ANGLE = st.floats(-math.pi, math.pi)
_SAMPLED_SEGMENT = st.one_of(
    st.builds(lambda p, a, length: LineSegment(p, np.array([math.cos(a), math.sin(a)]), length),
              _XY, _ANGLE, st.floats(0.01, 5.0)),
    st.builds(ArcSegment, _XY, st.floats(0.05, 20.0), _ANGLE,
              st.floats(0.01, 2.0 * math.pi) | st.floats(-2.0 * math.pi, -0.01)),
    st.builds(ClothoidSegment, _XY, _ANGLE, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.01, 5.0)),
    st.builds(lambda p, n, a, b, length: ElasticaSegment(p, a + b * np.linspace(0.0, 1.0, n) ** 2, length),
              _XY, st.sampled_from([17, 33]), _ANGLE, st.floats(-3.0, 3.0), st.floats(0.01, 5.0)),
)


@given(
    st.lists(_SAMPLED_SEGMENT, min_size=1, max_size=12),
    st.lists(st.sampled_from([1e-4, 1e-3, 0.0123, 0.5]), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_polyline_sampler_matches_per_segment_sampling(segs, tols):
    sample = polyline_sampler(spline2d.Spline(segs))
    for tol in tols:
        got = _polylines(sample(tol))
        assert len(got) == len(segs)
        for seg, pts in zip(segs, got):
            want = _reference_polyline(seg, tol)
            assert pts.shape == want.shape
            assert np.all(np.abs(pts - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), type(seg).__name__


@given(st.lists(_SAMPLED_SEGMENT, min_size=1, max_size=12), st.sampled_from([1e-4, 1e-3, 0.0123, 0.5]))
@settings(max_examples=60, deadline=None)
def test_polyline_sampler_keeps_arc_chords_without_arcs(segs, tol):
    """With arcs false the sampler keeps each arc's chord, whose ends are those of the
    arc sampled at tol, bit for bit, and samples every other segment as with arcs."""
    sample = polyline_sampler(spline2d.Spline(segs))
    sampled = (_polylines(sample(tol)), _polylines(sample(tol, arcs=False)), _polylines(sample(math.inf)))
    for seg, pts, kept, chord in zip(segs, *sampled, strict=True):
        if isinstance(seg, ArcSegment):
            assert kept.tobytes() == chord.tobytes() == pts[[0, -1]].tobytes()
        else:
            assert kept.tobytes() == pts.tobytes()


def test_polyline_sampler_of_no_segments():
    sample = polyline_sampler(spline2d.Spline(()))
    for points, starts in (sample(math.inf), sample(1e-3), sample(1e-3, arcs=False)):
        assert points.shape == (0, 2) and starts.tolist() == [0]


def test_polyline_sampler_counts_before_sampling():
    # one turn of radius 1e12 at chord tolerance 1e-3 asks for 2*pi/1e-6 angle steps
    arc = ArcSegment(np.array([0.0, 0.0]), 1e12, 0.0, 2.0 * math.pi)
    sample = polyline_sampler(spline2d.Spline([arc]))
    tracemalloc.start()
    with pytest.raises(InputError, match="6.28319e\\+06 points, over the limit of 1000000"):
        sample(1e-3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1e5  # the 6.3e6 samples would take 50 MB per coordinate array
    assert len(sample(1e3)[0]) == math.ceil(2.0 * math.pi / (2.0 * math.sqrt(2e-9))) + 1


# ---------------------------------------------------------------------------
# clothoid fitting / circumscribed


def test_clothoid_fit_line_shortcut():
    seg = clothoid_g1_fit([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0])
    assert isinstance(seg, LineSegment)
    assert seg.length == pytest.approx(2.0)


def test_clothoid_fit_arc_shortcut():
    # symmetric tangents: quarter circle of radius 1
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    seg = clothoid_g1_fit([0.0, 0.0], [c, s], [math.sqrt(2.0), 0.0], [c, -s])
    assert isinstance(seg, ArcSegment)
    assert seg.radius == pytest.approx(1.0)
    assert seg.length == pytest.approx(math.pi / 2.0)


def test_clothoid_fit_random_poses(rng):
    for _ in range(40):
        p0 = rng.normal(size=2)
        p1 = p0 + rng.normal(size=2)
        if np.linalg.norm(p1 - p0) < 0.1:
            continue
        a0, a1 = rng.uniform(-2.0, 2.0, 2)
        t0 = np.array([math.cos(a0), math.sin(a0)])
        t1 = np.array([math.cos(a1), math.sin(a1)])
        seg = clothoid_g1_fit(p0, t0, p1, t1)
        end = seg.point_at(seg.length)
        assert np.linalg.norm(end - p1) <= 1e-8 * max(1.0, np.linalg.norm(p1 - p0))
        gap = seg.angle_at(seg.length) - a1
        assert abs(math.remainder(gap, 2.0 * math.pi)) <= 1e-8


def test_clothoid_fit_coincident_points():
    with pytest.raises(InputError):
        clothoid_g1_fit([0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0])


_OUTSIDE = " is outside the supported range \\[1e-150, 1e\\+150\\]$"


@pytest.mark.parametrize(
    "p0, t0, p1, t1, match",
    [
        ([math.nan, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], "^fit chord length nan" + _OUTSIDE),
        ([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], "tangents"),
        ([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [math.inf, 0.0], "tangents"),
        ([0.0, 0.0], [1.0, 0.0], [1e308, 1e308], [1.0, 0.0], "^fit chord length 1.4142135623730951e\\+308" + _OUTSIDE),
        ([-1e308, 0.0], [1.0, 0.0], [1e308, 0.0], [1.0, 0.0], "^fit chord length inf" + _OUTSIDE),
        # the squares of the chord overflow or underflow, not its length
        ([0.0, 0.0], [1.0, 0.0], [1e200, 1e200], [1.0, 0.0], "^fit chord length 1.414213562373095e\\+200" + _OUTSIDE),
        ([0.0, 0.0], [1.0, 0.0], [1e-200, 1e-200], [1.0, 0.0], "^fit chord length 1.414213562373095e-200" + _OUTSIDE),
    ],
    ids=["nan-point", "zero-tangent", "infinite-tangent", "overflowing-chord", "overflowing-difference",
         "squares-overflow", "squares-underflow"],
)
def test_clothoid_fit_rejects_bad_input(p0, t0, p1, t1, match):
    """A chord outside EDGE_RANGE is named by its length, also where its squares overflow
    or underflow: past that range a clothoid's sharpness 2A/L^2 is no normal double."""
    with pytest.raises(InputError, match=match), warnings.catch_warnings():
        warnings.simplefilter("error")
        clothoid_g1_fit(p0, t0, p1, t1)


def test_circumscribed_hexagon_is_circle():
    sp = spline_circumscribed(_hexagon())
    assert len(sp.segments) == 6
    for seg in sp.segments:
        assert isinstance(seg, ArcSegment)
        assert seg.radius == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(seg.center, 0.0, atol=1e-12)
    assert sp.total_length() == pytest.approx(2.0 * math.pi)


def test_circumscribed_collinear_is_lines():
    dc = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]))
    sp = spline_circumscribed(dc)
    assert all(isinstance(s, LineSegment) for s in sp.segments)


def test_circumscribed_general_curve_g1():
    dc = DiscreteCurve(
        np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.9], [2.4, 2.0], [2.0, 3.0]])
    )
    sp = spline_circumscribed(dc)
    pos, ang = g1_defects(sp)
    assert pos <= 1e-8 and ang <= 1e-8
    # interpolates every vertex
    for seg, p in zip(sp.segments, dc.points):
        np.testing.assert_allclose(seg.point_at(0.0), p, atol=1e-12)


# the circumscribed spline of the demo polyline, per span (start angle, kappa0,
# sharpness, length), as the per-span scalar Newton solve fitted it
_DEMO_CLOTHOIDS = [
    (0.0, -0.5460546822303657, 1.6311130582208024, 1.0050479965046497),
    (0.27500000000000013, 0.6924991877973634, -0.4398111449704091, 1.0096034048010707),
    (0.75, 0.1499456412997902, 0.7289695453085269, 1.0119663358507704),
    (1.2750000000000001, 0.9377324030996568, -0.876706784878248, 1.0110535121858821),
    (1.7750000000000001, 0.6982673478169376, -1.0451133252399545, 1.0020427071258289),
]


def test_circumscribed_demo_segments_are_pinned():
    sp = spline_circumscribed(_unit_step_polyline(_SPLINE_DEMO_ANGLES))
    assert [type(seg) for seg in sp.segments] == [ClothoidSegment] * len(_DEMO_CLOTHOIDS)
    for seg, pinned in zip(sp.segments, _DEMO_CLOTHOIDS):
        got = (seg.start_angle, seg.kappa0, seg.sharpness, seg.length)
        np.testing.assert_allclose(got, pinned, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "a0, a1, k, pinned",
    [
        (-3.1, 2.0, -1, (6.419044614615462, -5.0488128478993035, 2.715401083144556)),
        (3.1, -2.0, 1, (-6.419044614615462, 5.0488128478993035, 2.715401083144556)),
        (-2.5, 2.9, -1, (7.01411274958074, -6.983856806758676, 2.1275442902635686)),
    ],
)
def test_clothoid_fit_takes_a_shorter_winding_branch(a0, a1, k, pinned):
    # the shortest admissible clothoid turns by a1 - a0 + 2 pi k with k = +-1;
    # kappa0, sharpness and length as the per-span scalar solve fitted them
    seg = clothoid_g1_fit([0.0, 0.0], [math.cos(a0), math.sin(a0)], [1.0, 0.0], [math.cos(a1), math.sin(a1)])
    assert isinstance(seg, ClothoidSegment) and seg.start_angle == pytest.approx(a0, abs=1e-15)
    np.testing.assert_allclose((seg.kappa0, seg.sharpness, seg.length), pinned, rtol=1e-13, atol=1e-13)
    turn = seg.kappa0 * seg.length + 0.5 * seg.sharpness * seg.length**2
    assert turn == pytest.approx(a1 - a0 + 2.0 * math.pi * k, abs=1e-12)


def _assert_same_segment(a, b, tol=1e-13):
    assert type(a) is type(b)
    for name in ("length", "kappa0", "sharpness", "radius", "sweep", "start_angle"):
        if hasattr(a, name):
            v, w = getattr(a, name), getattr(b, name)
            assert abs(v - w) <= tol * max(1.0, abs(v)), (name, v, w)


@st.composite
def _pose_rows(draw):
    """(p0, t0, p1, t1) rows with chords of 0.1-10 and tangents up to 3 rad off
    the chord; some rows are symmetric (arcs) or aligned with it (lines)."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        p0 = np.array(draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))))
        psi, d = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.1, 10.0))
        kind = draw(st.sampled_from(["clothoid", "clothoid", "arc", "line"]))
        a0 = 0.0 if kind == "line" else draw(st.floats(-3.0, 3.0))
        a1 = draw(st.floats(-3.0, 3.0)) if kind == "clothoid" else -a0
        unit = lambda a: np.array([math.cos(psi + a), math.sin(psi + a)])  # noqa: E731
        rows.append((p0, unit(a0), p0 + d * unit(0.0), unit(a1)))
    return rows


@given(_pose_rows())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_batched_fit_equals_the_one_span_fits(rows):
    try:
        batch = spline2d.Spline(tables=spline2d._fit_spans(*map(np.array, zip(*rows)))).segments
    except NoConvergence:
        # then some row fails on its own too
        with pytest.raises(NoConvergence):
            for row in rows:
                clothoid_g1_fit(*row)
        return
    for seg, row in zip(batch, rows):
        _assert_same_segment(seg, clothoid_g1_fit(*row))


def test_winding_branches_lose_on_the_quarter_turn_square():
    # the computed half of the lemma in _fit_spans' docstring, with its constants
    k_bound = 1.0 / 30.0  # |Y''(A)| <= int_0^1 (u - u^2)^2 du
    # (i) k = 0: Kantorovich at Newton's start A0 = 3 (phi0 + phi1), each node's values
    # moved to the worst the proof allows in its cell, where |dphi0| + |dphi1| <= spread
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 159)
    spread = grid[1] - grid[0]
    phi0, phi1 = (v.ravel() for v in np.meshgrid(grid, grid))
    a0 = 3.0 * (phi0 + phi1)
    x, y, dy = spline2d._phase_integrals(phi0, phi1 - phi0 - a0, a0).T
    y_max, dy_min = np.abs(y) + 8.0 / 27.0 * spread, np.abs(dy) - 2.0 / 27.0 * spread
    assert dy_min.min() >= 0.127 and (k_bound * y_max / dy_min**2).max() <= 0.069
    r = 2.0 * y_max / (dy_min + np.sqrt(dy_min**2 - 2.0 * k_bound * y_max))
    assert r.max() <= 0.30
    x0 = (x - 8.0 / 27.0 * spread - r / 6.0).min()
    assert x0 >= 0.622  # L / d <= 1.61 on k = 0
    # the solver's roots are the ones the proof finds
    a, x_root = spline2d._clothoid_roots(phi0, phi1 - phi0)
    assert (np.abs(a - a0) <= r).all() and x_root.min() >= x0

    # (ii) k = 1 at every A, by Taylor at the nodes of the square times [-48, 48]; X is
    # int_0^1 cos theta du and its gradient in (phi0, phi1, A), by 12-point Gauss-Legendre
    # on 48 panels, exact to rounding: theta turns by at most 3 pi + 48 rad, 1.2 rad a panel
    u, w = np.polynomial.legendre.leggauss(12)
    u, w = ((np.arange(48)[:, None] + 0.5 * (u + 1.0)) / 48.0).ravel(), np.tile(w, 48) / 96.0
    grid, slopes = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 17), np.linspace(-48.0, 48.0, 97)
    h_phi, h_a = grid[1] - grid[0], slopes[1] - slopes[0]
    phi0, phi1 = (v.ravel()[:, None] for v in np.meshgrid(grid, grid))
    second_order = 0.5 * (h_phi**2 / 4.0 + h_phi * h_a / 12.0 + h_a**2 / 120.0)  # half of max int (dtheta)^2
    x1 = 0.0
    for a in slopes:
        theta = phi0 * (1.0 - u) + phi1 * u + 2.0 * math.pi * u - a * u * (1.0 - u)
        sin = np.sin(theta)
        gradient = (np.abs(sin @ (w * (1.0 - u))) + np.abs(sin @ (w * u))) * h_phi / 2.0
        gradient += np.abs(sin @ (w * u * (1.0 - u))) * h_a / 2.0
        x1 = max(x1, (np.cos(theta) @ w + gradient).max() + second_order)
    assert x1 <= 0.551
    tail = 4.0 / math.sqrt(48.0)  # X <= 4 / sqrt|A| beyond the grid
    assert 1.0 / max(x1, tail) - 1.0 / x0 >= 0.12  # L / d on k = +-1 less L / d on k = 0


def _three_branch_fit(p0, t0, p1, t1):
    """(start angle, kappa0 d, sharpness d^2, length / d) per row, d the chord, from
    _clothoid_roots on all three winding branches k = 0, -1, 1 of every row and the
    shortest admissible one, the first in that order on a tie."""
    chord = p1 - p0
    d, psi = np.linalg.norm(chord, axis=1), np.arctan2(chord[:, 1], chord[:, 0])
    phi0, phi1 = (spline2d._wrap_angle(np.arctan2(t[:, 1], t[:, 0]) - psi) for t in (t0, t1))
    delta = ((phi1 - phi0)[:, None] + 2.0 * math.pi * np.array([0.0, -1.0, 1.0])).ravel()
    a, x = spline2d._clothoid_roots(np.repeat(phi0, 3), delta)
    lengths = np.where(x > 1e-9, 1.0 / np.where(x > 1e-9, x, 1.0), math.inf)
    pick = 3 * np.arange(len(d)) + np.argmin(lengths.reshape(-1, 3), axis=1)
    length, a = lengths[pick], a[pick]
    return np.column_stack([psi + phi0, (delta[pick] - a) / length, 2.0 * a / length**2, length])


@st.composite
def _quarter_turn_rows(draw):
    """Pose rows with chords of 1e-3 to 1e3 whose chord-frame end angles are
    below pi/2 in size, some by a factor 1 - 10^-k of it, and, in some batches,
    rows with an end angle of pi/2 to 3, arcs and lines."""
    kinds = st.sampled_from(["quarter", "quarter", "wide", "arc", "line"] if draw(st.booleans()) else ["quarter"])
    sign = st.sampled_from((-1.0, 1.0))
    edge = st.integers(1, 12).map(lambda k: 0.5 * math.pi * (1.0 - 10.0**-k))
    below = st.one_of(st.floats(-0.5 * math.pi, 0.5 * math.pi, exclude_min=True, exclude_max=True), edge)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(kinds)
        a0, a1 = (draw(below) * draw(sign) for _ in range(2))
        if kind == "wide":
            a0 = draw(st.floats(0.5 * math.pi, 3.0)) * draw(sign)
            a0, a1 = (a0, a1) if draw(st.booleans()) else (a1, a0)
        a0 = 0.0 if kind == "line" else a0
        a1 = -a0 if kind in ("arc", "line") else a1
        assume(kind == "line" or abs(a0 if kind == "arc" else a0 + a1) > 1e-9)  # else a line or an arc
        p0 = np.array(draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))))
        psi, d = draw(st.floats(-math.pi, math.pi)), 10.0 ** draw(st.floats(-3.0, 3.0))
        unit = lambda a: np.array([math.cos(psi + a), math.sin(psi + a)])  # noqa: E731
        rows.append((kind, (p0, unit(a0), p0 + d * unit(0.0), unit(a1))))
    return rows


@given(_quarter_turn_rows())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_quarter_turn_fits_equal_the_three_branch_fits(rows):
    kinds, poses = zip(*rows)
    poses = [np.array(v) for v in zip(*poses)]
    segments = spline2d.Spline(tables=spline2d._fit_spans(*poses)).segments
    oracle = _three_branch_fit(*poses)
    expected = {"line": LineSegment, "arc": ArcSegment, "quarter": ClothoidSegment, "wide": ClothoidSegment}
    assert [type(seg) for seg in segments] == [expected[kind] for kind in kinds]
    for seg, want, d in zip(segments, oracle, np.linalg.norm(poses[2] - poses[0], axis=1)):
        if isinstance(seg, ClothoidSegment):
            got = np.array([seg.start_angle, seg.kappa0 * d, seg.sharpness * d * d, seg.length / d])
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), (got, want)


def test_quarter_turn_spans_solve_one_root_row_each(monkeypatch):
    solved, bracketed = [], []
    roots, bracket = spline2d._clothoid_roots, spline2d._bracket_roots
    monkeypatch.setattr(spline2d, "_clothoid_roots", lambda phi0, delta: solved.append(len(phi0)) or roots(phi0, delta))
    monkeypatch.setattr(spline2d, "_bracket_roots", lambda *args: bracketed.append(args) or bracket(*args))
    # a vertex tangent bisects its edges: every span's end angles are half a turn, below pi/2
    rng, edge = np.random.default_rng(21), math.pi - 1e-6
    uniform = [rng.uniform(-edge, edge, n) for n in range(2, 9)]
    hairpins = [rng.choice([-1.0, 1.0], n) * rng.uniform(2.6, edge, n) for n in range(2, 9)]
    for turns in [*uniform, *hairpins, [edge, -edge, edge, edge], [-edge, 0.3, edge]]:
        points = _unit_step_polyline(turns).points
        # closed through one more point off to the side, where no edges are antiparallel
        closed = DiscreteCurve(np.vstack([points, points.mean(axis=0) + [0.0, 20.0]]), closed=True)
        for dc in (DiscreteCurve(points), closed):
            solved.clear()
            sp = spline_circumscribed(dc)
            assert solved == [sum(isinstance(seg, ClothoidSegment) for seg in sp.segments)]
    assert bracketed == []
    # an end angle of pi/2 or more keeps all three winding branches
    solved.clear()
    clothoid_g1_fit([0.0, 0.0], [math.cos(-3.1), math.sin(-3.1)], [1.0, 0.0], [math.cos(2.0), math.sin(2.0)])
    assert solved == [3]
    solved.clear()
    clothoid_g1_fit([0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [math.cos(0.3), math.sin(0.3)])
    assert solved == [3]


def _criterion_08_poses():
    """The pose pairs of acceptance criterion 08, drawn in the same order."""
    rng = np.random.default_rng(808)
    for _ in range(1000):
        p0 = rng.normal(size=2)
        chord_angle = rng.uniform(-math.pi, math.pi)
        p1 = p0 + rng.uniform(0.3, 3.0) * np.array([math.cos(chord_angle), math.sin(chord_angle)])
        a0 = chord_angle + rng.uniform(-math.pi / 4.0, math.pi / 4.0)
        a1 = chord_angle + rng.uniform(-math.pi / 4.0, math.pi / 4.0)
        yield p0, np.array([math.cos(a0), math.sin(a0)]), p1, np.array([math.cos(a1), math.sin(a1)])


def test_bracket_fallback_runs_on_no_criterion_08_fit(monkeypatch):
    calls = []
    monkeypatch.setattr(spline2d, "_bracket_roots", lambda *args: calls.append(args))
    for pose in _criterion_08_poses():
        clothoid_g1_fit(*pose)
    assert calls == []


@st.composite
def _bracketed_roots(draw):
    """(f, lo, hi, roots): sin(w (t - r)) with brackets about its roots r + k pi / w,
    or (t - r) ((t - c)^2 + d) with brackets about r; each holds one simple root."""
    r = draw(st.floats(-10.0, 10.0))
    fraction = st.floats(0.01, 0.99)
    if draw(st.booleans()):
        w = draw(st.floats(1.0, 20.0))
        rows = draw(st.lists(st.tuples(st.integers(-3, 3), fraction, fraction), min_size=1, max_size=12))
        roots = np.array([r + k * math.pi / w for k, _, _ in rows])
        lo = roots - np.array([a for _, a, _ in rows]) * math.pi / w
        hi = roots + np.array([b for _, _, b in rows]) * math.pi / w
        return (lambda t: np.sin(w * (t - r))), lo, hi, roots
    c, d = draw(st.floats(-10.0, 10.0)), draw(st.floats(0.01, 10.0))
    width = st.floats(1e-6, 10.0)
    rows = draw(st.lists(st.tuples(width, width), min_size=1, max_size=12))
    lo, hi = (r + np.array(v) for v in ([-a for a, _ in rows], [b for _, b in rows]))
    return (lambda t: (t - r) * ((t - c) ** 2 + d)), lo, hi, np.full(len(rows), r)


@given(_bracketed_roots(), st.sampled_from([1e-13, 1e-10, 1e-6]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_refine_roots_meets_brentq(case, xtol):
    f, lo, hi, roots = case
    got = refine_roots(f, lo, hi, xtol)
    assert np.all(np.abs(got - roots) <= xtol), np.abs(got - roots).max()
    oracle = np.array([brentq(lambda t: float(f(t)), a, b, xtol=xtol) for a, b in zip(lo, hi)])
    assert np.all(np.abs(got - oracle) <= 2.0 * xtol), np.abs(got - oracle).max()
    assert got.tolist() == [refine_roots(f, a, b, xtol)[0] for a, b in zip(lo, hi)]


def test_refine_roots_at_a_zero_end_and_without_a_sign_change():
    # a zero at either end of a bracket is its root, exactly
    assert refine_roots(lambda t: t - 1.0, [1.0, 0.0], [2.0, 1.0], 1e-13).tolist() == [1.0, 1.0]
    got = refine_roots(lambda t: (t - 3.0) ** 2 + 1.0, [0.0, 2.0], [1.0, 4.0], 1e-13)
    assert np.isnan(got).all()


def test_refine_roots_passes_per_bracket_arrays_to_f():
    # f gets each bracket's entry of args at each of its points, and only the live brackets'
    calls = []

    def f(t, r, w):
        calls.append(len(t))
        return w * (t - r)

    r, w = np.array([0.3, 0.5, 0.75]), np.array([1.0, -2.0, 3.0])
    got = refine_roots(f, [0.0, 0.5, 0.0], [1.0, 1.0, 0.5], 1e-13, r, w)
    assert abs(got[0] - 0.3) <= 1e-13 and got[1] == 0.5 and math.isnan(got[2])
    # the second bracket has a zero at its start and the third no sign change: both end in round one
    assert calls[0] == 3 * 65 and set(calls[1:]) == {65}


def test_bracket_roots_of_a_hairpin_keep_its_sign_change():
    # Y at this bracket's end is about 1e-17: refine_roots keeps its sign change only
    # while the quadrature's rows do not depend on their batch
    phi0, delta = np.array([-1.5598699040726263]), np.array([-6.238749270551619])
    a = spline2d._bracket_roots(phi0, delta, np.array([-38.07546723609062]))
    assert np.isfinite(a).all()
    assert abs(spline2d._phase_integrals(phi0, delta - a, a)[0, 1]) <= 1e-14


def test_bracket_fallback_returns_the_newton_root(monkeypatch):
    # chord-frame end angles up to pi/4, as in criterion 08, on all three winding branches
    phi0, phi1 = (a.ravel() for a in np.meshgrid(np.linspace(-0.78, 0.78, 5), np.linspace(-0.77, 0.77, 4)))
    phi0 = np.repeat(phi0, 3)
    delta = np.repeat(phi1, 3) - phi0 + 2.0 * math.pi * np.tile([0.0, -1.0, 1.0], len(phi1))
    calls = []
    bracket = spline2d._bracket_roots
    monkeypatch.setattr(spline2d, "_bracket_roots", lambda *args: calls.append(len(args[0])) or bracket(*args))
    newton = spline2d._clothoid_roots(phi0, delta)
    assert calls == []
    fallback = spline2d._clothoid_roots(phi0, delta, max_iter=2)  # too few steps for most rows
    assert len(calls) == 1 and calls[0] > len(phi0) // 2  # one scan for all of them
    np.testing.assert_allclose(fallback, newton, rtol=0.0, atol=1e-12)


@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_phase_integral_rows_do_not_depend_on_their_batch(rows, seed):
    # phase changes from 0 to 80 rad: 1 to 54 panels, mixed in one call
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-4.0, 4.0, rows)
    c1, c2 = rng.choice([0.0, 1.0, 10.0, 40.0], size=(2, rows)) * rng.uniform(-1.0, 1.0, (2, rows))
    batch = spline2d._phase_integrals(c0, c1, c2)
    for i in range(rows):
        np.testing.assert_array_equal(batch[i], spline2d._phase_integrals(c0[i], c1[i], c2[i]))
    part = rng.permutation(rows)[: rng.integers(1, rows + 1)]
    np.testing.assert_array_equal(batch[part], spline2d._phase_integrals(c0[part], c1[part], c2[part]))


@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.sampled_from([200, 2, 0]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_clothoid_root_rows_do_not_depend_on_their_batch(rows, seed, max_iter):
    # end angles up to 3 rad on all three winding branches; with 2 or 0 Newton steps
    # most or all rows go to the bracket fallback
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(-3.0, 3.0, rows)
    delta = rng.uniform(-3.0, 3.0, rows) - phi0 + 2.0 * math.pi * rng.integers(-1, 2, rows)
    batch = np.column_stack(spline2d._clothoid_roots(phi0, delta, max_iter))
    for i in range(rows):
        alone = spline2d._clothoid_roots(phi0[i : i + 1], delta[i : i + 1], max_iter)
        np.testing.assert_array_equal(batch[i], np.concatenate(alone))


def _joint_gaps(sp):
    """g1_defects as two point_at calls per joint compute it."""
    segs = sp.segments
    pairs = list(zip(segs[:-1], segs[1:])) + ([(segs[-1], segs[0])] if sp.closed else [])
    pos = max(float(np.linalg.norm(a.point_at(a.length) - b.point_at(0.0))) for a, b in pairs)
    ang = max(abs(math.remainder(a.angle_at(a.length) - b.angle_at(0.0), 2.0 * math.pi)) for a, b in pairs)
    return pos, ang


def test_g1_defects_match_pointwise_joints():
    mixed = (
        LineSegment(np.array([0.0, 0.0]), np.array([0.6, 0.8]), 2.0),
        ArcSegment(np.array([1.0, -1.0]), 2.0, 0.3, -2.5),
        ClothoidSegment(np.array([1.0, 2.0]), 0.4, -0.7, 1.3, 3.0),
        ElasticaSegment(np.array([0.5, 0.5]), np.linspace(0.0, 1.0, 17), 1.5),
        ElasticaSegment(np.array([-1.0, 0.5]), np.sin(np.linspace(0.0, 3.0, 33)), 2.5),
        ClothoidSegment(np.array([-2.0, 1.0]), -1.1, 0.3, -0.2, 1.7),
    )
    splines = [spline2d.Spline(mixed, closed=closed) for closed in (False, True)]
    for dc in (_hexagon(), _unit_step_polyline(_SPLINE_DEMO_ANGLES)):
        rc = refine(dc)
        splines += [spline_inscribed(rc), spline_circumscribed(dc), spline_centered(rc, n=16)]
    for sp in splines:
        pos, ang = g1_defects(sp)
        old_pos, old_ang = _joint_gaps(sp)
        assert abs(pos - old_pos) <= 1e-14 * max(1.0, old_pos)
        assert abs(ang - old_ang) <= 1e-14
    assert g1_defects(spline2d.Spline(mixed[:1])) == (0.0, 0.0)


def _segment_energy(seg):
    """A segment's bending energy from its own fields, one segment at a time."""
    if isinstance(seg, LineSegment):
        return 0.0
    if isinstance(seg, (ArcSegment, ClothoidSegment)):  # int_0^L (kappa0 + a s)^2 ds, scale-free
        L = seg.length
        v, u = (L / seg.radius, 0.0) if isinstance(seg, ArcSegment) else (seg.kappa0 * L, seg.sharpness * L * L)
        return (v * v + v * u + u * u / 3.0) / L
    return elastica_energy(seg.thetas, seg.ds)


def _joint_turn_gap(segs, closed):
    """The largest tangent gap at the joints of segs, from two angle_at calls per joint."""
    joints = len(segs) if closed and len(segs) > 1 else len(segs) - 1
    pairs = zip(segs[:joints], segs[1:] + segs[:1])
    return max((abs(spline2d._wrap_angle(a.angle_at(a.length) - b.angle_at(0.0))) for a, b in pairs), default=0.0)


@given(st.lists(_SAMPLED_SEGMENT, min_size=1, max_size=12), st.booleans())
@settings(max_examples=80, deadline=None)
def test_segment_tables_equal_their_segments(segs, closed):
    """The tangent gap of g1_defects, read from the end-angle columns, and the length and
    energy of a spline are the per-segment values to the bit; the row views rebuilt
    from the tables hold the segments' own fields."""
    spline = spline2d.Spline(segs, closed=closed)
    assert g1_defects(spline)[1] == _joint_turn_gap(segs, closed)
    assert spline.total_length() == float(sum(seg.length for seg in segs))
    assert spline.energy() == float(sum(map(_segment_energy, segs)))
    assert [seg.energy() for seg in segs] == list(map(_segment_energy, segs))
    views = spline2d.Spline(tables=spline.tables, closed=closed).segments
    assert [type(view) for view in views] == [type(seg) for seg in segs]
    for seg, view in zip(segs, views):
        for field in dataclasses.fields(seg):
            assert np.array_equal(getattr(view, field.name), getattr(seg, field.name)), field.name


def test_g1_defects_of_more_elastica_nodes_than_a_drawing_may_hold():
    # the drawing limit counts arc and clothoid samples only, so the joints of
    # 16 000 spans of 65 nodes each (1.04e6 nodes) are still read from the sampler
    segs = [ElasticaSegment(np.array([float(k), 0.0]), np.zeros(65), 1.0) for k in range(16_000)]
    assert 65 * len(segs) > MAX_SAMPLES
    assert g1_defects(spline2d.Spline(segs)) == (0.0, 0.0)


def test_g1_defects_of_more_arcs_and_clothoids_than_a_drawing_may_hold(monkeypatch):
    # an arc or clothoid is its chord at tol inf: its two end points count
    # against the drawing limit no more than the two of a line do
    arcs = [ArcSegment(np.array([float(k), 0.0]), 1.0, 0.0, 1.0) for k in range(12)]
    clothoids = [ClothoidSegment(np.array([0.0, float(k)]), 0.0, 0.5, 0.1, 2.0) for k in range(12)]
    spline = spline2d.Spline(arcs + clothoids, closed=True)
    gaps = g1_defects(spline)
    monkeypatch.setattr(spline2d, "MAX_SAMPLES", 10)
    assert g1_defects(spline) == gaps
    with pytest.raises(InputError, match="over the limit of 10$"):
        polyline_sampler(spline)(1e-3)


# ---------------------------------------------------------------------------
# elastica


def test_elastica_straight():
    seg = elastica_bvp([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], 1.0)
    assert seg.energy() == 0.0
    np.testing.assert_allclose(seg.thetas, 0.0, atol=1e-12)


def test_elastica_quarter_arc():
    seg = elastica_bvp([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-1.0, 0.0], math.pi / 2.0)
    # circular arc is the energy minimizer; discrete energy = kappa^2 L
    assert seg.energy() == pytest.approx(math.pi / 2.0, abs=1e-8)
    d = np.diff(seg.thetas) / seg.ds
    np.testing.assert_allclose(d, 1.0, atol=1e-8)
    np.testing.assert_allclose(
        np.linalg.norm(seg.node_points(), axis=1), 1.0, atol=1e-9
    )


def test_elastica_infeasible():
    with pytest.raises(Infeasible):
        elastica_bvp([0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [1.0, 0.0], 1.0)
    with pytest.raises(Infeasible):
        # length equals chord but tangents disagree
        elastica_bvp([0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], 1.0)


@pytest.mark.parametrize(
    "p1, t0, length, n",
    [
        ([1.0, 0.5], [0.0, 0.0], 2.0, 64),  # a zero tangent
        ([1.0, 0.5], [math.inf, 0.0], 2.0, 64),  # an infinite tangent
        ([1.0, 0.5], [1e200, 1e200], 2.0, 64),  # a tangent whose norm overflows
        ([1.5e308, 1.5e308], [1.0, 0.0], 2.0, 64),  # a chord whose length overflows
        ([math.nan, 0.5], [1.0, 0.0], 2.0, 64),  # a nan end point
        ([1.0, 0.5], [1.0, 0.0], math.nan, 64),
        ([1.0, 0.5], [1.0, 0.0], math.inf, 64),
        ([1.0, 0.5], [1.0, 0.0], 0.0, 64),
        ([1.0, 0.5], [1.0, 0.0], -2.0, 64),
        ([1.0, 0.5], [1.0, 0.0], 2.0, 8),  # under 16 grid cells
    ],
    ids=["zero-tangent", "inf-tangent", "overflowing-tangent", "overflowing-chord", "nan-point", "nan-length",
         "inf-length", "zero-length", "negative-length", "coarse-grid"],
)
def test_elastica_rejects_malformed_input_before_any_solve(p1, t0, length, n, monkeypatch):
    calls = _count_newton_rows(monkeypatch)
    # InputError itself, not its subclass Infeasible: the pose, length or grid is malformed
    with pytest.raises(InputError, match="^elastica"), warnings.catch_warnings():
        warnings.simplefilter("error")
        elastica_bvp([0.0, 0.0], t0, p1, [0.0, 1.0], length, n)
    assert calls == []


@pytest.mark.parametrize(
    "p0, p1, length, error",
    [
        ([0.0, 0.0], [1e200, 1e200], 1e300, None),  # the squares of the chord overflow, not its length 1.4e200
        ([0.0, 0.0], [1e200, 1e200], 1e200, "^length 1e\\+200 shorter than chord 1.414213562373095e\\+200$"),
        ([-1e308, 0.0], [1e308, 0.0], 3.0, "^elastica chord p1 - p0 must have a finite length$"),
    ],
    ids=["squares-overflow", "squares-overflow-infeasible", "difference-overflows"],
)
def test_elastica_chords_near_the_overflow(p0, p1, length, error):
    """Without a numpy warning, a chord whose squares overflow keeps its length, and
    end points whose difference overflows are malformed: no message names a chord of inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            seg = elastica_bvp(p0, [1.0, 0.0], p1, [1.0, 0.0], length)
            pts, starts = polyline_sampler(spline2d.Spline([seg]))(math.inf)
            assert starts.tolist() == [0, len(pts)]
            assert seg.length == length and np.max(np.abs(pts[-1] - p1)) <= 1e-12 * length
        else:
            with pytest.raises(Infeasible if "shorter" in error else InputError, match=error):
                elastica_bvp(p0, [1.0, 0.0], p1, [1.0, 0.0], length)


def test_elastica_energy_of_stacked_rows_is_each_rows_to_the_bit(rng):
    rows = np.cumsum(rng.normal(0.0, 0.3, size=(7, 3, 65)), axis=-1)
    energies = elastica_energy(rows, 1.0 / 64)
    assert energies.shape == (7, 3)
    assert energies.tolist() == [[elastica_energy(row, 1.0 / 64) for row in span] for span in rows]


def test_elastica_buckled_multiple_solutions():
    with pytest.warns(MultipleSolutionsWarning):
        seg = elastica_bvp([0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.0, 0.0], 2.0)
    # compressed rod buckles to one side; mirror solution has equal energy
    assert seg.energy() > 0.0
    x, y = elastica_constraints(seg.thetas, seg.ds)
    assert x == pytest.approx(0.5, abs=1e-10)
    assert y == pytest.approx(0.0, abs=1e-10)


def test_elastica_euler_lagrange_residual():
    # second-order scheme: n = 2048 puts the residual under 1e-4
    seg = elastica_bvp(
        [0.0, 0.0], [1.0, 0.0], [0.9, 0.35], [0.0, 1.0], 1.3, n=2048
    )
    th = seg.thetas
    ds = seg.ds
    d1 = (th[3:-1] - th[1:-3]) / (2.0 * ds)
    d3 = (th[4:] - 2.0 * th[3:-1] + 2.0 * th[1:-3] - th[:-4]) / (2.0 * ds**3)
    resid = d3 + 0.5 * d1**3 + seg.c_const * d1
    assert np.max(np.abs(resid)) <= 1e-4


def test_elastica_local_minimality(rng):
    seg = elastica_bvp([0.0, 0.0], [1.0, 0.0], [0.9, 0.35], [0.0, 1.0], 1.3)
    ds = seg.ds
    target = elastica_constraints(seg.thetas, ds)
    e0 = elastica_energy(seg.thetas, ds)
    n = len(seg.thetas) - 1
    grid = np.linspace(0.0, 1.0, n + 1)
    for _ in range(20):
        pert = seg.thetas + 1e-3 * rng.normal() * np.sin(
            math.pi * rng.integers(1, 5) * grid
        )
        proj = project_to_constraints(pert, ds, target)
        if proj is None:
            continue
        assert elastica_energy(proj, ds) >= e0 - 1e-10


# ---------------------------------------------------------------------------
# centered splining


def test_centered_spline_hexagon_arcs():
    # centered hexagon of the unit-length circle: spans become arcs of the
    # radius-(3/pi ... ) no: use the centered polygon of the unit circle
    hexa = ngon_of_circle(1.0, 6, Convention.CENTERED)
    rc = refine(hexa)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleSolutionsWarning)
        sp = spline_centered(rc, n=32)
    assert len(sp.segments) == 6
    assert sp.total_length() == pytest.approx(2.0 * math.pi, abs=1e-9)
    pos, ang = g1_defects(sp)
    assert pos <= 1e-8
    # every span is a unit-curvature arc through the offset nodes
    for seg in sp.segments:
        d = np.diff(seg.thetas) / seg.ds
        np.testing.assert_allclose(d, 1.0, atol=1e-6)


def test_centered_spline_open_polyline():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + math.cos(0.8), math.sin(0.8)]])
    rc = refine(DiscreteCurve(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleSolutionsWarning)
        sp = spline_centered(rc, n=32)
    assert len(sp.segments) == 2
    # each span has length exactly 2*ell, so total length is preserved
    assert sp.total_length() == pytest.approx(2.0, abs=1e-12)
    # endpoints are interpolated
    np.testing.assert_allclose(sp.segments[0].point_at(0.0), pts[0], atol=1e-12)
    end = sp.segments[-1]
    np.testing.assert_allclose(end.point_at(end.length), pts[-1], atol=1e-8)


def _count_newton_rows(monkeypatch):
    """Rows given to each _newton_batch call, appended as the calls happen."""
    calls = []
    solve = spline2d._newton_batch

    def counting(starts, ds, targets, max_iter=100):
        calls.append(len(starts))
        return solve(starts, ds, targets, max_iter)

    monkeypatch.setattr(spline2d, "_newton_batch", counting)
    return calls


# per-span energies of spline_centered with the default arguments, as the
# per-start solver computed them before the spans were solved as one batch
_DEMO_SPAN_ENERGIES = (
    0.24988501050318304,
    0.23756400040962058,
    0.30904632257103737,
    0.29826326942162507,
    0.10098684063175005,
)
_HEXAGON_SPAN_ENERGY = 1.096622711232152


@pytest.mark.parametrize(
    "dc, energies",
    [
        (_unit_step_polyline(_SPLINE_DEMO_ANGLES), _DEMO_SPAN_ENERGIES),
        (_hexagon(), (_HEXAGON_SPAN_ENERGY,) * 6),
    ],
    ids=["demo-polyline", "hexagon"],
)
def test_centered_spline_span_energies_are_pinned(dc, energies, monkeypatch):
    calls = _count_newton_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleSolutionsWarning)
        sp = spline_centered(refine(dc))
    got = [seg.energy() for seg in sp.segments]
    np.testing.assert_allclose(got, energies, rtol=0.0, atol=1e-12)
    # the ramp start is conclusive on every span and both windings are bounded
    # above its energy: one row per span, and no restarts
    assert sum(calls) == len(energies)


def _count_multiple_solution_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sum(issubclass(w.category, MultipleSolutionsWarning) for w in caught)


def test_several_minima_warn_once_per_span(monkeypatch):
    calls = _count_newton_rows(monkeypatch)
    # a rod four times longer than its chord buckles to either side
    p0, p1, t = [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]
    assert _count_multiple_solution_warnings(lambda: elastica_bvp(p0, t, p1, t, 2.0)) == 1
    # the clothoid start, here the ramp itself (no converged row), then both windings
    assert calls == [1, 2]
    # spans solved together warn one by one: two buckled rods around a gentle
    # arc, whose windings are bounded above its energy and which is conclusive
    calls.clear()
    bent = [(math.cos(a), math.sin(a)) for a in (0.3, -0.3)]
    spans = [(p0, t, p1, t), ([0.0, 0.0], bent[0], [1.9, 0.0], bent[1]), (p0, t, p1, t)]
    warned = _count_multiple_solution_warnings(lambda: spline2d._elastica_spans(*map(np.array, zip(*spans)), 2.0, 64))
    assert warned == 2
    assert calls == [3, 2 * 2]
    # a U-turn of two 3 rad hairpins: the middle span's clothoid start, its ramp
    # (the ends are symmetric), converges to an arc of energy 9; its other minimum
    # (energy 153.6) winds the other way, bounded by (3 - 2 pi)^2 = 10.8 > 9, so
    # it is neither solved nor counted
    calls.clear()
    rc = refine(_unit_step_polyline((3.0, 3.0)))
    assert _count_multiple_solution_warnings(lambda: spline_centered(rc)) == 0
    assert calls == [3]


def test_the_clothoid_start_skips_the_ramps_saddle(monkeypatch):
    # the ramp start converges to a saddle of energy 20.76 (its reduced Hessian is not
    # positive definite); the clothoid start, which replaces the ramp, converges to a
    # minimum below it
    calls = _count_newton_rows(monkeypatch)
    t0, t1 = [math.cos(0.5), math.sin(0.5)], [math.cos(0.3), math.sin(0.3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seg = elastica_bvp([0.0, 0.0], t0, [1.0, 0.0], t1, 1.3)
    assert caught == []
    # both windings are bounded above 13.19 (by 28.4 and 32.3): one row runs
    assert calls == [1]
    assert seg.energy() == pytest.approx(13.187126, abs=1e-6)


@pytest.mark.parametrize("th0, th1, chord, branch", [(0.4, -0.5, (1.0, 0.2), 0), (0.4, -2.9, (0.3, -1.1), 2)])
def test_clothoid_start_is_the_branch_0_clothoid(th0, th1, chord, branch):
    # its turning angle at the nodes of the grid, on the winding that turns as
    # it does (the ramp; or the -2 pi winding of a ramp turning by 2.98 rad,
    # where the clothoid turns by phi1 - phi0 = -3.30), with that winding's end
    # nodes to the bit
    t0, t1 = [math.cos(th0), math.sin(th0)], [math.cos(th1), math.sin(th1)]
    (windings,) = spline2d._span_starts(np.array([t0]), np.array([t1]), 16)
    (start,), (b,) = spline2d._clothoid_starts(windings[None], np.array([chord]))
    assert b == branch
    np.testing.assert_array_equal(start[[0, -1]], windings[b, [0, -1]])
    a0, a1 = (_wrap(t - math.atan2(chord[1], chord[0])) for t in (th0, th1))
    a, x = spline2d._clothoid_roots(np.array([a0]), np.array([a1 - a0]))
    u = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(start, th0 + (a1 - a0 - a[0]) * u + a[0] * u * u, rtol=0.0, atol=1e-12)
    if x[0] > 0.0:  # an admissible clothoid: the one clothoid_g1_fit takes, sampled at the nodes
        seg = clothoid_g1_fit([0.0, 0.0], t0, chord, t1)
        np.testing.assert_allclose(start, [seg.angle_at(v * seg.length) for v in u], rtol=0.0, atol=1e-12)


@st.composite
def _hairpin_or_closed_curves(draw):
    """Open unit-step polylines of 2-6 turns, each a hairpin of 2.6-3.13 rad
    either way or any turn up to 3.14; or closed equilateral polygons of 5-12
    edges, regular ones folded by reflecting runs of their edges across the
    chord of the run."""
    if draw(st.booleans()):
        hairpin = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(2.6, 3.13)).map(lambda v: v[0] * v[1])
        turns = st.lists(st.one_of(hairpin, st.floats(-3.14, 3.14)), min_size=2, max_size=6)
        return _unit_step_polyline(draw(turns))
    n = draw(st.integers(5, 12))
    heading = np.arange(n) * 2.0 * math.pi / n
    for i, size in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(2, n - 2)), max_size=3 * n)):
        run = (i + np.arange(size)) % n
        heading[run] = 2.0 * math.atan2(np.sin(heading[run]).sum(), np.cos(heading[run]).sum()) - heading[run]
    turns = np.remainder(np.diff(heading, append=heading[0]) + math.pi, 2.0 * math.pi) - math.pi
    assume(np.abs(turns).max() < 3.14)  # a fold can reverse an edge: a turn of pi is an input error
    steps = np.column_stack([np.cos(heading), np.sin(heading)])
    return DiscreteCurve(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)[:-1]]), closed=True)


@given(_hairpin_or_closed_curves())
@example(_unit_step_polyline(ZIGZAG_ANGLES))  # span 3 converges from no ramp or winding start
@example(_unit_step_polyline((3.0, 3.0)))  # the U-turn's middle span has a second minimum on a winding bounded above the first
# span 2 converges from no winding start; the clothoid start on the ramp's winding does
@example(_unit_step_polyline((1.0, 2.8, -2.8)))
@example(_unit_step_polyline(HAIRPIN_ANGLES))  # span 3 converges from no winding start
@example(_unit_step_polyline(CONTINUED_ANGLES))  # span 1 converges from no start; its clothoid start does when continued
@example(_unit_step_polyline((0.5, 0.0, 0.0, -0.4, 0.0)))  # straight spans 2 and 5 between curved ones
@settings(max_examples=40, deadline=None, derandomize=True)
def test_centered_spans_converge_and_match_their_one_span_solves(dc):
    rc = refine(dc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleSolutionsWarning)
        sp = spline_centered(rc)
        points, dirs = centered_nodes(rc)
        ends = np.roll(np.arange(len(points)), -1)
        for i, seg in enumerate(sp.segments):
            alone = elastica_bvp(points[i], dirs[i], points[ends[i]], dirs[ends[i]], 2.0 * rc.ell)
            np.testing.assert_array_equal(seg.thetas, alone.thetas)
            # Newton keeps each start's end angles: no row goes below its winding's bound
            assert seg.energy() >= (seg.thetas[-1] - seg.thetas[0]) ** 2 / seg.length * (1.0 - 1e-12)
    assert max(g1_defects(sp)) <= 1e-8


def test_hairpin_spans_are_pinned():
    # span 3 converges from no ramp or winding start; the clothoid start reaches 13.21
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleSolutionsWarning)
        sp = spline_centered(refine(_unit_step_polyline(HAIRPIN_ANGLES)))
    got = [seg.energy() for seg in sp.segments]
    np.testing.assert_allclose(got, [0.064599, 7.135766, 7.27044, 13.209711, 6.88504, 1.441388], rtol=0.0, atol=1e-6)
    assert max(g1_defects(sp)) <= 1e-8


@st.composite
def _convex_or_zigzag_turns(draw):
    turns = draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=6))
    if draw(st.booleans()):  # zig-zag: each turn either way
        turns = [t * draw(st.sampled_from((-1.0, 1.0))) for t in turns]
    return tuple(turns)


def _full_start_solve(rc, n=64):
    """Every start row of every span of an open centered spline (the ramp, its
    two windings and the clothoid start), solved together: per span the
    starts, the rows, their residuals and the indices of the distinct
    converged minima, lowest energy first, by the 1e-6 rule alone.  As in
    _elastica_spans, every span is solved on the unit length."""
    points, dirs = centered_nodes(rc)
    t = dirs / np.linalg.norm(dirs, axis=1)[:, None]  # as _elastica_spans normalizes them, to the bit
    chords = np.diff(points, axis=0) / (2.0 * rc.ell)
    windings = spline2d._span_starts(np.array(t[:-1]), np.array(t[1:]), n)
    clothoids, _ = spline2d._clothoid_starts(windings, chords)
    starts = [np.vstack([w, c[None]]) if np.isfinite(c).all() else w for w, c in zip(windings, clothoids)]
    ds = 1.0 / n
    owner = np.repeat(np.arange(len(starts)), [len(s) for s in starts])
    thetas, res, _ = spline2d._newton_batch(np.concatenate(starts), ds, chords[owner])
    spans = []
    for i, start in enumerate(starts):
        th, r = thetas[owner == i], res[owner == i]
        minima = []
        for j in sorted(np.flatnonzero(r < ELASTICA_KKT), key=lambda j: elastica_energy(th[j], ds)):
            if all(np.max(np.abs(th[j] - th[k])) > 1e-6 for k in minima):
                minima.append(j)
        spans.append((start, th, r, minima))
    return spans


@given(_convex_or_zigzag_turns())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_converged_rows_keep_the_winding_energy_bound(turns):
    rc = refine(_unit_step_polyline(turns))
    length = 2.0 * rc.ell
    for start, th, r, _ in _full_start_solve(rc):
        # Newton moves only the interior nodes: each row keeps its start's winding
        np.testing.assert_array_equal(th[:, [0, -1]], start[:, [0, -1]])
        for row in th[r < ELASTICA_KKT]:
            bound = (row[-1] - row[0]) ** 2 / length  # Cauchy-Schwarz
            assert elastica_energy(row, length / 64) >= bound * (1.0 - 1e-12)


@given(_convex_or_zigzag_turns())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_curved_centered_spans_are_constrained_local_minima(turns):
    """The second-order condition of every curved span, on the unit length: with the
    multipliers that solve the stationarity rows in least squares, the Hessian of the
    Lagrangian is positive semidefinite on the null space of the interior constraint
    Jacobian."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleSolutionsWarning)
        try:
            segments = spline_centered(refine(_unit_step_polyline(turns))).segments
        except NoConvergence:
            segments = ()
    for th in (seg.thetas for seg in segments if np.ptp(seg.thetas) > 0.0):
        ds = 1.0 / (len(th) - 1)
        gx, gy = spline2d._constraint_grad(th, ds)
        jac = np.column_stack([gx[1:-1], gy[1:-1]])  # interior nodes x 2
        grad_e = 2.0 * (2.0 * th[1:-1] - th[:-2] - th[2:]) / ds
        lx, ly = np.linalg.lstsq(jac, -grad_e, rcond=None)[0]
        dx, ex, dy, ey = spline2d._constraint_hessians(th, ds)
        off = -2.0 / ds + lx * ex[1:-1] + ly * ey[1:-1]
        h = np.diag(4.0 / ds + lx * dx[1:-1] + ly * dy[1:-1]) + np.diag(off, 1) + np.diag(off, -1)
        z = null_space(jac.T)
        eig = np.linalg.eigvalsh(z.T @ h @ z)
        assert eig.min() >= -1e-8 * np.max(np.abs(eig))


@given(_convex_or_zigzag_turns())
@example(ZIGZAG_ANGLES)  # no start of span 3 converges; its best one does when continued
@example((3.0, 3.0))  # the U-turn's middle span has a second minimum on a winding bounded above the first
# span 2 converges from no winding start; the clothoid start on the ramp's winding does
@example((1.0, 2.8, -2.8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_restarts_on_inconclusive_spans_agree_with_the_full_solve(turns):
    # a span solves its clothoid start in place of the winding it turns on, and the
    # ramp only if that converges nowhere: on these polylines it returns the lowest
    # minimum that all its starts, solved at once, reach
    rc = refine(_unit_step_polyline(turns))
    full = _full_start_solve(rc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            segments = spline_centered(rc).segments
        except NoConvergence as exc:
            span = int(str(exc).split(":")[0].removeprefix("span "))
            assert not full[span][3] and exc.residual > ELASTICA_KKT
            full, segments = full[:span], ()
    said = [str(w.message) for w in caught if issubclass(w.category, MultipleSolutionsWarning)]
    expected = []
    chords = np.diff(centered_nodes(rc)[0], axis=0)
    for seg, chord, (_, th, r, minima) in zip(segments, chords, full):
        if not minima:  # no start converged: the continued best row is a KKT point of the span
            _, res, _ = spline2d._newton_batch(seg.thetas[None], seg.ds, chord[None])
            assert res[0] < ELASTICA_KKT
            continue
        # bit for bit a row of the full solve at its lowest minimum; rows that
        # reach it from other starts differ by rounding
        lowest = [j for j in np.flatnonzero(r < ELASTICA_KKT) if np.max(np.abs(th[j] - th[minima[0]])) <= 1e-6]
        assert any(np.array_equal(seg.thetas, th[j]) for j in lowest)
        # only the minima on windings whose energy bound is below the lowest count
        low = elastica_energy(th[minima[0]], seg.ds)
        count = 1 + sum((th[j][-1] - th[j][0]) ** 2 / seg.length < low for j in minima[1:])
        if count > 1:
            expected.append(f"{count} distinct elastica solutions; returning lowest energy")
    assert said == expected


def test_constraint_helpers_act_per_row(rng):
    rows = np.cumsum(rng.normal(0.0, 0.2, size=(5, 33)), axis=1)
    ds = 0.05
    x, y = elastica_constraints(rows, ds)
    gx, gy = spline2d._constraint_grad(rows, ds)
    batch = (gx, gy, *spline2d._constraint_hessians(rows, ds))
    for i, row in enumerate(rows):
        assert (x[i], y[i]) == elastica_constraints(row, ds)
        single = (*spline2d._constraint_grad(row, ds), *spline2d._constraint_hessians(row, ds))
        for b, one in zip(batch, single):
            np.testing.assert_array_equal(b[i], one)


def _span_starts(rng, count, n=64):
    grid = np.linspace(0.0, 1.0, n + 1)
    bumps = rng.normal(0.0, 0.5, size=(count, 1)) * np.sin(math.pi * grid)
    return 1.2 * grid + bumps


def test_newton_batch_rows_are_independent(rng):
    starts = _span_starts(rng, 6)
    targets = np.tile([0.9, 0.35], (6, 1))
    ds = 1.3 / 64
    thetas, res, lam = spline2d._newton_batch(starts, ds, targets)
    assert np.sum(res < 1e-8) >= 1
    for i in range(len(starts)):
        alone, res_alone, lam_alone = spline2d._newton_batch(starts[i : i + 1], ds, targets[i : i + 1])
        np.testing.assert_array_equal(thetas[i], alone[0])
        assert res[i] == res_alone[0]
        np.testing.assert_array_equal(lam[i], lam_alone[0])


def test_kkt_step_retires_singular_rows(rng, monkeypatch):
    thetas = _span_starts(rng, 3, n=16)
    lam = rng.normal(size=(3, 2))
    lam[1] = (1.0, 0.0)
    res = rng.normal(size=(3, 17))
    ds = 0.1
    hessians = spline2d._constraint_hessians

    def singular_middle_block(th, ds, cells):
        dx, ex, dy, ey = hessians(th, ds, cells)
        if len(th) == 3:
            # with lam[1] = (1, 0), the last row of row 1's Hessian block is
            # exactly zero, so the solve meets a zero pivot inside the band
            dx[1, -2], ex[1, -2] = -4.0 / ds, 2.0 / ds
        return dx, ex, dy, ey

    monkeypatch.setattr(spline2d, "_constraint_hessians", singular_middle_block)
    step, ok = spline2d._kkt_step(thetas, lam, ds, res)
    assert ok.tolist() == [True, False, True]
    rest, rest_ok = spline2d._kkt_step(thetas[[0, 2]], lam[[0, 2]], ds, res[[0, 2]])
    assert rest_ok.all()
    np.testing.assert_array_equal(step[[0, 2]], rest)


def test_centered_spline_names_the_failing_span(monkeypatch):
    solve = spline2d._newton_batch
    # one Newton step per row is enough for no span
    monkeypatch.setattr(spline2d, "_newton_batch", lambda starts, ds, targets: solve(starts, ds, targets, 1))
    rc = refine(_unit_step_polyline(ZIGZAG_ANGLES))
    with pytest.raises(NoConvergence, match=r"^span 0: .*best residual 7\.755e-07 over 4 starts\)$") as info:
        spline_centered(rc)
    assert info.value.residual > ELASTICA_KKT


def test_single_span_solvers_name_their_span(monkeypatch):
    """elastica_bvp and clothoid_g1_fit name the one row they solve as the spline
    solvers name theirs, so their failures read as the CLI's do."""
    solve = spline2d._newton_batch
    monkeypatch.setattr(spline2d, "_newton_batch", lambda starts, ds, targets: solve(starts, ds, targets, 1))
    with pytest.raises(NoConvergence, match=r"^span 0: elastica boundary value problem did not converge"):
        elastica_bvp([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], 3.0)
    monkeypatch.setattr(spline2d, "_clothoid_roots", lambda phi0, delta: (np.full(phi0.shape, math.nan),) * 2)
    with pytest.raises(NoConvergence, match=r"^segment 0: clothoid fitting equation has no admissible root$"):
        clothoid_g1_fit([0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [1.0, 1.0])


def test_centered_spline_solves_one_row_per_span_from_the_clothoid(monkeypatch):
    # span 3 of the zig-zag converges from no ramp or winding start: its clothoid start
    # converges, so all 7 spans converge from their first rows, in one call
    calls = _count_newton_rows(monkeypatch)
    sp = spline_centered(refine(_unit_step_polyline(ZIGZAG_ANGLES)))
    assert max(g1_defects(sp)) <= 1e-8
    assert calls == [7]
    # a gentle, smooth open polyline of 1 000 unit edges, whose span 566 stalls at
    # 3.6e-7 from its ramp: from the clothoids, no span needs a second row
    calls.clear()
    rc = refine(_unit_step_polyline(0.25 * np.sin(0.05 * np.arange(999))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleSolutionsWarning)
        sp = spline_centered(rc)
    assert len(sp.segments) == 1000
    assert max(g1_defects(sp)) <= 1e-8
    curved = sum(np.ptp(seg.thetas) > 0.0 for seg in sp.segments)  # the taut spans solve no row
    assert sum(calls) <= curved


@pytest.mark.parametrize("turns", [(0.0, 5.3e-7), (1e-6,), (3e-7, -2e-8, 1e-9), (4e-10, -6.3e-8, 3e-10, 8.4e-4)])
def test_centered_spline_of_a_nearly_straight_polyline(turns):
    # a span bent by a turn under about 1e-6 rad is as long as its chord to
    # 1e-12 but its end tangents differ by more than 1e-9: Newton solves it,
    # with an energy that falls as the square of the turn
    sp = spline_centered(refine(_unit_step_polyline(turns)))
    assert max(g1_defects(sp)) <= 1e-8
    assert sp.energy() <= 4.0 * max(np.abs(turns)) ** 2


def test_centered_spline_continues_the_clothoid_start(monkeypatch):
    # span 1 converges from no clothoid, winding or ramp start; its best row,
    # the clothoid start, converges when continued
    calls = _count_newton_rows(monkeypatch)
    sp = spline_centered(refine(_unit_step_polyline(CONTINUED_ANGLES)))
    assert calls == [4, 2, 1, 1]  # every span, the open windings, span 1's ramp, the continued row
    got = [seg.energy() for seg in sp.segments]
    np.testing.assert_allclose(got, [1.066839, 3.2213, 0.902721, 0.766764], rtol=0.0, atol=1e-6)
    assert max(g1_defects(sp)) <= 1e-8


# a polyline whose span 5, nearly taut, converges only from its ramp continued: its
# clothoid start stops at 1.0e-8 and, continued, at 4.7e-8; its ramp stops at 1.8e-8
# and, continued, converges
_RAMP_RETRY_TURNS = (
    -0.12565846900323296, 0.06227731049578722, -0.8406450602628568, -0.08757672325940202, -1.3832123510141813e-07
)


def test_centered_spline_retries_the_ramp_the_clothoid_replaced(monkeypatch):
    calls = _count_newton_rows(monkeypatch)
    sp = spline_centered(refine(_unit_step_polyline(_RAMP_RETRY_TURNS)))
    # every span, span 5's open windings, its ramp, then its clothoid and its ramp continued
    assert calls == [6, 2, 1, 1, 1]
    got = [seg.energy() for seg in sp.segments]
    np.testing.assert_allclose(got[:5], [0.013001, 0.024627, 0.632968, 0.537122, 0.006315], rtol=0.0, atol=1e-6)
    assert got[5] == pytest.approx(1.975096e-14, rel=1e-6)
    assert max(g1_defects(sp)) <= 1e-8


def test_centered_nodes_closed_and_open():
    hexa = ngon_of_circle(1.0, 6, Convention.CENTERED)
    points, dirs = centered_nodes(refine(hexa))
    # the centered hexagon's vertices move onto the circle it discretizes
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("ij,ij->i", points, dirs), 0.0, atol=1e-12)
    dc = _unit_step_polyline(_SPLINE_DEMO_ANGLES)
    points, dirs = centered_nodes(refine(dc))
    assert len(points) == len(dc)
    np.testing.assert_array_equal(points[[0, -1]], dc.points[[0, -1]])
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)


@st.composite
def _moved_polylines(draw):
    """An open unit-edge polyline of 1-5 turns, all in +-2.8 or all in +-1, and
    the same polyline rotated by any angle and translated by up to 100."""
    bound = draw(st.sampled_from([2.8, 1.0]))
    points = _unit_step_polyline(draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=5))).points
    angle = draw(st.floats(-math.pi, math.pi))
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    shift = draw(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
    return DiscreteCurve(points), DiscreteCurve(points @ rotation.T + np.array(shift))


def _spline_or_error(method, dc):
    """(None, the spline) or (the class of the frenetkit error raised, None)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleSolutionsWarning)
            return None, method(dc)
    except FrenetError as exc:
        return type(exc), None


@given(_moved_polylines())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_splines_are_invariant_under_rigid_motions(pair):
    methods = (lambda dc: spline_inscribed(refine(dc)), spline_circumscribed, lambda dc: spline_centered(refine(dc)))
    for method in methods:
        (error, sp), (moved_error, moved) = (_spline_or_error(method, dc) for dc in pair)
        assert error is moved_error
        if sp is not None:
            assert moved.total_length() == pytest.approx(sp.total_length(), rel=1e-9, abs=1e-12)
            assert moved.energy() == pytest.approx(sp.energy(), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Sogo turning angles


def test_sogo_endpoints():
    th = sogo_turning_angles(1.1, 0.6, 20)
    assert len(th) == 21
    assert th[0] == pytest.approx(1.1, abs=1e-12)
    assert th[-1] == 0.0


def test_sogo_degenerate_modulus():
    # k = 0: sn = sin and K = pi/2, so the formula is elementary
    n = 16
    th = sogo_turning_angles(0.8, 0.0, n)
    j = np.arange(n + 1)
    expected = 2.0 * np.arcsin(
        math.sin(0.4) * np.sin(math.pi / 2.0 * (n - j) / n)
    )
    np.testing.assert_allclose(th, expected, atol=1e-12)


def test_sogo_monotone_decay():
    th = sogo_turning_angles(1.3, 0.4, 50)
    assert np.all(np.diff(th) < 0.0)
    with pytest.raises(InputError):
        sogo_turning_angles(1.0, 0.5, 1)
