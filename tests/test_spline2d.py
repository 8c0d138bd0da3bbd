import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frenetkit import Convention, DiscreteCurve, ngon_of_circle, refine, spline2d
from frenetkit.config import DEFAULT as DEFAULT_TOL
from frenetkit.errors import Infeasible, InputError, MultipleSolutionsWarning, NoConvergence
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
    project_to_constraints,
    sogo_turning_angles,
    spline_centered,
    spline_circumscribed,
    spline_inscribed,
)

from conftest import ZIGZAG_ANGLES


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


def test_segment_polylines_match_pointwise_evaluation():
    arc = ArcSegment(np.array([0.5, -1.0]), 2.0, 0.3, -2.5)
    clothoid = ClothoidSegment(np.array([1.0, 2.0]), 0.4, -0.7, 1.3, 3.0)
    for seg, atol in ((arc, 0.0), (clothoid, 1e-14)):
        pts = seg.polyline(1e-4)
        s = np.linspace(0.0, seg.length, len(pts))
        np.testing.assert_allclose(pts, [seg.point_at(v) for v in s], rtol=0, atol=atol)


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


@pytest.mark.parametrize(
    "p0, t0, p1, t1, match",
    [
        ([math.nan, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], "chord length must be positive and finite"),
        ([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], "tangents"),
        ([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [math.inf, 0.0], "tangents"),
        ([0.0, 0.0], [1.0, 0.0], [1e308, 1e308], [1.0, 0.0], "chord length must be positive and finite"),
    ],
    ids=["nan-point", "zero-tangent", "infinite-tangent", "overflowing-chord"],
)
def test_clothoid_fit_rejects_bad_input(p0, t0, p1, t1, match):
    with pytest.raises(InputError, match=match), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing norm
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
        [0.0, 0.0], [1.0, 0.0], [0.9, 0.35], [0.0, 1.0], 1.3, n=2048, restarts=2
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
        sp = spline_centered(rc, n=32, restarts=2)
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
        sp = spline_centered(rc, n=32, restarts=2)
    assert len(sp.segments) == 2
    # each span has length exactly 2*ell, so total length is preserved
    assert sp.total_length() == pytest.approx(2.0, abs=1e-12)
    # endpoints are interpolated
    np.testing.assert_allclose(sp.segments[0].point_at(0.0), pts[0], atol=1e-12)
    end = sp.segments[-1]
    np.testing.assert_allclose(end.point_at(end.length), pts[-1], atol=1e-8)


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
def test_centered_spline_span_energies_are_pinned(dc, energies):
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleSolutionsWarning)
        sp = spline_centered(refine(dc))
    got = [seg.energy() for seg in sp.segments]
    np.testing.assert_allclose(got, energies, rtol=0.0, atol=1e-12)


def _count_multiple_solution_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sum(issubclass(w.category, MultipleSolutionsWarning) for w in caught)


def test_several_minima_warn_once_per_span():
    # a rod four times longer than its chord buckles to either side
    p0, p1, t = [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]
    assert _count_multiple_solution_warnings(lambda: elastica_bvp(p0, t, p1, t, 2.0)) == 1
    # a U-turn of two 3 rad hairpins: the middle span joins ends that point
    # opposite ways, 0.66 of its length apart, and has two minima; the end
    # spans have one
    rc = refine(_unit_step_polyline((3.0, 3.0)))
    assert _count_multiple_solution_warnings(lambda: spline_centered(rc)) == 1


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
    thetas, res = spline2d._newton_batch(starts, ds, targets)
    assert np.sum(res < 1e-8) >= 1
    for i in range(len(starts)):
        alone, res_alone = spline2d._newton_batch(starts[i : i + 1], ds, targets[i : i + 1])
        np.testing.assert_array_equal(thetas[i], alone[0])
        assert res[i] == res_alone[0]


def test_kkt_step_retires_singular_rows(rng, monkeypatch):
    thetas = _span_starts(rng, 3, n=16)
    lam = rng.normal(size=(3, 2))
    lam[1] = (1.0, 0.0)
    res = rng.normal(size=(3, 17))
    ds = 0.1
    hessians = spline2d._constraint_hessians

    def singular_middle_block(th, ds):
        dx, ex, dy, ey = hessians(th, ds)
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


def test_centered_spline_names_the_failing_span():
    rc = refine(_unit_step_polyline(ZIGZAG_ANGLES))
    with pytest.raises(NoConvergence, match=r"^span 3: .*best residual") as info:
        spline_centered(rc)
    assert info.value.residual > DEFAULT_TOL.elastica_kkt


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
