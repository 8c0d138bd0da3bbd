import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetkit import (
    Convention,
    analyze,
    refine,
    validate_refined,
)
from frenetkit.discretize2d import (
    BUILTIN_CURVES,
    SmoothCurve,
    circle,
    clothoid_arc,
    discretize_centered,
    discretize_circumscribed,
    discretize_inscribed,
    ellipse,
    find_inflections,
    sine_arc,
    uniform_samples,
)
from frenetkit.errors import (
    InputError,
    MissingInflectionSample,
    MTooSmall,
    NonConvexCurve,
    OutOfDomain,
    ParallelTangents,
)

def _point_line_distance(p, q, t):
    """Distance from p to the line through q with direction t."""
    d = p - q
    return abs(d[0] * t[1] - d[1] * t[0])


def test_inscribed_circle_hexagon():
    c = circle(1.0)
    dc = discretize_inscribed(c, uniform_samples(c, 6))
    assert dc.closed and len(dc.points) == 6
    np.testing.assert_allclose(np.linalg.norm(dc.points, axis=1), 1.0, atol=1e-14)
    _, data = analyze(refine(dc), Convention.INSCRIBED)
    np.testing.assert_allclose(data.kappa[data.theta != 0.0], 2.0, atol=1e-12)


def test_inscribed_two_samples_is_chord():
    c = sine_arc()
    dc = discretize_inscribed(c, [0.0, c.length])
    assert len(dc.points) == 2 and not dc.closed
    np.testing.assert_allclose(dc.points[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(dc.points[1], [2.0 * math.pi, 0.0], atol=1e-10)


def test_inscribed_circle_many_n():
    for n in (3, 10, 57, 100):
        c = circle(2.0)
        dc = discretize_inscribed(c, uniform_samples(c, n))
        side = float(dc.edge_lengths()[0])
        theta = 2.0 * math.pi / n
        # inscribed curvature of the unrefined polygon equals 1/r
        k = (2.0 / side) * math.sin(theta / 2.0)
        assert k == pytest.approx(0.5, rel=1e-12)


def test_sample_validation():
    c = circle(1.0)
    with pytest.raises(InputError):
        discretize_inscribed(c, [0.0])
    with pytest.raises(InputError):
        discretize_inscribed(c, [0.3, 0.3, 0.6])
    with pytest.raises(OutOfDomain):
        discretize_inscribed(c, [0.0, 10.0])


def test_circumscribed_circle():
    c = circle(1.0)
    dc = discretize_circumscribed(c, uniform_samples(c, 8))
    # vertices at circumradius of the tangent octagon, edges tangent
    np.testing.assert_allclose(
        np.linalg.norm(dc.points, axis=1), 1.0 / math.cos(math.pi / 8.0), atol=1e-12
    )
    side = float(dc.edge_lengths()[0])
    k = (2.0 / side) * math.tan(math.pi / 8.0)
    assert k == pytest.approx(1.0, rel=1e-12)


def _merge_samples(base, extra, tol=1e-6):
    s = np.sort(np.concatenate([base, extra]))
    return s[np.concatenate([[True], np.diff(s) > tol])]


def test_circumscribed_sine_tangency():
    c = sine_arc()
    infl = find_inflections(c)
    samples = _merge_samples(uniform_samples(c, 16), infl)
    dc = discretize_circumscribed(c, samples)
    # every interior edge lies on the tangent line at its sample
    pts = np.array([c.point(v) for v in samples])
    tans = np.array([c.tangent(v) for v in samples])
    for i in range(len(samples)):
        for v in (dc.points[i], dc.points[i + 1]):
            assert _point_line_distance(v, pts[i], tans[i]) <= 1e-10


def test_circumscribed_missing_inflection():
    c = sine_arc()
    with pytest.raises(MissingInflectionSample):
        discretize_circumscribed(c, uniform_samples(c, 16))


def test_circumscribed_parallel_tangents():
    c = circle(1.0)
    # antipodal samples have antiparallel tangents
    want = (
        "computed tangents at samples 0 (s = 0, direction (-0, 1)) and "
        "1 (s = 3.14159, direction (-1.22465e-16, -1)) are parallel to within 1e-12"
    )
    with pytest.raises(ParallelTangents, match=f"^{re.escape(want)}$"):
        discretize_circumscribed(c, [0.0, math.pi])


def test_find_inflections_sine():
    c = sine_arc()
    infl = find_inflections(c)
    # y = sin(x) on [0, 2 pi]: inflections at x = 0, pi, 2 pi
    xs = np.array([c.point(v)[0] for v in infl])
    # interior sign change at x = pi; x = 0 has exactly zero curvature.
    # The far endpoint is not a sign change, so it need not be reported.
    assert np.min(np.abs(xs - math.pi)) <= 1e-8
    assert np.min(np.abs(xs)) <= 1e-8


@pytest.mark.filterwarnings("error")
def test_find_inflections_where_the_cubed_speed_overflows():
    # at amplitude 1e150 the speed reaches 1e150, whose cube overflows, while
    # the curvature (about 1e-300 off the crests) is still a normal float
    fractions = [find_inflections(c) / c.length for c in (sine_arc(amplitude=1.0), sine_arc(amplitude=1e150))]
    np.testing.assert_allclose(fractions[0], [0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(fractions[1], fractions[0], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_subnormal_curve_length_is_an_input_error():
    with pytest.raises(InputError, match="curve length .* is subnormal"):
        ellipse(5e-324, 1e-310)


def test_centered_circle_length_exact():
    for density in (4.0, 10.0, 50.0):
        rc = discretize_centered(circle(1.0), density, variant="exact")
        validate_refined(rc)
        assert rc.length() == pytest.approx(2.0 * math.pi, abs=1e-9)
        # all vertices turn the same way and by the same amount
        _, data = analyze(rc, Convention.CENTERED)
        turning = data.theta[data.theta != 0.0]
        np.testing.assert_allclose(turning, turning[0], atol=1e-9)


def test_centered_published_variant_overruns_budget():
    # the published outward offset stretches consecutive samples past the
    # half-edge budget, so no vertex can be inserted
    with pytest.raises(MTooSmall) as exc:
        discretize_centered(circle(1.0), 10.0, variant="published")
    assert exc.value.minimal_density is not None


def test_centered_ellipse_length_and_convexity():
    c = ellipse(2.0, 1.0)
    rc = discretize_centered(c, 20.0, variant="exact")
    assert rc.length() == pytest.approx(c.length, abs=1e-9)
    with pytest.raises(NonConvexCurve):
        discretize_centered(sine_arc(), 20.0, variant="exact")


def test_centered_open_convex_arc():
    # convex half of the sine arc, restricted: use a circular arc instead
    full = circle(1.0)
    arc = SmoothCurve(full.point, full.tangent, full.curvature, math.pi, closed=False)
    rc = discretize_centered(arc, 8.0, variant="exact")
    assert not rc.closed
    assert rc.length() == pytest.approx(math.pi, abs=1e-9)


def test_centered_errors():
    with pytest.raises(InputError):
        discretize_centered(circle(1.0), 10.0, variant="bogus")
    with pytest.raises(InputError):
        discretize_centered(circle(1.0), -1.0)
    with pytest.raises(MTooSmall) as exc:
        discretize_centered(circle(1.0), 0.2)
    assert exc.value.minimal_density == pytest.approx(3.0 / (2.0 * math.pi))


def test_builtin_registry():
    assert set(BUILTIN_CURVES) == {"circle", "ellipse", "sine", "clothoid"}
    cl = BUILTIN_CURVES["clothoid"]()
    # curvature grows linearly along a clothoid
    assert cl.curvature(2.0) == pytest.approx(0.1 + 0.2 * 2.0)


# outputs of the discretize ops of the planar-fit benchmark workload (65
# samples, density 8) and the sine-arc inflections, as the scalar
# per-sample implementation computed them
PINNED = json.loads((Path(__file__).parent / "data" / "planar_fit_discretize.json").read_text())
_CURVES = {name: ctor() for name, ctor in BUILTIN_CURVES.items()}


@pytest.mark.parametrize("key", sorted(k for k in PINNED if k != "sine/inflections"))
def test_planar_fit_outputs_pinned(key):
    name, method = key.split("/")
    c = _CURVES[name]
    if method == "centered":
        pts = discretize_centered(c, 8.0).points
    else:
        disc = discretize_inscribed if method == "inscribed" else discretize_circumscribed
        pts = disc(c, uniform_samples(c, 65)).points
    want = PINNED[key]
    assert abs(c.length - want["curve_length"]) <= 1e-12
    assert pts.shape == np.shape(want["points"])
    np.testing.assert_allclose(pts, want["points"], rtol=0.0, atol=1e-12)


def test_sine_inflections_pinned():
    np.testing.assert_allclose(
        find_inflections(_CURVES["sine"]), PINNED["sine/inflections"], rtol=0.0, atol=1e-12
    )


@pytest.mark.filterwarnings("error")
def test_inflections_of_a_huge_sine_arc():
    # off its crests the curvature of this arc underflows to 0 and its parametric
    # numerator does not: two roots, and none at s = L
    c = sine_arc(amplitude=1e200)
    np.testing.assert_allclose(find_inflections(c) / c.length, [0.0, 0.5], rtol=0.0, atol=1e-12)


@given(
    st.sampled_from(sorted(BUILTIN_CURVES)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
)
@settings(max_examples=80, deadline=None)
def test_array_evaluation_matches_scalar_calls(name, fractions):
    c = _CURVES[name]
    s = np.asarray(fractions) * c.length
    for f, tail in ((c.point, (2,)), (c.tangent, (2,)), (c.curvature, ())):
        got = f(s)
        assert got.shape == s.shape + tail
        want = np.array([f(float(v)) for v in s])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        # any array shape: a column of samples keeps its shape
        np.testing.assert_allclose(f(s[:, None]), want[:, None], rtol=0.0, atol=1e-14)


def test_evaluation_shapes_of_scalars():
    for c in _CURVES.values():
        assert np.shape(c.point(0.5)) == (2,) and np.shape(c.tangent(0.5)) == (2,)
        assert np.shape(c.curvature(0.5)) == ()
        assert np.shape(c.point(np.zeros((0,)))) == (0, 2)


@pytest.mark.parametrize(
    "params, density, variant, error, index, minimal_density, message",
    [
        ((1.0, -0.5, 5.0), 8.0, "exact", NonConvexCurve, 16, None,
         "nonpositive curvature at sample 16"),
        ((0.5, 2.0, 5.0), 2.0, "exact", MTooSmall, 3, 2.228169203286535,
         "k/M = 1.750 >= pi/2 at sample 3"),
        ((1e-9, 4e-5, 5.0), 8.0, "published", MTooSmall, 13, 8.000000000071289,
         "offset samples 13 and 14 are 0.125 apart, over the half-edge budget 0.125; "
         "increase the density"),
    ],
    ids=["nonconvex", "k-over-m", "half-edge-budget"],
)
def test_centered_reports_the_first_offending_sample(
    params, density, variant, error, index, minimal_density, message
):
    # clothoids whose curvature crosses zero, or grows past the limit, partway
    with pytest.raises(error) as exc:
        discretize_centered(clothoid_arc(*params), density, variant=variant)
    assert str(exc.value) == message
    assert exc.value.index == index
    if minimal_density is not None:
        assert exc.value.minimal_density == pytest.approx(minimal_density, rel=1e-12)


def test_closed_curve_rejects_a_sample_at_the_full_length():
    c = circle(1.0)
    for disc in (discretize_inscribed, discretize_circumscribed):
        with pytest.raises(OutOfDomain):
            disc(c, [0.0, math.pi / 2.0, math.pi, 2.0 * math.pi])
        with pytest.raises(OutOfDomain):
            disc(c, [0.0, 2.0, 4.0, 2.0 * math.pi - 5e-10])
    dc = discretize_inscribed(c, [0.0, math.pi / 2.0, math.pi, 2.0 * math.pi - 1e-6])
    assert len(dc) == 4


@pytest.mark.parametrize(
    "ctor, kwargs, name",
    [
        (circle, {"radius": 0.0}, "radius"),
        (circle, {"radius": -1.0}, "radius"),
        (circle, {"center": (math.nan, 0.0)}, "cx"),
        (ellipse, {"b": 0.0}, "b"),
        (ellipse, {"a": math.inf}, "a"),
        (sine_arc, {"x_max": -1.0}, "x_max"),
        (sine_arc, {"amplitude": math.nan}, "amplitude"),
        (clothoid_arc, {"length": 0.0}, "length"),
        (clothoid_arc, {"sharpness": -math.inf}, "sharpness"),
    ],
)
def test_builtin_rejects_degenerate_parameters(ctor, kwargs, name):
    with pytest.raises(InputError, match=f"^{name} must be"):
        ctor(**kwargs)


def test_curve_length_must_be_positive_and_finite():
    c = circle(1.0)
    for length in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="curve length must be positive and finite"):
            SmoothCurve(c.point, c.tangent, c.curvature, length)
    # an overflowing arc-length integral is caught the same way
    with pytest.raises(InputError, match="curve length"):
        ellipse(1e308, 1.0)


def test_clothoid_quadrature_work_is_bounded():
    # quadrature panels and polyline samples of a clothoid grow with its length and turning
    for kwargs in ({"kappa0": 1e300}, {"length": 2e3, "kappa0": 0.0, "sharpness": 0.0}, {"sharpness": 1e3}):
        with pytest.raises(InputError, match="^clothoid length .* must be at most 1e3"):
            clothoid_arc(**kwargs)
    assert clothoid_arc(kappa0=0.0, sharpness=0.0, length=1e3).length == 1e3
