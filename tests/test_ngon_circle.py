import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetkit import (
    Convention,
    NGonSpec,
    angle_from_kappa,
    circle_of_ngon,
    kappa_from_angle,
    ngon_of_circle,
    tau_from_angle,
)
from frenetkit.errors import (
    AngleOutOfRange,
    InputError,
    NonpositiveLength,
    OutOfImage,
)
from frenetkit.ngon_circle import centered_offset, centered_offset_exact, centered_vertex_offset

ALL = list(Convention)


def test_kappa_hexagon_values():
    th = math.pi / 3.0
    assert kappa_from_angle(th, 1.0, Convention.INSCRIBED) == pytest.approx(1.0, abs=1e-15)
    assert kappa_from_angle(th, 1.0, Convention.CIRCUMSCRIBED) == pytest.approx(
        2.0 * math.tan(math.pi / 6.0), abs=1e-15
    )
    assert kappa_from_angle(th, 1.0, Convention.CENTERED) == pytest.approx(th, abs=1e-15)
    for conv in ALL:
        assert kappa_from_angle(0.0, 5.0, conv) == 0.0


def test_hexagon_oracle_geometry():
    # explicit side-1 hexagon: circumradius 1, apothem sqrt(3)/2, perimeter 6
    ang = np.arange(6) * math.pi / 3.0
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    side = float(np.linalg.norm(pts[1] - pts[0]))
    assert side == pytest.approx(1.0, abs=1e-15)
    assert kappa_from_angle(math.pi / 3.0, side, Convention.INSCRIBED) == pytest.approx(1.0)
    apothem = math.sqrt(3.0) / 2.0
    assert kappa_from_angle(math.pi / 3.0, side, Convention.CIRCUMSCRIBED) == pytest.approx(
        1.0 / apothem
    )
    # perimeter 6 = 2 pi r
    assert kappa_from_angle(math.pi / 3.0, side, Convention.CENTERED) == pytest.approx(
        2.0 * math.pi / 6.0
    )


def test_tau_values():
    assert tau_from_angle(0.0, 1.0, Convention.INSCRIBED) == 0.0
    assert tau_from_angle(math.pi / 3.0, 1.0, Convention.INSCRIBED) == pytest.approx(1.0)
    assert tau_from_angle(math.pi / 4.0, 2.0, Convention.CENTERED) == pytest.approx(math.pi / 8.0)


def test_domain_errors():
    with pytest.raises(NonpositiveLength):
        kappa_from_angle(0.1, 0.0, Convention.INSCRIBED)
    with pytest.raises(AngleOutOfRange):
        kappa_from_angle(-0.1, 1.0, Convention.INSCRIBED)
    with pytest.raises(AngleOutOfRange):
        kappa_from_angle(math.pi, 1.0, Convention.INSCRIBED)
    with pytest.raises(OutOfImage):
        angle_from_kappa(-1.0, 1.0, Convention.CENTERED)
    with pytest.raises(OutOfImage):
        angle_from_kappa(10.0, 1.0, Convention.CENTERED)


def test_kappa_from_angle_arrays_match_scalars():
    angles = np.array([0.0, 0.3, math.pi / 2.0, 3.0])
    for conv in ALL:
        k = kappa_from_angle(angles, 0.7, conv)
        assert isinstance(kappa_from_angle(0.3, 0.7, conv), float)
        assert k.shape == angles.shape
        assert list(k) == [kappa_from_angle(float(a), 0.7, conv) for a in angles]
    with pytest.raises(AngleOutOfRange, match="angle -0.2 outside"):
        kappa_from_angle(np.array([0.1, -0.2, math.pi]), 1.0, Convention.INSCRIBED)
    with pytest.raises(NonpositiveLength):
        tau_from_angle(angles, -1.0, Convention.CENTERED)


def test_angle_from_kappa_examples():
    assert angle_from_kappa(1.0, 1.0, Convention.INSCRIBED) == pytest.approx(math.pi / 3.0)
    assert angle_from_kappa(0.0, 1.0, Convention.CIRCUMSCRIBED) == 0.0
    assert angle_from_kappa(math.pi / 3.0, 1.0, Convention.CENTERED) == pytest.approx(
        math.pi / 3.0
    )


@given(
    st.floats(min_value=1e-6, max_value=math.pi / 2.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(ALL),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(theta, ell, conv):
    k = kappa_from_angle(theta, ell, conv)
    assert angle_from_kappa(k, ell, conv) == pytest.approx(theta, abs=1e-12, rel=1e-12)


@given(st.floats(min_value=1e-4, max_value=math.pi / 2.0), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_strict_ordering(theta, ell):
    k_in = kappa_from_angle(theta, ell, Convention.INSCRIBED)
    k_ce = kappa_from_angle(theta, ell, Convention.CENTERED)
    k_ci = kappa_from_angle(theta, ell, Convention.CIRCUMSCRIBED)
    assert k_in < k_ce < k_ci


def test_small_angle_agreement():
    ell = 1.0
    for theta in np.linspace(1e-3, 0.5, 40):
        ks = [kappa_from_angle(theta, ell, c) for c in ALL]
        assert max(ks) - min(ks) <= theta**3 / (4.0 * ell)


def test_circle_of_ngon_hexagon_radii():
    spec = NGonSpec(6, 1.0)
    _, r_in = circle_of_ngon(spec, Convention.INSCRIBED)
    _, r_ci = circle_of_ngon(spec, Convention.CIRCUMSCRIBED)
    _, r_ce = circle_of_ngon(spec, Convention.CENTERED)
    assert r_in == pytest.approx(1.0)
    assert r_ci == pytest.approx(math.sqrt(3.0) / 2.0)
    assert r_ce == pytest.approx(3.0 / math.pi)


def test_ngon_of_circle_squares():
    sq_in = ngon_of_circle(1.0, 4, Convention.INSCRIBED)
    assert sq_in.edge_lengths()[0] == pytest.approx(math.sqrt(2.0))
    np.testing.assert_allclose(np.linalg.norm(sq_in.points, axis=1), 1.0, atol=1e-15)
    sq_ci = ngon_of_circle(1.0, 4, Convention.CIRCUMSCRIBED)
    assert sq_ci.edge_lengths()[0] == pytest.approx(2.0)
    sq_ce = ngon_of_circle(1.0, 4, Convention.CENTERED)
    assert sq_ce.length() == pytest.approx(2.0 * math.pi)
    assert sq_ce.edge_lengths()[0] == pytest.approx(math.pi / 2.0)


def test_ngon_circle_round_trip_radius():
    for n in range(3, 101):
        for conv in ALL:
            poly = ngon_of_circle(2.3, n, conv)
            side = float(poly.edge_lengths()[0])
            _, r = circle_of_ngon(NGonSpec(n, side), conv)
            assert abs(r - 2.3) <= 1e-12 * 2.3


def test_ngon_of_circle_errors():
    with pytest.raises(NonpositiveLength):
        ngon_of_circle(0.0, 6, Convention.INSCRIBED)
    with pytest.raises(InputError):
        ngon_of_circle(1.0, 2, Convention.INSCRIBED)
    with pytest.raises(InputError):
        NGonSpec(2.0, 1.0)


def test_centered_offsets():
    # exact offset on a circle: even samples land on the apothem circle
    k, m = 1.0, 10.0
    x = k / m
    exact = centered_offset_exact(k, m)
    assert exact == pytest.approx((1.0 - (x / 2.0) / math.tan(x / 2.0)) / k, rel=1e-14)
    # published variant differs from the exact one at third order
    published = centered_offset(k, m)
    assert published == pytest.approx((x - math.sin(x)) / (k * math.sin(x)), rel=1e-14)
    assert not math.isclose(published, exact, rel_tol=1e-3)
    # both vanish quadratically in 1/M (log-log slope 2); the published one
    # like x^2/(6k), the exact one like x^2/(12k)
    ms = np.array([10.0, 100.0, 1000.0, 10000.0])
    for fn, lead in ((centered_offset, 6.0), (centered_offset_exact, 12.0)):
        offs = np.array([fn(k, mm) for mm in ms])
        slope = np.polyfit(np.log(1.0 / ms), np.log(offs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)
        np.testing.assert_allclose(offs, (k / ms) ** 2 / (lead * k), rtol=0.02)


def test_centered_offsets_arrays_match_scalars():
    # the series branch of the exact offset (x/2 < 1e-8) included
    k = np.array([1e-9, 0.3, 1.0, 2.5])
    for fn in (centered_offset, centered_offset_exact):
        off = fn(k, 1.0)
        assert isinstance(fn(0.3, 1.0), float)
        assert off.shape == k.shape
        assert list(off) == [fn(float(v), 1.0) for v in k]
        with pytest.raises(InputError, match="curvature must be positive, got -0.5"):
            fn(np.array([0.2, -0.5, 0.0]), 1.0)
        with pytest.raises(InputError, match="k/M = 4.0 too large"):
            fn(np.array([0.2, 4.0]), 1.0)
        with pytest.raises(InputError, match="curvature must be positive, got 0.0"):
            fn(0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_published_offset_series_for_tiny_curvature():
    # below x = k/M = 1e-8 the published offset is its series x/(6M): at
    # k = 1e-300 the closed form divides 0 by an underflowed 0
    for k in (1e-300, 5e-324, 1e-9):
        assert centered_offset(k, 8.0) == pytest.approx(k / 8.0 / 48.0, rel=1e-15)
    # from 1e-8 up, the closed form as before
    k = np.array([8e-8, 0.5, 3.0])
    x = k / 8.0
    assert list(centered_offset(k, 8.0)) == list((x - np.sin(x)) / (k * np.sin(x)))


def test_centered_vertex_offset():
    # hexagon vertex: circumradius ell/sin(theta/2) = 1, centered radius 3/pi
    th = math.pi / 3.0
    off = centered_vertex_offset(th, 0.5)
    assert off == pytest.approx(1.0 - 2.0 * 0.5 / th)
    assert centered_vertex_offset(0.0, 1.0) == 0.0
    # arrays match scalars; the sign of theta is dropped, straight stays put
    th = np.array([0.0, 1e-13, 0.3, -0.3, math.pi / 2.0, 3.0])
    off = centered_vertex_offset(th, 0.7)
    assert isinstance(centered_vertex_offset(0.3, 0.7), float)
    assert off.shape == th.shape
    assert list(off) == [centered_vertex_offset(float(t), 0.7) for t in th]
    assert off[0] == off[1] == 0.0 and off[2] == off[3] > 0.0
    with pytest.raises(AngleOutOfRange):
        centered_vertex_offset(np.array([0.1, math.pi]), 1.0)
    with pytest.raises(NonpositiveLength):
        centered_vertex_offset(th, 0.0)
