import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from frenetkit.errors import ModulusOutOfRange
from frenetkit.specfun import elliptic_K, fresnel, jacobi_sn, jacobi_sn_cn


def fresnel_oracle(s):
    """Defining integrals, evaluated by adaptive quadrature."""
    c, _ = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, s, limit=400)
    sv, _ = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, s, limit=400)
    return c, sv


def K_oracle(k):
    v, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2.0)
    return v


def test_fresnel_pinned_values():
    c, s = fresnel(1.0)
    assert c == pytest.approx(0.7798934003768228, abs=1e-12)
    assert s == pytest.approx(0.4382591473903548, abs=1e-12)
    assert fresnel(0.0) == (0.0, 0.0)
    for x in (10.0, 20.0):
        c, s = fresnel(x)
        # oscillation envelope is 1/(pi x)
        bound = 1.0 / (math.pi * x) * 1.01
        assert abs(c - 0.5) < bound and abs(s - 0.5) < bound


def test_fresnel_odd_symmetry():
    for x in (0.3, 1.2, 4.0, 9.0):
        cp, sp = fresnel(x)
        cm, sm = fresnel(-x)
        assert cm == -cp and sm == -sp


def test_fresnel_vs_quadrature():
    # covers the series, panel, and asymptotic regimes
    for s in np.concatenate([np.linspace(-3.0, 3.0, 25), [4.7, 7.3, 12.0, 30.0]]):
        c_ref, s_ref = fresnel_oracle(float(s))
        c, sv = fresnel(float(s))
        assert abs(c - c_ref) <= 1e-10, s
        assert abs(sv - s_ref) <= 1e-10, s


def test_elliptic_K_values():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert elliptic_K(0.5) == pytest.approx(K_oracle(0.5), abs=1e-12)
    assert elliptic_K(0.5) == pytest.approx(1.6857503548125961, abs=1e-12)
    assert 3.0 < elliptic_K(0.99) < 4.0
    assert elliptic_K(0.99) == pytest.approx(K_oracle(0.99), abs=1e-10)
    with pytest.raises(ModulusOutOfRange):
        elliptic_K(1.0)
    with pytest.raises(ModulusOutOfRange):
        jacobi_sn(0.3, -0.1)


def test_elliptic_K_dense_vs_quadrature():
    for k in np.linspace(0.0, 0.995, 60):
        assert elliptic_K(float(k)) == pytest.approx(K_oracle(float(k)), abs=1e-10)


def test_sn_degenerate_modulus():
    for u in np.linspace(-10.0, 10.0, 81):
        assert abs(jacobi_sn(float(u), 0.0) - math.sin(u)) <= 1e-12


def test_sn_special_points():
    assert jacobi_sn(0.0, 0.7) == 0.0
    assert jacobi_sn(elliptic_K(0.7), 0.7) == pytest.approx(1.0, abs=1e-10)
    # quarter-period symmetry: sn(2K - u) = sn(u)
    K = elliptic_K(0.6)
    for u in (0.2, 0.9, 1.4):
        assert jacobi_sn(2.0 * K - u, 0.6) == pytest.approx(jacobi_sn(u, 0.6), abs=1e-10)


def test_sn_cn_identity():
    for k in (0.1, 0.5, 0.9):
        for u in np.linspace(-6.0, 6.0, 49):
            s, c = jacobi_sn_cn(float(u), k)
            assert abs(s * s + c * c - 1.0) <= 1e-10


def test_sn_inversion_oracle():
    # u = integral_0^phi dt / sqrt(1 - k^2 sin^2 t), sn(u) = sin(phi)
    k = 0.8
    for u in (0.3, 0.8, 1.3):
        def f(phi):
            v, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi)
            return v - u

        phi = brentq(f, 0.0, math.pi / 2.0, xtol=1e-14)
        assert jacobi_sn(u, k) == pytest.approx(math.sin(phi), abs=1e-10)


def test_arrays_match_scalars_and_arguments_are_checked():
    x = np.linspace(-9.0, 9.0, 37)
    c, sv = fresnel(x)
    assert c.shape == sv.shape == x.shape
    assert all(fresnel(float(v)) == (ci, si) for v, ci, si in zip(x, c, sv))
    sn, cn = jacobi_sn_cn(x, 0.7)
    assert all(jacobi_sn_cn(float(v), 0.7) == (a, b) for v, a, b in zip(x, sn, cn))
    np.testing.assert_array_equal(jacobi_sn(x, 0.7), sn)
    for bad in (math.nan, math.inf, [0.5, -math.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            fresnel(bad)
        with pytest.raises(ValueError, match="must be finite"):
            jacobi_sn(bad, 0.5)
    for k in (math.nan, 1.5):
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn_cn(x, k)
