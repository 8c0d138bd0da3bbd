"""Special functions for splining: Fresnel integrals, complete elliptic
integral of the first kind, Jacobi sn/cn, as checked wrappers over
``scipy.special``, which each function imports on its first call so that
importing the package does not load scipy.

Fresnel integrals use the pi*t^2/2 normalization:
    C(s) = int_0^s cos(pi t^2 / 2) dt,   S(s) = int_0^s sin(pi t^2 / 2) dt.
The elliptic functions take the modulus k, where scipy takes the parameter
m = k^2.  Arguments are floats or arrays; the modulus is a float.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ModulusOutOfRange


class FresnelPair(NamedTuple):
    C: float
    S: float


def _finite(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} argument must be finite")
    return x


def fresnel(s) -> FresnelPair:
    """Fresnel integrals (C(s), S(s)); odd in s."""
    from scipy import special

    sv, cv = special.fresnel(_finite(s, "fresnel"))
    return FresnelPair(cv, sv)


def _parameter(k: float) -> float:
    """scipy's parameter m = k^2 of a modulus k in [0, 1)."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ModulusOutOfRange(f"elliptic modulus must be in [0, 1), got {k}")
    return k * k


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t).
    """
    from scipy import special

    return float(special.ellipk(_parameter(k)))


def jacobi_sn_cn(u, k: float):
    """(sn(u, k), cn(u, k)), modulus convention."""
    from scipy import special

    sn, cn, _, _ = special.ellipj(_finite(u, "jacobi_sn"), _parameter(k))
    return sn, cn


def jacobi_sn(u, k: float):
    """Jacobi sn(u, k), modulus convention; period 4K(k) in u."""
    return jacobi_sn_cn(u, k)[0]
