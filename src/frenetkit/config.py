"""Centralized tolerances.

Every numerical contract in the library refers to one of the fields below,
so there is a single place to see (or tighten) the defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Tolerances:
    # relative spread allowed between edge lengths of a uniform curve
    uniform_length_rel: float = 1e-9
    # absolute midpoint defect allowed in a refined curve (scaled by ell)
    midpoint_rel: float = 1e-12
    # cross-product norm below which consecutive tangents count as parallel
    parallel_cross: float = 1e-10
    # orthonormality / handedness defect of any produced frame triad
    orthonormal: float = 1e-12
    # discrete Frenet equation residual for frames built from a curve
    frenet_residual: float = 1e-12
    # rigid-motion congruence rms
    congruence_rms: float = 1e-9
    # clothoid fit endpoint residual (position and tangent)
    clothoid_fit: float = 1e-8
    # elastica first-order optimality residual
    elastica_kkt: float = 1e-8
    # CLI analyze success threshold on the Frenet residual
    cli_residual: float = 1e-10


DEFAULT = Tolerances()


def cli_tolerance() -> float:
    """Residual threshold for CLI success, overridable via FRENETKIT_TOL."""
    raw = os.environ.get("FRENETKIT_TOL")
    if raw is None:
        return DEFAULT.cli_residual
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"FRENETKIT_TOL must be a number, got {raw!r}") from None
