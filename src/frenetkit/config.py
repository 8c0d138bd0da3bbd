"""Centralized tolerances and limits.

Every numerical contract in the library refers to one of the constants
below, so there is a single place to see (or tighten) them.
"""

# relative spread allowed between edge lengths of a uniform curve
UNIFORM_LENGTH_REL = 1e-9
# absolute midpoint defect allowed in a refined curve (scaled by ell)
MIDPOINT_REL = 1e-12
# cross-product norm below which consecutive tangents count as parallel
PARALLEL_CROSS = 1e-10
# orthonormality / handedness defect of any produced frame triad
ORTHONORMAL = 1e-12
# rigid-motion congruence rms
CONGRUENCE_RMS = 1e-9
# clothoid fit endpoint residual (position and tangent)
CLOTHOID_FIT = 1e-8
# elastica first-order optimality residual
ELASTICA_KKT = 1e-8
# CLI analyze success threshold on the Frenet residual
CLI_RESIDUAL = 1e-10
# supported edge lengths: their squares stay normal doubles
EDGE_RANGE = (1e-150, 1e150)
# largest sample count a discretization or a drawn spline may ask for
MAX_SAMPLES = 1_000_000

