"""Discrete Frenet frames, three curvature conventions, and the splines
(arcs, clothoids, elastica) that realize them.
"""

from .curve_core import (
    DiscreteCurve,
    RefinedCurve,
    diff,
    msum,
    refine,
    unrefine,
    validate_refined,
)
from .discretize2d import (
    BUILTIN_CURVES,
    SmoothCurve,
    discretize_centered,
    discretize_circumscribed,
    discretize_inscribed,
    find_inflections,
    uniform_samples,
)
from .errors import (
    FrenetError,
    InputError,
    MultipleSolutionsWarning,
    NumericalError,
)
from .io import (
    curve_from_csv,
    curve_from_json,
    curve_to_csv,
    curve_to_json,
    intrinsic_from_json,
    intrinsic_to_json,
    load_curve,
    spline_from_json,
    spline_to_json,
)
from .frames import (
    FrameField,
    IntrinsicData,
    analyze,
    curvature_torsion,
    edge_frames,
    frenet_residual,
    polyline_turning_angles,
    turn_twist_angles,
    vertex_frames,
)
from .ngon_circle import (
    Convention,
    NGonSpec,
    angle_from_kappa,
    circle_of_ngon,
    kappa_from_angle,
    ngon_of_circle,
    tau_from_angle,
)
from .reconstruct import InitialPose, congruent, reconstruct, rigid_align
from .specfun import elliptic_K, fresnel, jacobi_sn, jacobi_sn_cn
from .spline2d import (
    ArcSegment,
    ClothoidSegment,
    ElasticaSegment,
    LineSegment,
    Spline,
    clothoid_g1_fit,
    clothoid_xy,
    elastica_bvp,
    g1_defects,
    sogo_turning_angles,
    spline_centered,
    spline_circumscribed,
    spline_inscribed,
)
from .svg import render_svg

__version__ = "0.1.0"
