"""Verification library for the sixth-order GJMS operator, its conformally
covariant boundary operators, the induced Dirichlet-to-Neumann operators,
and the sharp Sobolev trace inequalities on the model geometries."""

from .geometry import (
    GeometryKind,
    ModelGeometry,
    ball,
    boundary_data,
    conformally_flat_curvature,
    coronal_check,
    geodesic_invariants,
    halfspace,
    hemisphere,
    hyperbolic_expansion,
    hyperbolic_geodesic,
)
from .polys import (
    ExpPolyMode,
    MomentScalar,
    Poly,
    ball_integral,
    laplacian,
    mode_apply,
    reduce_mod_sphere,
    sphere_integral,
)
from .gjms import apply_L6, factorization_shifts, q6_constant_curvature, t4_action
from .boundary import (
    BoundaryOperatorId,
    CurvatureCoefficients,
    apply_B,
    coefficients,
    normal_form_operators,
)
from .conformal import (
    BoundaryJet,
    VariationProbe,
    cayley_transport_function,
    critical_T_shift,
    finite_covariance_residual,
    infinitesimal_covariance_residual,
    normalize_jet,
)
from .solver import (
    BoundaryTriple,
    ModeIndex,
    SolveResult,
    ball_mode_solve,
    geodesic_mode_solve,
    halfspace_solve,
    hemisphere_mode_solve,
    kernel_check,
    mode_solve,
)
from .fractional import (
    dtn_selfadjointness,
    dtn_verify,
    multiplier,
    round_multiplier,
    scattering_T2_T4,
)
from .energy import (
    dirichlet_eigen_lower,
    fi_fb_decompose,
    q6_form,
    symmetry_residual,
    trace_lower_bound_check,
)
from .traces import (
    ExtremalSpec,
    InequalityReport,
    SharpConstant,
    corollary_check,
    critical_check,
    sharp_constant,
    sphere_sobolev_check,
)
from .report import CheckReport, emit_csv

__version__ = "0.1.0"
