"""Verification library for the sixth-order GJMS operator, its conformally
covariant boundary operators, the induced Dirichlet-to-Neumann operators,
and the sharp Sobolev trace inequalities on the model geometries.

The package has two layers.  The exact layer, every module imported here,
checks covariance, the energy form and the DtN identities in rational
arithmetic and imports no numpy.  The float layer is ``traces``, the sharp
trace inequalities (import it as ``gjms6.traces``; it imports numpy), and
the float functions of ``solver`` (the float Dirichlet solve, the
hemisphere profiles and ``kernel_values``) and
``energy.dirichlet_eigen_lower``, which import numpy when they run.  So a
run pays for numpy only once a float path does.
"""

from .geometry import (
    GeometryKind,
    ModelGeometry,
    ball,
    halfspace,
    hemisphere,
    hyperbolic_geodesic,
)
from .polys import (
    MomentScalar,
    Poly,
    ball_integral,
    laplacian,
    reduce_mod_sphere,
    sphere_integral,
)
from .gjms import apply_L6, factorization_shifts, q6_constant_curvature, t4_action
from .boundary import (
    BoundaryOperatorId,
    apply_B,
    normal_form_terms,
)
from .conformal import (
    VariationProbe,
    critical_T_shift,
    finite_covariance_residual,
    infinitesimal_covariance_residual,
)
from .solver import (
    BoundaryTriple,
    SolveResult,
    ball_mode_solve,
    geodesic_mode_solve,
    halfspace_solve,
    hemisphere_mode_solve,
    mode_solve,
)
from .fractional import (
    dtn_selfadjointness,
    dtn_verify,
    multiplier,
    round_multiplier,
)
from .energy import (
    dirichlet_eigen_lower,
    fi_fb_decompose,
    q6_form,
    symmetry_residual,
    trace_lower_bound_check,
)
from .report import CheckReport, emit_csv

__version__ = "0.1.0"
