"""Sturm-Liouville spectra, fractional-power spaces, and modal semigroups.

The library solves regular Sturm-Liouville eigenproblems with Robin
boundary conditions by scaled Prüfer shooting, builds the fractional
spaces X_alpha with their rescaled orthonormal bases, simulates the
generated semigroup modally, and cross-validates everything against an
independent finite-difference oracle.  A diffusion-convection-reaction
case study exercises the whole stack with closed-form references.
"""

from .core import (
    BoundaryData,
    BracketError,
    Grid,
    GridFunction,
    GridMismatchError,
    Interval,
    MissingDerivativeError,
    SLProblem,
    apply_operator,
    bc_residual,
    boundary_derivatives,
    boundary_values,
    find_root,
    grid_function,
    gridfunction_to_csv,
    inner_product_rho,
    integrate,
    make_grid,
    norm_rho,
)
from .expressions import CoeffExpr, ExprSyntaxError, parse_coeff
from .eigensolve import (
    EigenvalueBracketError,
    ModalCoefficients,
    SpectralDecomposition,
    coefficients_of,
    solve_spectrum,
    synthesize,
)
from .fracspace import (
    FractionalSpace,
    TailReport,
    apply_A_alpha,
    coercivity_gap,
    fractional_apply,
    fractional_space,
    in_domain_alpha,
    inner_product_alpha,
    norm_alpha,
    rescaled_basis,
    scaling_identity_check,
)
from .semigroup import (
    SemigroupTrajectory,
    evolve,
    growth_bound,
    is_compact,
    is_exponentially_stable,
    trajectory,
    trajectory_to_csv,
    trajectory_to_json,
)
from .oracle import FDOperator, assemble, crank_nicolson, fd_eigs, fd_eigs_extrapolated
from .casestudy import (
    CaseStudySpectrum,
    DCRModel,
    EquivalenceReport,
    ObservabilityReport,
    closed_form_eigenfunction,
    dcr_sl_problem,
    h1_full_inner_product,
    h1_inner_product,
    norm_equivalence,
    observability_from_values,
    observability_test,
    poincare_check,
    quadratic_form_identity,
    solve_case_study,
    transform_state,
    transformed_problem,
    trig_corpus,
)

__version__ = "0.1.0"
