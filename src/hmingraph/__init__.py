"""Numerical laboratory for non-characteristic minimal intrinsic graphs.

Solves the regularized minimal-graph equation on rectangles, drives the
vanishing-regularization limit, and measures the regularity and foliation
structure of the computed states.
"""

from .grid import Grid, GridFunction, GridMismatchError, require_same_grid
from .geometry import (
    Frame,
    LiftedPoint,
    UnreachableError,
    apply_x1,
    apply_x2,
    dist_oracle_many,
    dist_surrogate_cc,
    dist_surrogate_eps,
    eval_p1,
    taylor_p1,
    taylor_remainder_exponent,
)
from .operators import (
    aij_from_gradient,
    coefficients,
    jacobian_assemble,
    residual_div,
    residual_nondiv,
)
from .solver import (
    BoundaryData,
    ContinuationError,
    EpsSchedule,
    NonConvergenceError,
    SolverConfig,
    continuation,
    solve_eps,
    transfinite_interpolation,
)
from .foliation import (
    LeafTraceError,
    coverage_fraction,
    fit_leaf,
    foliation_cover,
    leaf_table,
    trace_leaf,
)
from .diagnostics import (
    DiagnosticsBudgets,
    derivative_equation_residuals,
    holder_exponent_estimate,
    holder_seminorm,
    intrinsic_derivative,
    m_bound,
    norm_ledger,
    sobolev_norm_eps,
    verdict,
)
from .catalog import (
    DomainError,
    ShearRootError,
    affine_graph,
    catalog,
    make_entry,
    pauls_graph,
    shear_graph,
)

__version__ = "0.1.0"
