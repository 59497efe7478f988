"""Numerical laboratory for non-characteristic minimal intrinsic graphs.

Solves the regularized minimal-graph equation on rectangles, drives the
vanishing-regularization limit, and measures the regularity and foliation
structure of the computed states.
"""

from .grid import Grid, GridFunction, GridMismatchError, require_same_grid
from .geometry import (
    FlowConvergenceError,
    Frame,
    FrozenFrame,
    LiftedFrame,
    LiftedPoint,
    PathExitsGridError,
    UnreachableError,
    apply_x1,
    apply_x2,
    dist_oracle_many,
    dist_surrogate_cc,
    dist_surrogate_eps,
    eval_p1,
    exp_coords_lifted,
    taylor_p1,
    taylor_remainder_exponent,
)
from .operators import (
    CoefficientField,
    Residual,
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
    NewtonReport,
    NonConvergenceError,
    SolverConfig,
    VanishingViscosityRun,
    continuation,
    m_bound,
    picard_solve,
    solve_eps,
    transfinite_interpolation,
)
from .foliation import (
    Leaf,
    LeafTraceError,
    LieDerivativeSample,
    coverage_fraction,
    fit_leaf,
    foliation_cover,
    leaf_table,
    lie_derivatives,
    trace_leaf,
)
from .diagnostics import (
    DiagnosticsBudgets,
    NormLedger,
    NormLedgerRow,
    RegularityVerdict,
    derivative_equation_residuals,
    holder_exponent_estimate,
    holder_seminorm,
    intrinsic_derivative,
    norm_ledger,
    sobolev_norm_eps,
    verdict,
)
from .catalog import (
    CatalogEntry,
    DomainError,
    ShearRootError,
    affine_graph,
    catalog,
    make_entry,
    pauls_graph,
    shear_entry,
    shear_graph,
)

__version__ = "0.1.0"
