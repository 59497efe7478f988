"""Damped Newton solver for the regularized graph equation and the
continuation driver that sends the regularization to zero.

For fixed ``eps`` the discrete problem is: find u matching the boundary ring
with ``residual_div(u) = 0`` at every interior node.  Newton iterates with
the exact sparse Jacobian and Armijo backtracking on the residual 2-norm;
its linear systems are solved by GMRES preconditioned with the LU of an
earlier Jacobian, refactoring only when that stale LU stops being good
enough.  A step that stagnates ends the solve with
:class:`NonConvergenceError`.  :func:`continuation` walks a geometric eps
schedule, warm-starting each solve from the previous solution and the
previous LU, and records the uniform bounds whose stability is the whole
point of the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse.linalg import splu

from .geometry import Frame, apply_x1, apply_x2
from .grid import Grid, GridFunction
from .operators import jacobian_assemble, residual_div

# SuperLU column ordering for every factorization here: minimum degree on A^T + A
_PERMC_SPEC = "MMD_AT_PLUS_A"
# GMRES on a stale LU: at most this many iterations, and its answer is kept
# only if the true residual is within this fraction of SolverConfig.linear_tol
_KRYLOV_MAXITER = 15
_KRYLOV_MARGIN = 0.1
# GMRES extrapolates its mean contraction to the cap only after this many iterations
_KRYLOV_MIN_RATE_ITERS = 3
# a residual sup within this many roundings of |u|_inf / h^2 is converged
_ROUNDING_FLOOR_C = 4.0

__all__ = [
    "BoundaryData",
    "SolverConfig",
    "LUCache",
    "EpsSchedule",
    "NewtonReport",
    "VanishingViscosityRun",
    "NonConvergenceError",
    "ContinuationError",
    "transfinite_interpolation",
    "spsolve",
    "solve_eps",
    "continuation",
    "m_bound",
]


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet values on the boundary ring of a grid.

    Stored as a full nodal array whose interior entries are ignored; the
    class exists so call sites cannot confuse boundary data with an initial
    guess.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n1, self.grid.n2):
            raise ValueError("boundary array shape does not match grid")
        if not np.all(np.isfinite(v[0, :])) or not np.all(np.isfinite(v[-1, :])) \
                or not np.all(np.isfinite(v[:, 0])) or not np.all(np.isfinite(v[:, -1])):
            raise ValueError("boundary ring contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid, f) -> "BoundaryData":
        return cls(grid, GridFunction.from_callable(grid, f).values)

    def impose(self, interior: np.ndarray) -> np.ndarray:
        """Full nodal array: given interior block framed by the stored ring."""
        out = self.values.copy()
        out[1:-1, 1:-1] = interior
        return out


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton_iter: int = 30
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    min_step: float = 2.0 ** -20
    linear_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.armijo_shrink < 1.0:  # else the line search never ends
            raise ValueError(f"armijo_shrink: must lie in (0, 1), got {self.armijo_shrink}")


@dataclass
class NewtonReport:
    """Iteration record of one solve (no timings: reports are deterministic)."""

    converged: bool
    iterations: int
    final_residual: float
    residual_history: list = dc_field(default_factory=list)
    step_lengths: list = dc_field(default_factory=list)
    linear_residuals: list = dc_field(default_factory=list)  # |J d - rhs| / |rhs| per iteration
    krylov_iterations: list = dc_field(default_factory=list)  # per iteration; 0 = fresh LU
    factorizations: int = 0
    used_picard: bool = False  # always False: Newton has no fallback; report.json keeps the key
    message: str = ""


class NonConvergenceError(RuntimeError):
    """Solve failed; carries the best iterate seen and its report."""

    def __init__(self, message: str, best: GridFunction, report: NewtonReport):
        super().__init__(message)
        self.best = best
        self.report = report


class ContinuationError(RuntimeError):
    """A continuation step failed; carries the partial run and failing eps."""

    def __init__(self, message: str, partial_run: "VanishingViscosityRun", eps: float, best: GridFunction):
        super().__init__(message)
        self.partial_run = partial_run
        self.eps = eps
        self.best = best


def transfinite_interpolation(boundary: BoundaryData) -> GridFunction:
    """Bilinear blend of the boundary ring; reproduces bilinear fields.

    This is the default initial guess: for affine data it already is the
    exact discrete solution.
    """
    g = boundary.grid
    v = boundary.values
    xi = np.linspace(0.0, 1.0, g.n1)[:, None]
    eta = np.linspace(0.0, 1.0, g.n2)[None, :]
    left = v[0, :][None, :]
    right = v[-1, :][None, :]
    bottom = v[:, 0][:, None]
    top = v[:, -1][:, None]
    blend = (
        (1 - xi) * left + xi * right + (1 - eta) * bottom + eta * top
        - ((1 - xi) * (1 - eta) * v[0, 0] + xi * eta * v[-1, -1]
           + xi * (1 - eta) * v[-1, 0] + (1 - xi) * eta * v[0, -1])
    )
    return GridFunction(g, blend)


def _interior_residual(grid: Grid, values: np.ndarray, eps: float) -> np.ndarray:
    fr = Frame(GridFunction(grid, values), eps)
    return residual_div(fr).restrict(1)


class LUCache:
    """The latest SuperLU factorization of one sequence of Newton solves.

    One cache serves one standalone :func:`solve_eps` or one
    :func:`continuation` and is never shared, so identical inputs give
    identical iterates.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0


def _gmres(A, b, precondition, target: float, maxiter: int):
    """Right-preconditioned GMRES; ``(x, iterations)``, x None on a miss.

    From ``x0 = M^-1 b`` it minimizes the true residual ``|b - A x|`` over
    ``x0 + M^-1 K_k`` (Arnoldi with modified Gram-Schmidt on ``A M^-1``)
    until the least-squares estimate is at most ``target``.  Left
    preconditioning would minimize ``|M^-1 r|``, which can be tiny while
    ``|r|`` is not.

    After ``k >= 3`` iterations a try that would miss ``target`` even if its
    mean contraction so far, ``(est/beta)^(1/k)``, held until ``maxiter``
    stops early: ``est * (est/beta)^((maxiter - k)/k) > target`` returns
    ``(None, k)``, and the caller refactors as it would after a full miss.
    """
    x0 = precondition(b)
    r = b - A @ x0
    beta = float(np.linalg.norm(r))
    if beta <= target:
        return x0, 0
    V, Z = [r / beta], []
    H = np.zeros((maxiter + 1, maxiter))
    for j in range(maxiter):
        Z.append(precondition(V[j]))
        w = A @ Z[j]
        for i, v in enumerate(V):
            H[i, j] = w @ v
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        e = np.zeros(j + 2)
        e[0] = beta
        y = np.linalg.lstsq(H[:j + 2, :j + 1], e, rcond=None)[0]
        est = float(np.linalg.norm(H[:j + 2, :j + 1] @ y - e))
        if est <= target or H[j + 1, j] == 0.0:
            return x0 + np.column_stack(Z) @ y, j + 1
        k = j + 1
        if k >= _KRYLOV_MIN_RATE_ITERS and est * (est / beta) ** ((maxiter - k) / k) > target:
            return None, k
        V.append(w / H[j + 1, j])
    return None, maxiter


def spsolve(A, b: np.ndarray, cache: LUCache, rtol: float):
    """Solve the sparse system ``A x = b``; returns ``(x, krylov_iterations)``.

    When ``cache`` holds the LU of an earlier matrix of the same shape,
    GMRES preconditioned by it goes first; its answer is kept when the
    explicit residual ``|A x - b|`` is at most ``rtol |b|``.  Otherwise A
    is factored afresh by SuperLU and solved directly (0 iterations), and
    the new LU replaces the cached one.  The stale LU is dropped before
    the factorization, so at most one LU is alive at a time.
    """
    if cache.lu is not None and cache.lu.shape == A.shape:
        target = rtol * np.linalg.norm(b)
        x, its = _gmres(A, b, cache.lu.solve, target, _KRYLOV_MAXITER)
        if x is not None and np.linalg.norm(A @ x - b) <= target:
            return x, its
        cache.lu = None
    lu = splu(A, permc_spec=_PERMC_SPEC)
    cache.lu = lu
    cache.factorizations += 1
    return lu.solve(b), 0


def solve_eps(
    grid: Grid,
    boundary: BoundaryData,
    eps: float,
    config: SolverConfig = SolverConfig(),
    initial_guess: GridFunction | None = None,
    lu_cache: LUCache | None = None,
):
    """Solve the regularized equation at fixed ``eps``.

    Returns ``(solution, report)``; raises :class:`NonConvergenceError` with
    the best iterate attached when the tolerance cannot be reached.  An
    iterate is accepted once its residual sup is at most ``newton_tol``, or
    at most the rounding floor ``4 eps_mach |u|_inf / h^2`` (h the smaller
    spacing) that a second-difference residual cannot go below; the report
    then says "converged at the rounding floor".  A step whose linear solve
    misses ``linear_tol`` or whose line search falls below ``min_step``
    ends the solve, as does ``max_newton_iter``.

    Each Newton step goes through :func:`spsolve` with ``lu_cache`` (a fresh
    :class:`LUCache` when None): GMRES preconditioned by the LU of an
    earlier Jacobian, kept only at a true linear residual of at most
    ``0.1 linear_tol``, else a fresh factorization of this Jacobian.  A
    kept Krylov step differs from the exact Newton step by a relative 1e-9
    at most; the quadratic convergence of the later steps wipes that out,
    so the solution agrees with a fresh factorization per step up to
    rounding, while intermediate residuals move at the level of the linear
    tolerance.  Factorizations use the column ordering ``MMD_AT_PLUS_A``,
    minimum degree on the pattern of ``J^T + J``: on the structurally
    symmetric 9-point pattern it leaves about a third less fill than the
    default COLAMD.
    """
    if grid != boundary.grid:
        raise ValueError("boundary data lives on a different grid")
    if initial_guess is None:
        u = transfinite_interpolation(boundary).values
    else:
        if initial_guess.grid != grid:
            raise ValueError("initial guess lives on a different grid")
        u = boundary.impose(initial_guess.values[1:-1, 1:-1])

    report = NewtonReport(converged=False, iterations=0, final_residual=np.inf)
    best_vals, best_sup = u.copy(), np.inf

    def record_best(vals, sup):
        nonlocal best_vals, best_sup
        if sup < best_sup:
            best_vals, best_sup = vals.copy(), sup

    if lu_cache is None:
        lu_cache = LUCache()
    factorizations_before = lu_cache.factorizations
    floor_per_unit_u = _ROUNDING_FLOOR_C * np.finfo(float).eps / min(grid.h1, grid.h2) ** 2
    it = 0
    while True:
        r = _interior_residual(grid, u, eps)
        sup = float(np.max(np.abs(r)))
        report.residual_history.append(sup)
        record_best(u, sup)
        if sup <= max(config.newton_tol, floor_per_unit_u * float(np.max(np.abs(u)))):
            report.converged = True
            report.final_residual = sup
            report.iterations = it
            report.factorizations = lu_cache.factorizations - factorizations_before
            if sup > config.newton_tol:
                report.message = "converged at the rounding floor"
            return GridFunction(grid, u), report
        if it >= config.max_newton_iter:
            break

        fr = Frame(GridFunction(grid, u), eps)
        J = jacobian_assemble(fr).tocsc()
        rhs = -r.ravel()
        delta, krylov_its = spsolve(J, rhs, lu_cache, _KRYLOV_MARGIN * config.linear_tol)
        lin_res = float(np.linalg.norm(J @ delta - rhs) / max(np.linalg.norm(rhs), 1e-300))
        report.linear_residuals.append(lin_res)
        report.krylov_iterations.append(krylov_its)
        if not np.all(np.isfinite(delta)) or lin_res > config.linear_tol:
            break
        # Armijo on the residual 2-norm
        r2 = np.linalg.norm(r)
        lam = 1.0
        stagnated = False
        while True:
            trial = u.copy()
            trial[1:-1, 1:-1] += lam * delta.reshape(r.shape)
            tr = _interior_residual(grid, trial, eps)
            if np.linalg.norm(tr) <= (1.0 - config.armijo_c * lam) * r2:
                u = trial
                report.step_lengths.append(lam)
                break
            lam *= config.armijo_shrink
            if lam < config.min_step:
                stagnated = True
                break
        if stagnated:
            break
        it += 1

    # every break leaves u as it was at the top of its iteration, whose
    # residual record_best has already seen
    report.final_residual = best_sup
    report.iterations = it
    report.factorizations = lu_cache.factorizations - factorizations_before
    report.message = "newton did not reach tolerance"
    raise NonConvergenceError(
        f"no convergence at eps={eps}: best residual {best_sup:.3e}",
        GridFunction(grid, best_vals),
        report,
    )


# ---------------------------------------------------------------------------
# continuation in eps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric regularization schedule clipped at ``eps_min``."""

    eps_start: float = 1.0
    factor: float = 0.5
    eps_min: float = 1e-3
    max_steps: int = 64

    def __post_init__(self):
        for name in ("eps_start", "eps_min"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if not (0 < self.factor < 1):
            raise ValueError(f"factor: must lie in (0, 1), got {self.factor}")
        if self.eps_min > self.eps_start:
            raise ValueError(f"eps_min: exceeds eps_start, {self.eps_min} > {self.eps_start}")

    def values(self) -> list[float]:
        out = [self.eps_start]
        while len(out) < self.max_steps and out[-1] > self.eps_min:
            out.append(max(out[-1] * self.factor, self.eps_min))
        return out


def m_bound(frame: Frame) -> float:
    """Uniform bound ``sup|u| + sup|grad u| + sup|d2 u|`` (frame gradient)."""
    u = frame.u
    p1 = apply_x1(frame, u).values
    p2 = apply_x2(frame, u).values
    grad_sup = float(np.max(np.sqrt(p1 * p1 + p2 * p2)))
    return u.sup_norm + grad_sup + float(np.max(np.abs(u.d2())))


@dataclass
class VanishingViscosityRun:
    """Solutions and uniform bounds along a decreasing eps schedule."""

    grid: Grid
    boundary: BoundaryData
    eps_values: list
    solutions: list
    reports: list
    lip_norms: list
    m_bounds: list
    sup_diffs: list  # |u_{j+1} - u_j|_inf, one per consecutive pair

    @property
    def final(self) -> GridFunction:
        return self.solutions[-1]

    @property
    def final_eps(self) -> float:
        return self.eps_values[-1]


def continuation(
    grid: Grid,
    boundary: BoundaryData,
    schedule: EpsSchedule = EpsSchedule(),
    config: SolverConfig = SolverConfig(),
) -> VanishingViscosityRun:
    """Walk the schedule with warm starts; returns the assembled run.

    The first solve starts from the transfinite blend of the boundary; each
    later solve starts from the previous solution.  All solves share one
    :class:`LUCache`, created here, so the last LU of one eps step
    preconditions the GMRES of the next and a factorization is redone only
    when GMRES on it misses its tolerance (4 of 28 Newton steps on the 129²
    ``fan_bump`` default schedule).  As explained in :func:`solve_eps`,
    the solutions still agree with a fresh factorization per step up to
    rounding (|du| = 5.6e-16 there), and a new cache per call keeps
    repeated runs bit-identical.  A failed step raises
    :class:`ContinuationError` carrying the partial run.
    """
    run = VanishingViscosityRun(
        grid=grid, boundary=boundary, eps_values=[], solutions=[],
        reports=[], lip_norms=[], m_bounds=[], sup_diffs=[],
    )
    guess = None
    lu_cache = LUCache()
    for eps in schedule.values():
        try:
            sol, report = solve_eps(grid, boundary, eps, config, initial_guess=guess,
                                    lu_cache=lu_cache)
        except NonConvergenceError as exc:
            raise ContinuationError(
                f"continuation stalled at eps={eps}: {exc}", run, eps, exc.best
            ) from exc
        if run.solutions:
            run.sup_diffs.append(float(np.max(np.abs(sol.values - run.solutions[-1].values))))
        run.eps_values.append(eps)
        run.solutions.append(sol)
        run.reports.append(report)
        run.lip_norms.append(sol.lip_norm)
        run.m_bounds.append(m_bound(Frame(sol, eps)))
        guess = sol
    return run
