"""Damped Newton solver for the regularized graph equation and the
continuation driver that sends the regularization to zero.

For fixed ``eps`` the discrete problem is: find u matching the boundary ring
with ``residual_div(u) = 0`` at every interior node.  Newton iterates with
the exact sparse Jacobian and Armijo backtracking on the residual 2-norm;
its linear systems are solved by GMRES preconditioned with the LU of an
earlier Jacobian, refactoring only when that stale LU stops being good
enough.  Every stop short of convergence ends the solve with
:class:`NonConvergenceError`.  :func:`continuation` walks a geometric eps
schedule, starting each solve from the extrapolation in eps^2 of the last
five solutions and from the previous LU, and records each eps with its
solution and report.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import Frame
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
# continuation starts each eps from the extrapolation through at most this many solutions
_PREDICTOR_POINTS = 5
# glibc's malloc_trim, which hands free heap pages back to the system; None elsewhere
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None

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
        if self.max_newton_iter < 0:
            raise ValueError(f"max_newton_iter: must be at least 0, got {self.max_newton_iter}")
        if not 0.0 < self.armijo_shrink < 1.0:  # else the line search never ends
            raise ValueError(f"armijo_shrink: must lie in (0, 1), got {self.armijo_shrink}")


@dataclass
class NewtonReport:
    """Iteration record of one solve (no timings: reports are deterministic)."""

    converged: bool
    final_residual: float
    residual_history: list = dc_field(default_factory=list)
    step_lengths: list = dc_field(default_factory=list)
    linear_residuals: list = dc_field(default_factory=list)  # |J d - rhs| / |rhs| per iteration
    krylov_iterations: list = dc_field(default_factory=list)  # per iteration; 0 = fresh LU
    factorizations: int = 0
    message: str = ""
    used_picard = False  # a class constant: Newton has no fallback; report.json keeps the key

    @property
    def iterations(self) -> int:  # Newton steps taken: one per accepted step length
        return len(self.step_lengths)


class NonConvergenceError(RuntimeError):
    """Solve failed; carries the best iterate seen and its report."""

    def __init__(self, message: str, best: GridFunction, report: NewtonReport):
        super().__init__(message)
        self.best = best
        self.report = report


class ContinuationError(NonConvergenceError):
    """A continuation step failed; adds its eps and the run before it to the solve's failure."""

    def __init__(self, failure: NonConvergenceError, eps: float,
                 partial_run: "VanishingViscosityRun"):
        super().__init__(f"continuation stalled at eps={eps:g}: {failure}", failure.best,
                         failure.report)
        self.eps = eps
        self.partial_run = partial_run


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


def _interior_residual(grid: Grid, values: np.ndarray, eps: float) -> np.ndarray | None:
    """The interior residual of the iterate ``values``; None if either is not finite."""
    if not np.all(np.isfinite(values)):
        return None
    fr = Frame(GridFunction(grid, values), eps)
    try:
        with np.errstate(all="ignore"):
            return residual_div(fr).restrict(1)
    except ValueError:  # the residual's GridFunction rejects a value that is not finite
        return None


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
    ``x0 + M^-1 K_k`` (Arnoldi on ``A M^-1``) until the least-squares
    estimate is at most ``target``.  The orthonormal basis and its
    preconditioned images live in two blocks made once per try, ``V`` of
    ``maxiter + 1`` rows and ``Z`` of ``maxiter``; each new vector is
    orthogonalized against ``V[:j+1]`` by two passes of classical
    Gram-Schmidt, two matrix-vector products each, which keeps the basis as
    orthogonal as modified Gram-Schmidt does ("twice is enough": Giraud,
    Langou & Rozloznik 2005) with no loop over the basis.  One Givens
    rotation per iteration keeps the small least-squares problem upper
    triangular, so the estimate is the last entry of the rotated ``beta e_1``
    and the coefficients y come from one back substitution at the end (Saad &
    Schultz 1986); the answer is ``x0 + y Z[:k]``.  Left preconditioning
    would minimize ``|M^-1 r|``, which can be tiny while ``|r|`` is not.

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
    V = np.empty((maxiter + 1, len(b)))
    Z = np.empty((maxiter, len(b)))
    np.divide(r, beta, out=V[0])
    R = np.zeros((maxiter, maxiter))  # the Hessenberg matrix, rotated upper triangular
    g = np.zeros(maxiter + 1)  # beta e_1, rotated alike: |g[k]| is the residual after k iterations
    g[0] = beta
    rotations = []
    for j in range(maxiter):
        Z[j] = precondition(V[j])
        w = A @ Z[j]
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        correction = basis @ w
        w -= correction @ basis
        h = (h + correction).tolist()
        h_next = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        d = math.hypot(h[j], h_next)
        c, s = (h[j] / d, h_next / d) if d > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        h[j] = d
        R[:j + 1, j] = h
        g[j], g[j + 1] = c * g[j], -s * g[j]
        est = abs(g[j + 1])
        k = j + 1
        if est <= target or h_next == 0.0:
            y = np.zeros(k)
            for i in reversed(range(k)):
                y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:k]) / R[i, i]
            return x0 + y @ Z[:k], k
        if k >= _KRYLOV_MIN_RATE_ITERS and est * (est / beta) ** ((maxiter - k) / k) > target:
            return None, k
        np.divide(w, h_next, out=V[k])
    return None, maxiter


def spsolve(A, b: np.ndarray, cache: LUCache, rtol: float):
    """Solve the sparse system ``A x = b``; returns ``(x, krylov_iterations)``.

    When ``cache`` holds the LU of an earlier matrix of the same shape,
    GMRES preconditioned by it goes first; its answer is kept when the
    explicit residual ``|A x - b|`` is at most ``rtol |b|``.  Otherwise the
    cached LU, of whatever shape, is dropped before anything is factored, so
    at most one LU is alive at a time, and A is factored afresh by SuperLU
    and solved directly (0 iterations); the new LU is cached.  SuperLU
    factors ``A^T``, which for the CSR Jacobian is a CSC view of the same
    arrays, and solves with ``trans="T"``: no CSC copy of A is made and
    every product with A is a CSR product (a CSC matrix is converted once).
    The ordering ``MMD_AT_PLUS_A`` reads the pattern of ``A + A^T`` either
    way.  Before SuperLU factors, free heap pages go back to the system
    (glibc's ``malloc_trim``, skipped where the C library has none): SuperLU's
    work arrays, two of 34 MB and two of 17 MB at 129^2 and mostly untouched,
    come from the heap once glibc's mmap threshold has risen past them, and
    the pages an earlier LU touched would stay resident after it is freed,
    so the peak memory of a run would grow with the order of its
    allocations rather than with its live data.  A matrix that SuperLU finds
    exactly singular gives a NaN ``x``, a step that is not finite, and leaves
    no LU cached and no factorization counted.  SuperLU is imported on that
    branch only, so scipy loads when ``solve`` or ``continuation`` factors
    its first Jacobian and never at import.
    """
    lu = cache.lu
    if lu is not None and lu.shape == A.shape:
        target = rtol * np.linalg.norm(b)
        x, its = _gmres(A, b, lambda v: lu.solve(v, trans="T"), target, _KRYLOV_MAXITER)
        if x is not None and np.linalg.norm(A @ x - b) <= target:
            return x, its
    cache.lu = lu = None  # the preconditioner's closure holds it too
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A.T.tocsc(), permc_spec=_PERMC_SPEC)
    except RuntimeError:  # "Factor is exactly singular"
        return np.full(len(b), np.nan), 0
    cache.lu = lu
    cache.factorizations += 1
    return lu.solve(b, trans="T"), 0


def _solvable(grid: Grid) -> Grid:
    """``grid``, if each spacing squared is a normal float: the Newton solve's
    rounding floor divides by the smaller one."""
    for name, h in (("x1", grid.h1), ("x2", grid.h2)):
        if h * h < np.finfo(float).tiny:
            raise ValueError(
                f"{name}: the spacing {h:g} squared is below the smallest normal float")
    return grid


def solve_eps(
    grid: Grid,
    boundary: BoundaryData,
    eps: float,
    config: SolverConfig = SolverConfig(),
    initial_guess: GridFunction | None = None,
    lu_cache: LUCache | None = None,
):
    """Solve the regularized equation at fixed ``eps``.

    Newton starts from ``initial_guess`` (by default the transfinite blend
    of the boundary) with the boundary ring replaced by the Dirichlet data,
    so every solution carries the data on its ring bit for bit.  Returns
    ``(solution, report)``; raises :class:`NonConvergenceError` with
    the best iterate attached when the tolerance cannot be reached.  An
    iterate is accepted once its residual sup is at most ``newton_tol``, or
    at most the rounding floor ``4 eps_mach |u|_inf / h^2`` (h the smaller
    spacing) that a second-difference residual cannot go below; the report
    then says "converged at the rounding floor".  A step whose linear solve
    misses ``linear_tol`` or is not finite (an exactly singular Jacobian, say)
    or whose line search falls below ``min_step`` ends the solve, as do
    ``max_newton_iter`` and a residual that is not finite.  Every stop
    leaves through one exit, whose error carries the first iterate of least
    residual sup.

    Each Newton step goes through :func:`spsolve` with ``lu_cache`` (a fresh
    :class:`LUCache` when None): GMRES preconditioned by the LU of an
    earlier Jacobian, kept only at a true linear residual of at most
    ``0.1 linear_tol``, else a fresh factorization of this Jacobian.  A
    kept Krylov step differs from the exact Newton step by a relative 1e-9
    at most; the quadratic convergence of the later steps wipes that out,
    so the solution agrees with a fresh factorization per step up to
    rounding, while intermediate residuals move at the level of the linear
    tolerance.  The Jacobian stays in the CSR form it is assembled in:
    :func:`spsolve` factors its transpose, a CSC view, and every product with
    it is a CSR product.  Factorizations use the column ordering
    ``MMD_AT_PLUS_A``, minimum degree on the pattern of ``J^T + J``: on the
    structurally symmetric 9-point pattern it leaves about a third less fill
    than the default COLAMD.  A grid whose spacing squared is below the
    smallest normal float is a ValueError, as the rounding floor would divide
    by it.
    """
    _solvable(grid)
    if grid != boundary.grid:
        raise ValueError("boundary data lives on a different grid")
    if initial_guess is None:
        initial_guess = transfinite_interpolation(boundary)
    elif initial_guess.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    u = boundary.impose(initial_guess.values[1:-1, 1:-1])

    report = NewtonReport(converged=False, final_residual=np.inf)
    best, best_sup = u, np.inf  # iterates are replaced, never written into
    if lu_cache is None:
        lu_cache = LUCache()
    factorizations_before = lu_cache.factorizations
    floor_per_unit_u = _ROUNDING_FLOOR_C * float(np.finfo(float).eps) / min(grid.h1, grid.h2) ** 2
    while True:
        r = _interior_residual(grid, u, eps)
        sup = np.inf if r is None else float(np.max(np.abs(r)))
        report.residual_history.append(sup)
        if sup < best_sup:
            best, best_sup = u, sup
        report.converged = sup <= max(config.newton_tol,
                                      floor_per_unit_u * float(np.max(np.abs(u))))
        if report.converged or r is None or report.iterations >= config.max_newton_iter:
            break

        fr = Frame(GridFunction(grid, u), eps)
        with np.errstate(all="ignore"):  # entries that overflow make a step that is not finite
            J = jacobian_assemble(fr)
        rhs = -r.ravel()
        with np.errstate(all="ignore"):  # a norm that overflows is inf, which _armijo refuses
            delta, krylov_its = spsolve(J, rhs, lu_cache, _KRYLOV_MARGIN * config.linear_tol)
            lin_res = float(np.linalg.norm(J @ delta - rhs) / max(np.linalg.norm(rhs), 1e-300))
            r2 = float(np.linalg.norm(r))
        report.linear_residuals.append(lin_res)
        report.krylov_iterations.append(krylov_its)
        if not np.all(np.isfinite(delta)) or lin_res > config.linear_tol:
            break
        step = _armijo(grid, u, delta.reshape(r.shape), r2, eps, config)
        if step is None:
            break
        lam, u = step
        report.step_lengths.append(lam)

    # the one exit of every stop
    report.factorizations = lu_cache.factorizations - factorizations_before
    if report.converged:
        report.final_residual = sup
        if sup > config.newton_tol:
            report.message = "converged at the rounding floor"
        return GridFunction(grid, u), report
    report.final_residual = best_sup
    report.message = "newton did not reach tolerance"
    raise NonConvergenceError(
        f"no convergence at eps={eps}: best residual {best_sup:.3e}",
        GridFunction(grid, best),
        report,
    )


def _armijo(grid: Grid, u: np.ndarray, delta: np.ndarray, r2: float, eps: float,
            config: SolverConfig):
    """Armijo backtracking from ``u``, of interior residual 2-norm ``r2``, along
    ``delta``: ``(lam, trial)`` for the first lam of 1, shrink, shrink^2, ...
    that it accepts, or None below ``min_step``.  lam = 1 is tried even when
    ``min_step > 1``; a trial whose residual or residual 2-norm is not finite
    is rejected, and an ``r2`` that is not finite returns None at once, as no
    trial could be compared with it.
    """
    if not np.isfinite(r2):
        return None
    lam = 1.0
    while True:
        trial = u.copy()
        trial[1:-1, 1:-1] += lam * delta
        tr = _interior_residual(grid, trial, eps)
        if tr is not None:
            with np.errstate(over="ignore"):  # a norm that overflows is inf: rejected
                accepted = np.linalg.norm(tr) <= (1.0 - config.armijo_c * lam) * r2
            if accepted:
                return lam, trial
        lam *= config.armijo_shrink
        if lam < config.min_step:
            return None


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
        if self.eps_start == np.inf:  # else values() repeats inf max_steps times
            raise ValueError("eps_start: must be finite, got inf")
        if not (0 < self.factor < 1):
            raise ValueError(f"factor: must lie in (0, 1), got {self.factor}")
        if self.eps_min > self.eps_start:
            raise ValueError(f"eps_min: exceeds eps_start, {self.eps_min} > {self.eps_start}")
        if self.max_steps < 1:  # else values() would still hold eps_start
            raise ValueError(f"max_steps: must be at least 1, got {self.max_steps}")
        eps = self.values()  # a subnormal eps times factor can round back to eps
        stuck = next((a for a, b in zip(eps, eps[1:]) if b >= a), None)
        if stuck is not None:
            raise ValueError(f"factor: eps={stuck!r} times {self.factor} rounds back to eps; "
                             "the schedule must strictly decrease")

    def values(self) -> list[float]:
        out = [self.eps_start]
        while len(out) < self.max_steps and out[-1] > self.eps_min:
            out.append(max(out[-1] * self.factor, self.eps_min))
        return out


@dataclass
class VanishingViscosityRun:
    """The solutions of a decreasing eps schedule and their Newton reports."""

    eps_values: list
    solutions: list
    reports: list

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
    """Walk the schedule with predicted starts; returns the assembled run.

    The first solve starts from the transfinite blend of the boundary.  As
    u(eps) is even in eps, each later solve starts from the polynomial in
    s = eps^2 through the last min(5, k) solutions, evaluated at the new
    eps^2 (Lagrange extrapolation, natural-parameter continuation): the
    previous solution after one step, the line in eps^2 after two.  It is
    summed as ``u_last + sum_j w_j (u_j - u_last)``, so solutions that do
    not change give a guess that is the last one bit for bit, and it
    evaluates no residual.  A guess that is not finite falls back to the
    previous solution; :func:`solve_eps` re-imposes the boundary ring.  On
    the 129² ``fan_bump`` default schedule this takes 22 Newton steps in
    place of the previous solution's 28 (23 through three solutions), and
    the last two eps none.  The window is bounded because the weights grow
    with it: through five solutions sum |w_j| is at most 28 even for a
    schedule factor of 0.99, while through every solution of that schedule
    it passes 1e12, and the rounding of the solutions grows with it.

    All solves share one :class:`LUCache`, created here, so the last LU of
    one eps step preconditions the GMRES of the next and a factorization is
    redone only when GMRES on it misses its tolerance (4 of those 22 Newton
    steps).  As explained in :func:`solve_eps`, the solutions still agree
    with a fresh factorization per step up to rounding (|du| = 7.8e-16
    there), and a new cache per call keeps repeated runs bit-identical.  A
    failed step raises :class:`ContinuationError` carrying the partial run.
    """
    run = VanishingViscosityRun(eps_values=[], solutions=[], reports=[])
    guess = None
    lu_cache = LUCache()
    for eps in schedule.values():
        if run.solutions:
            # the Lagrange weights in s = (eps_j / eps)^2, which puts the target at s = 1
            us = [sol.values for sol in run.solutions[-_PREDICTOR_POINTS:]]
            values = us[-1]
            with np.errstate(all="ignore"):
                s = np.square(np.array(run.eps_values[-_PREDICTOR_POINTS:]) / eps)
                for j in range(len(s) - 1):
                    w = math.prod((1.0 - s[l]) / (s[j] - s[l]) for l in range(len(s)) if l != j)
                    values = values + w * (us[j] - us[-1])
            # an extrapolation that overflows (eps ratios beyond 1e154, say) falls
            # back to the last solution
            guess = GridFunction(grid, values if np.all(np.isfinite(values)) else us[-1])
        try:
            sol, report = solve_eps(grid, boundary, eps, config, initial_guess=guess,
                                    lu_cache=lu_cache)
        except NonConvergenceError as exc:
            raise ContinuationError(exc, eps, run) from exc
        run.eps_values.append(eps)
        run.solutions.append(sol)
        run.reports.append(report)
    return run
