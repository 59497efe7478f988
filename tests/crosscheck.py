"""Independent references that the tests compare the package against.

Nothing in ``hmingraph`` reaches these; each one computes, by a route of its
own, a number that a package routine computes too:

- the unfrozen-frame shooter (:func:`exp_coords_lifted`, :func:`_flow_coords`):
  exponential coordinates of the lifted frame by fourth-order shooting, the
  reference of the closed-form frozen coordinates;
- :func:`_swept_lattice` and :func:`_lattice_distances`: the oracle lattice
  swept to its end, the reference of the on-demand sweep;
- :func:`picard_solve` with :func:`_lagged_matrix`: a Jacobian-free
  lagged-coefficient fixed point, the reference of the Newton solve;
- :func:`residual_by_hand` and :func:`offsets_by_hand`: the divergence row
  written out for the residual and for each of the nine Jacobian offsets,
  the reference of the one row formula they share in ``hmingraph``;
- :func:`halfdata_by_aij`: the half-node coefficients and weights by
  :func:`~hmingraph.operators.aij_from_gradient`, the reference of the
  residual and Jacobian that form only what they read;
- :func:`gmres_lstsq`: GMRES that solves its small least-squares problem
  afresh each iteration, the reference of the Givens-rotation GMRES.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from hmingraph.geometry import Frame, FrozenFrame, LiftedPoint, OracleLattice, _drive
from hmingraph.grid import Grid, GridFunction
from hmingraph.operators import (_combine_offsets, _HalfData, _offset_matrix, aij_from_gradient,
                                 residual_div)
from hmingraph.solver import (_KRYLOV_MIN_RATE_ITERS, BoundaryData, LUCache, spsolve,
                              transfinite_interpolation)


# ---------------------------------------------------------------------------
# exponential coordinates along the lifted frame
# ---------------------------------------------------------------------------


class PathExitsGridError(RuntimeError):
    """A connecting flow path left the rectangle where u is defined."""


class FlowConvergenceError(ValueError):
    """Flow coordinates missed their shooting or refinement tolerance."""


def _flow_coords(
    u_eval: Callable,
    x0: tuple[float, float],
    x: tuple[float, float],
    s: float,
    eps: float,
    rel_tol: float = 1e-9,
    slopes: tuple[float, float] = (0.0, 0.0),
):
    """Adapted coordinates (e1, e2, e3) of ``(x, s)`` seen from ``(x0, 0)``.

    The flow of ``e1 X1~ + e2 X2~ + e3 X3~`` from ``(x0, 0)`` reaches
    ``(x, s)`` at time one.  Its first and third components are affine in
    time, fixing ``e1 = (x - x0)_1`` and ``e3 = s``; the second component is
    recovered by shooting on the constant drive ``c = eps * e2`` of

        g2'(t) = e1 * (u(g1(t), g2(t)) + t^2 s^2) + c,

    integrated by the classical fourth-order scheme.  The reported e2 comes
    from the quadrature identity

        eps * e2 = (x - x0)_2 - e1 * (I + s^2 / 3),
        I = integral_0^1 u(gamma(t)) dt  (composite Simpson),

    which the converged path satisfies by construction.  The shooting
    starts from the closed-form drive of :func:`_frozen_coords` for the
    affine model with value ``u(x0)`` and Euclidean gradient ``slopes``
    (zero slopes give the flat path's drive), after one secant step on that
    model at the current subinterval count: the endpoint map amplifies the
    scheme's own error in the drive by about ``exp(e1 d2u)``, which at rates
    of tens would send the first trial path off the domain.  Subinterval
    counts start at 32 and double until e2 moves by less than ``rel_tol``
    (relative), at most five times.

    ``u_eval(x1, x2)`` must evaluate anywhere on the path and raise
    ``ValueError`` off its domain, which is converted to
    :class:`PathExitsGridError`.  If 60 secant steps miss the endpoint, or
    five doublings leave e2 moving by more than ``rel_tol``,
    :class:`FlowConvergenceError` is raised instead of returning an
    unverified e2; the endpoint map amplifies rounding by about
    ``exp(e1 d2u)``, so this happens for rates ``e1 d2u`` of a few tens.
    """
    e1 = x[0] - x0[0]
    dx2 = x[1] - x0[1]
    u0 = u_eval(*x0)
    drive0 = float(_drive(u0, *slopes, e1, dx2, s))

    def model(a, b):
        return u0 + slopes[0] * (a - x0[0]) + slopes[1] * (b - x0[1])

    def shoot(n: int) -> tuple[float, np.ndarray]:
        tau = np.linspace(0.0, 1.0, n + 1)
        dt = 1.0 / n
        path = np.empty(n + 1)

        def march(f, c) -> float:
            """Integrate ``g2' = e1 (f(g1, g2) + t^2 s^2) + c`` into ``path``."""

            def rhs(t, y):
                return e1 * (f(x0[0] + e1 * t, y) + (t * s) ** 2) + c

            y = x0[1]
            path[0] = y
            for k in range(n):
                t = tau[k]
                k1 = rhs(t, y)
                k2 = rhs(t + dt / 2, y + dt * k1 / 2)
                k3 = rhs(t + dt / 2, y + dt * k2 / 2)
                k4 = rhs(t + dt, y + dt * k3)
                y = y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                path[k + 1] = y
            return y

        y_model = march(model, drive0)
        slope = march(model, drive0 + 1.0) - y_model
        c = drive0 + (x[1] - y_model) / slope
        c_prev = y_prev = None
        for _ in range(60):
            try:
                y = march(u_eval, c)
            except ValueError as exc:
                raise PathExitsGridError(
                    f"flow path from {x0} to {x} leaves the field's domain"
                ) from exc
            miss = x[1] - y
            # secant on the endpoint map c -> y(1), whose slope grows like
            # exp(e1 d2u) / (e1 d2u) and amplifies rounding in y alike
            if c_prev is not None:
                slope = (y - y_prev) / (c - c_prev)
            if abs(miss) <= 1e-13 * (1.0 + abs(dx2)) * max(1.0, slope):
                break
            c_prev, y_prev = c, y
            c += miss / slope
            if c == c_prev:
                break  # the step fell below the rounding of c
        else:
            raise FlowConvergenceError(
                f"flow path from {x0} to {x} misses its endpoint by {miss:.3g} "
                "after 60 secant steps")
        return c, path

    def e2_at(n: int) -> float:
        c, path = shoot(n)
        tau = np.linspace(0.0, 1.0, n + 1)
        try:
            uvals = np.array([u_eval(x0[0] + e1 * t, y) for t, y in zip(tau, path)])
        except ValueError as exc:
            raise PathExitsGridError(
                f"flow path from {x0} to {x} leaves the field's domain"
            ) from exc
        integral = _simpson(uvals, 1.0 / n)
        return (dx2 - e1 * (integral + s * s / 3.0)) / eps

    n = 32
    e2 = e2_at(n)
    change = math.inf
    for _ in range(5):
        n *= 2
        e2_next = e2_at(n)
        change = abs(e2_next - e2) / max(1.0, abs(e2_next))
        e2 = e2_next
        if change <= rel_tol:
            break
    else:
        raise FlowConvergenceError(
            f"flow coordinates from {x0} to {x}: e2 still moves by {change:.3g} "
            f"(relative) at {n} subintervals")
    return e1, e2, s


def _simpson(vals: np.ndarray, dt: float) -> float:
    n = len(vals) - 1
    if n % 2 != 0:
        raise ValueError("composite Simpson needs an even subinterval count")
    return float(dt / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum()))


def exp_coords_lifted(frame: Frame, x0: tuple[float, float], p: LiftedPoint):
    """Exponential coordinates of lifted point ``p`` with base ``(x0, 0)``.

    ``u`` is evaluated along the connecting flow path by bilinear
    interpolation; a path escaping the rectangle raises
    :class:`PathExitsGridError`.
    """
    g = frame.grid
    (lo1, hi1), (lo2, hi2) = g.x1_range, g.x2_range
    if not (lo1 - 1e-12 <= x0[0] <= hi1 + 1e-12 and lo2 - 1e-12 <= x0[1] <= hi2 + 1e-12):
        raise ValueError("base point outside grid")

    def u_eval(a, b):
        return frame.u.interp(a, b)

    slopes = tuple(float(GridFunction(g, d).interp(x0[0], x0[1]))
                   for d in (frame.u.d1(), frame.u.d2()))
    return _flow_coords(u_eval, (float(x0[0]), float(x0[1])), (p.x1, p.x2), p.s, frame.epsilon,
                        slopes=slopes)


# ---------------------------------------------------------------------------
# the full lattice sweep
# ---------------------------------------------------------------------------


def _swept_lattice(
    ff: FrozenFrame,
    mesh: float,
    box: tuple[float, float, float],
) -> OracleLattice:
    """The oracle lattice stepped until its frontier is empty, so that every
    later ``distance`` only reads the levels of the full sweep."""
    lattice = OracleLattice(ff, mesh, box)
    while lattice.frontier.size:
        lattice._step()
    return lattice


def _lattice_distances(
    ff: FrozenFrame,
    mesh: float,
    box: tuple[float, float, float],
):
    """Breadth-first levels from the lattice center and their distances.

    Returns ``(levels, values, spacings)``: ``levels`` is an int32 array shaped
    ``(N1, N2, N3)`` holding each node's level, or -1 where the sweep never
    arrives, and ``values[levels]`` is the distance (``values[-1]`` is
    ``inf``).  Every move costs ``mesh``, so a shortest path has the fewest
    moves, and the distances equal Dijkstra's bit for bit.  This is the full
    sweep of :class:`OracleLattice`, whose queries stop it at their farthest
    node instead.
    """
    lattice = _swept_lattice(ff, mesh, box)
    return lattice.levels.reshape(lattice.shape), np.array(lattice.values + [np.inf]), lattice.spacings


# ---------------------------------------------------------------------------
# the lagged-coefficient fixed point
# ---------------------------------------------------------------------------


def picard_solve(grid: Grid, boundary: BoundaryData, eps: float):
    """Pure lagged-coefficient fixed point, independent of the Newton path.

    Each sweep solves ``Xi( (1/W_k) Xi u_{k+1} ) = 0`` with the coefficients
    frozen at ``u_k``, in defect-correction form: the lagged operator
    applied to ``u_k`` is ``residual_div(u_k)``, so the update solves
    ``A_k (u_{k+1} - u_k) = -residual_div(u_k)`` on the interior and the
    boundary ring never enters.  Sweeps start from the transfinite
    interpolation of the boundary and stop once the sup-update is at most
    1e-10.  Returns ``(solution, sweeps, converged)``; after 200 sweeps
    without convergence the solution is the last iterate.  No Jacobian is
    formed, which makes this a reference for :func:`solve_eps`; each sweep
    factors its matrix afresh through :func:`spsolve`.
    """
    vals = transfinite_interpolation(boundary).values
    for k in range(200):
        fr = Frame(GridFunction(grid, vals), eps)
        r = residual_div(fr).restrict(1)
        dz, _ = spsolve(_lagged_matrix(fr), -r.ravel(), LUCache(), 0.0)
        vals = vals.copy()
        vals[1:-1, 1:-1] += dz.reshape(r.shape)
        if float(np.max(np.abs(dz))) <= 1e-10:
            return GridFunction(grid, vals), k + 1, True
    return GridFunction(grid, vals), 200, False


def _lagged_matrix(frame: Frame) -> csr_matrix:
    """Interior block A of the lagged operator ``Xi( (1/W) Xi z )``, frozen at u.

    The whole operator applied to u is ``residual_div(u)``, so for a z with
    u's boundary ring one lagged-coefficient sweep is
    ``A (z - u) = -residual_div(u)``.
    """
    hd = _HalfData(frame)
    return _offset_matrix(_lagged_offsets(hd), hd.n1, hd.n2)


def _lagged_offsets(hd: _HalfData) -> dict:
    """Per-offset row coefficients of the lagged operator."""
    h1, h2, eps = hd.h1, hd.h2, hd.eps
    bx, by = 1.0 / hd.W_x, 1.0 / hd.W_y
    cyB1 = -by * hd.ubar_y / h2
    cyB2 = -by * eps / h2
    return _combine_offsets(
        h1, h2, eps, hd.uI, -bx / h1, bx / h1, bx * hd.ubar_x / (4 * h2),
        cyB1, -cyB1, by / (4 * h1), cyB2, -cyB2, np.zeros_like(by),
    )


# ---------------------------------------------------------------------------
# the divergence row, written out once per use
# ---------------------------------------------------------------------------


def residual_by_hand(hd: _HalfData) -> np.ndarray:
    """Interior values of :func:`residual_div`, the row written out."""
    g1x = hd.p1_x / hd.W_x
    g1y = hd.p1_y / hd.W_y
    g2y = hd.p2_y / hd.W_y
    return (
        (g1x[1:, :] - g1x[:-1, :]) / hd.h1
        + hd.uI * (g1y[:, 1:] - g1y[:, :-1]) / hd.h2
        + hd.eps * (g2y[:, 1:] - g2y[:, :-1]) / hd.h2
    )


def offsets_by_hand(h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2):
    """:func:`hmingraph.operators._combine_offsets` with each of the nine rows
    written out, the y-terms of (0, -1), (1, -1) and (-1, 1) subtracted."""
    xp = lambda a: a[1:, :]
    xm = lambda a: a[:-1, :]
    yp = lambda a: a[:, 1:]
    ym = lambda a: a[:, :-1]

    D = {}
    D[(0, 0)] = (
        (xp(cxL) - xm(cxR)) / h1
        + uI * (yp(cyB1) - ym(cyT1)) / h2
        + eps * (yp(cyB2) - ym(cyT2)) / h2
    )
    D[(1, 0)] = (
        xp(cxR) / h1
        + uI * (yp(cyS1) - ym(cyS1)) / h2
        + eps * (yp(cyS2) - ym(cyS2)) / h2
    )
    D[(-1, 0)] = (
        -xm(cxL) / h1
        + uI * (-yp(cyS1) + ym(cyS1)) / h2
        + eps * (-yp(cyS2) + ym(cyS2)) / h2
    )
    D[(0, 1)] = (
        (xp(cxD) - xm(cxD)) / h1
        + uI * yp(cyT1) / h2
        + eps * yp(cyT2) / h2
    )
    D[(0, -1)] = (
        (-xp(cxD) + xm(cxD)) / h1
        - uI * ym(cyB1) / h2
        - eps * ym(cyB2) / h2
    )
    D[(1, 1)] = xp(cxD) / h1 + uI * yp(cyS1) / h2 + eps * yp(cyS2) / h2
    D[(1, -1)] = -xp(cxD) / h1 - uI * ym(cyS1) / h2 - eps * ym(cyS2) / h2
    D[(-1, 1)] = -xm(cxD) / h1 - uI * yp(cyS1) / h2 - eps * yp(cyS2) / h2
    D[(-1, -1)] = xm(cxD) / h1 + uI * ym(cyS1) / h2 + eps * ym(cyS2) / h2
    return D


def halfdata_by_aij(frame: Frame) -> _HalfData:
    """:class:`~hmingraph.operators._HalfData` with every ``a_ij`` and ``W``
    of both staggered grids from :func:`aij_from_gradient`."""
    hd = _HalfData(frame)
    hd.a11_x, hd.a12_x, hd.a22_x, hd.W_x = aij_from_gradient(hd.p1_x, hd.p2_x)
    hd.a11_y, hd.a12_y, hd.a22_y, hd.W_y = aij_from_gradient(hd.p1_y, hd.p2_y)
    return hd


def jacobian_offsets_by_aij(hd: _HalfData) -> dict:
    """Per-offset Jacobian rows from the ``a_ij`` of :func:`halfdata_by_aij`."""
    h1, h2, eps = hd.h1, hd.h2, hd.eps
    A1x, A2x = hd.a11_x / hd.W_x, hd.a12_x / hd.W_x
    B11, B12, B22 = hd.a11_y / hd.W_y, hd.a12_y / hd.W_y, hd.a22_y / hd.W_y
    dp1B = -hd.ubar_y / h2 + hd.d2_y / 2.0
    dp1T = hd.ubar_y / h2 + hd.d2_y / 2.0
    D = _combine_offsets(
        h1, h2, eps, hd.uI,
        A1x * (-1.0 / h1 + hd.d2_x / 2.0), A1x * (1.0 / h1 + hd.d2_x / 2.0),
        A1x * hd.ubar_x / (4 * h2) + A2x * eps / (4 * h2),
        B11 * dp1B + B12 * (-eps / h2), B11 * dp1T + B12 * (eps / h2), B11 / (4 * h1),
        B12 * dp1B + B22 * (-eps / h2), B12 * dp1T + B22 * (eps / h2), B12 / (4 * h1),
    )
    g1y = hd.p1_y / hd.W_y
    D[(0, 0)] = D[(0, 0)] + (g1y[:, 1:] - g1y[:, :-1]) / h2
    return D


# ---------------------------------------------------------------------------
# GMRES by a least-squares solve per iteration
# ---------------------------------------------------------------------------


def gmres_lstsq(A, b, precondition, target: float, maxiter: int):
    """:func:`hmingraph.solver._gmres` with its least-squares problem
    ``min |H y - beta e_1|`` solved by ``lstsq`` at every iteration, and the
    same stops: at most ``target``, a zero subdiagonal, or a mean contraction
    that cannot reach ``target`` by ``maxiter``."""
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
