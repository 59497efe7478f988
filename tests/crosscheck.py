"""Independent references that the tests compare the package against.

Nothing in ``hmingraph`` reaches these; each one computes, by a route of its
own, a number that a package routine computes too:

- the unfrozen-frame shooter (:func:`exp_coords_lifted`, :func:`_flow_coords`):
  exponential coordinates of the lifted frame by fourth-order shooting, the
  reference of the closed-form frozen coordinates;
- :func:`_swept_lattice` and :func:`_lattice_distances`: the oracle lattice
  swept to its end, the reference of the on-demand sweep;
- :func:`picard_solve` with :func:`_lagged_matrix`: a Jacobian-free
  lagged-coefficient fixed point, the reference of the Newton solve.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from hmingraph.geometry import Frame, FrozenFrame, LiftedPoint, OracleLattice, _drive
from hmingraph.grid import Grid, GridFunction
from hmingraph.operators import _combine_offsets, _HalfData, _offset_matrix, residual_div
from hmingraph.solver import BoundaryData, LUCache, spsolve, transfinite_interpolation


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
        dz, _ = spsolve(_lagged_matrix(fr).tocsc(), -r.ravel(), LUCache(), 0.0)
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
