"""Integral curves of the graph direction field and their polynomial form.

A graph function ``u`` induces the plane direction field ``(1, u(x))``. Its
integral curves ("leaves") satisfy

    gamma(t) = (start1 + t, gamma2(t)),      gamma2' = u(gamma),

so the first component is linear in the flow time by construction and is
stored exactly.  For a solution of the limiting minimal-graph equation the
second derivative of ``u`` along a leaf vanishes, which forces ``gamma2`` to
be a quadratic polynomial in ``t`` and ``u`` restricted to the leaf to be
affine.  This module traces leaves with classical fourth-order Runge-Kutta
(bilinear interpolation of ``u``, matching its Lipschitz regularity class),
fits centered polynomials to quantify how close a traced leaf is to that
degree-two form, and differences ``u`` along leaves.

Fits use monomials in ``t`` centered at the leaf midpoint for conditioning.
Leaves are independent of one another; everything here is read-only in ``u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = [
    "Leaf",
    "LeafTraceError",
    "trace_leaf",
    "fit_leaf",
    "foliation_cover",
    "coverage_fraction",
    "leaf_table",
]


class LeafTraceError(ValueError):
    """A leaf could not be traced or processed from the given data."""


@dataclass
class Leaf:
    """Sampled integral curve of ``(1, u)``.

    ``points[:, 0]`` equals ``start[0] + t_samples`` exactly.  Its fit is
    not stored: :func:`fit_leaf` returns it as the ``leaves.json`` object.
    """

    start: tuple[float, float]
    t_samples: np.ndarray
    points: np.ndarray
    u_values: np.ndarray

    def __len__(self) -> int:
        return len(self.t_samples)


def _march(at, start: tuple[float, float], u0: float, dt: float, t_max: float, sign: int):
    """March RK4 steps of size ``sign*dt`` until ``|t| > t_max`` or exit.

    ``at`` is ``u``'s bilinear evaluator and ``u0`` its value at the seed
    ``start``.  Returns the samples ``(t, gamma2, u)`` after the seed.  A
    step whose stages or endpoint leave the grid rectangle is discarded and
    marching stops.  The endpoint's slope, read to test the exit, is ``u``
    at the new sample and the next step's ``k1``.
    """
    s1, s2 = start
    samples: list[tuple[float, float, float]] = []
    t, y, k1 = 0.0, s2, u0
    h = sign * dt
    try:
        for _ in range(int(np.floor(t_max / dt + 1e-12))):
            k2 = at(s1 + t + h / 2, y + h * k1 / 2)
            k3 = at(s1 + t + h / 2, y + h * k2 / 2)
            k4 = at(s1 + t + h, y + h * k3)
            y_next = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            k1 = at(s1 + (t + h), y_next)  # rejects steps that land outside
            t, y = t + h, y_next
            samples.append((t, y, k1))
    except ValueError:
        pass
    return samples


def trace_leaf(u: GridFunction, start: tuple[float, float], t_span: tuple[float, float],
               dt: float | None = None) -> Leaf:
    """Trace the integral curve of ``(1, u)`` through ``start``.

    Integrates backward to ``t_span[0] <= 0`` and forward to ``t_span[1] >= 0``
    with uniform steps, stopping early where the curve leaves the grid
    rectangle.  Raises :class:`LeafTraceError` if the seed lies outside the
    grid or no step can be taken in either direction.  ``u_values`` are the
    slopes the marches read, as ``gamma2' = u``.
    """
    g = u.grid
    s1, s2 = float(start[0]), float(start[1])
    at = u.bilinear()
    try:
        u0 = at(s1 + 0.0, s2)  # at the seed's sample point s1 + t, t = 0: -0.0 reads as 0.0
    except ValueError:
        raise LeafTraceError(f"leaf seed {(s1, s2)} outside grid rectangle") from None
    t_lo, t_hi = float(t_span[0]), float(t_span[1])
    if not (t_lo <= 0.0 <= t_hi) or t_hi - t_lo <= 0.0:
        raise LeafTraceError(f"flow-time span {t_span} must straddle 0")
    if dt is None:
        dt = 0.5 * min(g.h1, g.h2)
    if dt <= 0.0:
        raise LeafTraceError("dt must be positive")

    bwd = _march(at, (s1, s2), u0, dt, -t_lo, -1)
    fwd = _march(at, (s1, s2), u0, dt, t_hi, +1)
    if not bwd and not fwd:
        raise LeafTraceError(
            f"zero-length leaf at {(s1, s2)}: no admissible step within the grid")
    t, y, u_vals = np.array(bwd[::-1] + [(0.0, s2, u0)] + fwd).T.copy()
    points = np.column_stack([s1 + t, y])
    return Leaf(start=(s1, s2), t_samples=t, points=points, u_values=u_vals)


def _rel_residual(y: np.ndarray, fit: np.ndarray) -> float:
    """RMS misfit relative to the RMS variation of the data (0 if constant)."""
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if spread == 0.0:
        return 0.0
    return float(np.sqrt(np.mean((y - fit) ** 2))) / spread


def fit_leaf(leaf: Leaf) -> dict:
    """The leaf's fit part of a ``leaves.json`` row, from centered polynomial fits.

    Least squares in ``t`` minus the midpoint of the leaf's time range:
    ``c3`` is |c3| of the cubic fit to ``gamma2(t)`` (the gauge of departure
    from a degree-two curve), ``gamma2_quad_rel_residual`` the relative
    residual of the quadratic fit to it, and ``u_quad_coefficient`` the
    |quadratic coefficient| of the quadratic fit to ``u(gamma(t))``.
    """
    n = len(leaf)
    if n < 8:
        raise LeafTraceError(f"need at least 8 samples to fit a leaf, got {n}")
    t = leaf.t_samples
    span = float(t[-1] - t[0])
    if span <= 0.0 or np.min(np.diff(t)) <= 1e-13 * span:
        raise LeafTraceError("degenerate sample spacing in leaf")
    center = 0.5 * float(t[0] + t[-1])
    s = t - center
    y = leaf.points[:, 1]
    P = np.polynomial.polynomial
    cubic = P.polyfit(s, y, 3)
    quad = P.polyfit(s, y, 2)
    u_quad = P.polyfit(s, leaf.u_values, 2)
    return {
        "c3": abs(float(cubic[3])),
        "gamma2_quad_rel_residual": _rel_residual(y, P.polyval(s, quad)),
        "u_quad_coefficient": abs(float(u_quad[2])),
    }


def _differences(leaf: Leaf) -> tuple[np.ndarray, np.ndarray]:
    """Centered first and second differences of ``u`` at samples ``1 .. n-2``."""
    t = leaf.t_samples
    w = leaf.u_values
    dp = t[2:] - t[1:-1]
    dm = t[1:-1] - t[:-2]
    first = (w[2:] - w[:-2]) / (dp + dm)
    second = 2.0 * ((w[2:] - w[1:-1]) / dp - (w[1:-1] - w[:-2]) / dm) / (dp + dm)
    return first, second


def foliation_cover(u: GridFunction, seed_spacing: float) -> list[Leaf]:
    """Trace leaves seeded along the inflow part of the boundary.

    The left edge is always inflow (the first flow component has unit speed);
    bottom and top edge points are seeded where the field points into the
    rectangle.  Seeds where no step fits are skipped silently.
    """
    if seed_spacing <= 0.0:
        raise ValueError("seed spacing must be positive")
    g = u.grid
    (a1, b1), (a2, b2) = g.x1_range, g.x2_range
    span = b1 - a1
    leaves: list[Leaf] = []

    def try_seed(p1, p2):
        try:
            leaves.append(trace_leaf(u, (p1, p2), (0.0, span)))
        except LeafTraceError:
            pass

    for s2 in np.arange(a2, b2 + 1e-12 * span, seed_spacing):
        try_seed(a1, min(s2, b2))
    # horizontal edges: only where leaves enter the rectangle
    for s1 in np.arange(a1 + seed_spacing, b1 - 1e-12 * span, seed_spacing):
        if u.interp(s1, a2) > 0.0:
            try_seed(s1, a2)
        if u.interp(s1, b2) < 0.0:
            try_seed(s1, b2)
    return leaves


def coverage_fraction(u: GridFunction, leaves: list[Leaf]) -> float:
    """Fraction of interior grid nodes within one cell of some leaf sample.

    The radius is the larger grid spacing.  A node counts when
    ``sqrt(d1*d1 + d2*d2) <= radius`` for the coordinate differences to some
    sample, the test (and the arithmetic) of a k-d tree's nearest-neighbour
    query.  Only the nodes in an index window of ``ceil(radius/h)`` around
    each sample's nearest node are tested, one window offset at a time over
    all samples.
    """
    g = u.grid
    radius = max(g.h1, g.h2)
    if not leaves:
        return 0.0
    samples = np.concatenate([leaf.points for leaf in leaves])
    x1, x2 = g.nodes()
    lo1, lo2 = g.x1_range[0], g.x2_range[0]
    # A node within radius of a sample is at most radius/h + 1/2 indices from
    # the sample's nearest node index, hence at most ceil(radius/h).  Clipping
    # that index onto the grid only brings it nearer to every grid node.
    i0 = np.clip(np.rint((samples[:, 0] - lo1) / g.h1), 0, g.n1 - 1).astype(np.intp)
    j0 = np.clip(np.rint((samples[:, 1] - lo2) / g.h2), 0, g.n2 - 1).astype(np.intp)
    w1 = min(math.ceil(radius / g.h1), g.n1)
    w2 = min(math.ceil(radius / g.h2), g.n2)
    covered = np.zeros((g.n1, g.n2), dtype=bool)
    for di in range(-w1, w1 + 1):
        i = i0 + di
        for dj in range(-w2, w2 + 1):
            j = j0 + dj
            inside = (i >= 1) & (i <= g.n1 - 2) & (j >= 1) & (j <= g.n2 - 2)
            ii, jj = i[inside], j[inside]
            d1 = x1[ii, jj] - samples[inside, 0]
            d2 = x2[ii, jj] - samples[inside, 1]
            near = np.sqrt(d1 * d1 + d2 * d2) <= radius
            covered[ii[near], jj[near]] = True
    return float(np.mean(covered[1:-1, 1:-1]))


def leaf_table(leaf: Leaf) -> np.ndarray:
    """Rows (t, x1, x2, u, first, second); derivative columns NaN at endpoints."""
    n = len(leaf)
    first = np.full(n, np.nan)
    second = np.full(n, np.nan)
    if n >= 5:
        first[1:-1], second[1:-1] = _differences(leaf)
    return np.column_stack([leaf.t_samples, leaf.points, leaf.u_values, first, second])
