"""Graph frames, their lift to one extra dimension, and adapted geometry.

A scalar field ``u`` on a planar rectangle induces the frame

    X1 f = d1 f + u * d2 f        (graph direction)
    X2 f = eps * d2 f             (regularizing direction, eps > 0)

whose gradient ``(X1 u, X2 u)`` drives every operator in this package.  The
frame lifts to the slab ``Omega x (-1, 1)`` by

    X1~ = d1 + (u(x) + s^2) d2,   X2~ = eps d2,   X3~ = ds,

which satisfies the step-2 bracket-generating relations

    [X1~, X3~] = -2 s d2,   [X3~, [X1~, X3~]] = -2 d2,

so the missing planar direction d2 is recovered from two brackets and the
homogeneous dimension of the lifted structure is 5.

Around a base node the field is frozen to its first-order model (an affine
function written in adapted coordinates), giving computable exponential
coordinates, two distance surrogates, and a lattice shortest-path oracle
for the true control distance of the frozen frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, GridFunction, require_same_grid

__all__ = [
    "Frame",
    "LiftedPoint",
    "FrozenFrame",
    "OracleLattice",
    "UnreachableError",
    "apply_x1",
    "apply_x2",
    "taylor_p1",
    "eval_p1",
    "dist_surrogate_eps",
    "dist_surrogate_cc",
    "dist_oracle_many",
    "taylor_remainder_exponent",
]


class UnreachableError(RuntimeError):
    """Lattice shortest-path query ended on an unreached node."""


@dataclass(frozen=True)
class Frame:
    """Graph frame: a field ``u`` on its grid together with eps > 0."""

    u: GridFunction
    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class LiftedPoint:
    """Point of the lifted slab: planar position plus slab coordinate s."""

    x1: float
    x2: float
    s: float


def apply_x1(frame: Frame, f: GridFunction) -> GridFunction:
    """Apply ``X1 = d1 + u d2`` to ``f`` nodewise.

    Second-order stencils; boundary rows/columns use one-sided differences,
    so compositions degrade near the edge (callers shrink by the composition
    depth when taking sup norms).
    """
    require_same_grid(frame.u, f)
    vals = f.d1() + frame.u.values * f.d2()
    return GridFunction(f.grid, vals)


def apply_x2(frame: Frame, f: GridFunction) -> GridFunction:
    """Apply ``X2 = eps * d2`` to ``f`` nodewise."""
    require_same_grid(frame.u, f)
    return GridFunction(f.grid, frame.epsilon * f.d2())


# ---------------------------------------------------------------------------
# first-order model at a node and frozen frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenFrame:
    """First-order data of a frame at a base node.

    ``x1u0`` and ``x2u0`` are the frame derivatives of u at ``x0`` (computed
    with the grid stencils), so the first-order model in adapted coordinates

        P1(x) = u0 + e1(x) * x1u0 + e2(x) * x2u0,
        e1 = (x - x0)_1,   e2 = ((x - x0)_2 - (x - x0)_1 * u0) / eps,

    reproduces affine fields exactly: the cross terms in e2 cancel against
    the u-dependence of the frame derivative.
    """

    x0: tuple[float, float]
    u0: float
    x1u0: float
    x2u0: float
    epsilon: float


def taylor_p1(frame: Frame, x0: tuple[float, float]) -> FrozenFrame:
    """Freeze the frame at an interior node ``x0``.

    The base point must coincide with a grid node strictly inside the
    rectangle, where :func:`apply_x1` and :func:`apply_x2` use centered
    stencils.
    """
    g = frame.grid
    i, j = g.node_index(float(x0[0]), float(x0[1]))
    if i == 0 or j == 0 or i == g.n1 - 1 or j == g.n2 - 1:
        raise ValueError("base point must be an interior node")
    return FrozenFrame(
        x0=(float(x0[0]), float(x0[1])),
        u0=float(frame.u.values[i, j]),
        x1u0=float(apply_x1(frame, frame.u).values[i, j]),
        x2u0=float(apply_x2(frame, frame.u).values[i, j]),
        epsilon=frame.epsilon,
    )


def eval_p1(ff: FrozenFrame, x1, x2):
    """Evaluate the first-order model of :class:`FrozenFrame` at ``(x1, x2)``."""
    e1 = np.asarray(x1, dtype=float) - ff.x0[0]
    e2 = (np.asarray(x2, dtype=float) - ff.x0[1] - e1 * ff.u0) / ff.epsilon
    out = ff.u0 + e1 * ff.x1u0 + e2 * ff.x2u0
    return float(out) if np.ndim(out) == 0 else out


def _moments(k: np.ndarray):
    """``M_j(k) = int_0^1 exp(k (1 - t)) t^j dt`` for j = 0, 1, 2, elementwise.

    Away from zero ``M0 = expm1(k) / k`` and integration by parts gives
    ``M_j = (j M_{j-1} - 1) / k``; that recurrence cancels as k -> 0, so
    ``|k| < 1/2`` uses the series ``M_j = j! sum_n k^n / (n + j + 1)!``.
    """
    small = np.abs(k) < 0.5
    kc = np.where(small, 1.0, k)  # keeps the recurrence away from k = 0
    ks = np.where(small, k, 0.0)
    closed = [np.expm1(kc) / kc]
    for j in (1, 2):
        closed.append((j * closed[-1] - 1.0) / kc)
    # |k| < 1/2: the terms past n = 17 are below 0.5**18 / 19!  Each power
    # serves all three sums, which add their terms in order of n from 0.
    power = ks ** 0
    series = [power / math.factorial(j + 1) for j in range(3)]
    for n in range(1, 18):
        power = ks ** n
        for j in range(3):
            series[j] += power / math.factorial(n + j + 1)
    for j in range(3):
        series[j] *= math.factorial(j)
    return [np.where(small, a, b) for a, b in zip(series, closed)]


def _frozen_coords(ff: FrozenFrame, x1, x2, s):
    """Adapted coordinates ``(e1, e2, e3)`` of lifted points for the frozen frame.

    With ``P1`` in place of ``u`` the flow of ``e1 X1~ + e2 X2~ + e3 X3~``
    from ``(x0, 0)`` is linear: ``e1 = (x - x0)_1``, ``e3 = s``, and the
    vertical offset ``y = g2 - x0_2`` solves

        y' = k y + e1 (u0 + e1 G1 t + s^2 t^2) + eps e2,   y(0) = 0,

    with the Euclidean slopes ``G2 = X2u0 / eps``, ``G1 = X1u0 - u0 G2`` and
    constant rate ``k = e1 G2``.  Hitting ``y(1) = (x - x0)_2`` gives

        eps e2 = ((x - x0)_2 - e1 (u0 M0 + e1 G1 M1 + s^2 M2)) / M0,
        M_j = int_0^1 exp(k (1 - t)) t^j dt,

    exact up to rounding, for arrays of ``x1``, ``x2``, ``s`` (broadcast).
    """
    g2 = ff.x2u0 / ff.epsilon
    g1 = ff.x1u0 - ff.u0 * g2
    e1 = np.asarray(x1, dtype=float) - ff.x0[0]
    dx2 = np.asarray(x2, dtype=float) - ff.x0[1]
    s = np.asarray(s, dtype=float)
    return e1, _drive(ff.u0, g1, g2, e1, dx2, s) / ff.epsilon, s


def _drive(u0, g1, g2, e1, dx2, s):
    """The drive ``eps e2`` of :func:`_frozen_coords` for value ``u0`` and
    Euclidean slopes ``(g1, g2)`` at the base point."""
    m0, m1, m2 = _moments(e1 * g2)
    return (dx2 - e1 * (u0 * m0 + e1 * g1 * m1 + s * s * m2)) / m0


def _gauge_eps(eps: float, e1, e2, e3):
    mid = np.minimum(e2 * e2, np.abs(eps * e2) ** (2.0 / 3.0))
    return np.sqrt(e1 * e1 + mid + e3 * e3)


def dist_surrogate_eps(ff: FrozenFrame, p: LiftedPoint) -> float:
    """Anisotropic gauge equivalent to the frozen frame's control distance.

    ``sqrt(e1^2 + min(e2^2, (eps*e2)^(2/3)) + e3^2)`` in frozen adapted
    coordinates: Riemannian at scales where the eps-direction is cheap,
    step-2 homogeneous below them.  The coordinates are the closed-form
    flow coordinates of :func:`_frozen_coords`, exact for the frozen model.
    """
    return float(_gauge_eps(ff.epsilon, *_frozen_coords(ff, p.x1, p.x2, p.s)))


def dist_surrogate_cc(ff: FrozenFrame, p: LiftedPoint) -> float:
    """Homogeneous gauge ``(e1^6 + (eps*e2)^2 + e3^6)^(1/6)`` (step-2 scaling).

    Uses the same closed-form frozen coordinates as :func:`dist_surrogate_eps`.
    """
    e1, e2, e3 = _frozen_coords(ff, p.x1, p.x2, p.s)
    return float((e1 ** 6 + (ff.epsilon * e2) ** 2 + e3 ** 6) ** (1.0 / 6.0))


# ---------------------------------------------------------------------------
# lattice shortest-path oracle for the frozen control distance
# ---------------------------------------------------------------------------


class OracleLattice:
    """The oracle lattice of a frozen frame, swept breadth first from its
    center as far as the queries need.

    ``distance(p)`` reads the node nearest ``p``, stepping the sweep on one
    level at a time until that node has a level or the frontier is empty.
    Every move costs ``mesh``, so the sweep equals Dijkstra; a level is final
    once assigned, so queries in any order read what one uninterrupted
    sweep gives, and the sweep goes no further than its farthest query.

    ``levels`` is an int32 array with one entry per node, in flat order
    ``(i N2 + j) N3 + k``: the node's level, or -1 where the sweep has not
    arrived (yet).  ``values[l]`` is level ``l``'s distance: level ``l - 1``'s
    plus ``mesh``, rounded as Dijkstra rounds ``dist[u] + w``.  The sweep
    keeps the one int32 per node and per-level frontier arrays, nothing else
    node-sized, so the 4 M-node budget is about 16 MB.  See
    :func:`dist_oracle_many` for the lattice.
    """

    def __init__(self, ff: FrozenFrame, mesh: float, box: tuple[float, float, float]):
        if mesh <= 0:
            raise ValueError("mesh must be positive")
        self.ff, self.mesh = ff, mesh
        eps = ff.epsilon
        self.spacings = (mesh, eps * mesh / 2.0, mesh)
        ratios = [b / a for b, a in zip(box, self.spacings)]
        if max(ratios) < 4_000_000:
            self.half = tuple(max(1, int(round(r))) for r in ratios)
            nodes = math.prod(2 * n + 1 for n in self.half)
        else:  # counted in floats: the ratio may be too large to round to an int
            nodes = math.prod(2 * r + 1 for r in ratios)
        if not nodes <= 4_000_000:
            raise ValueError(
                f"oracle lattice would hold {nodes} nodes "
                "(the vertical spacing scales with eps*mesh); coarsen the mesh or shrink the box")
        N1, N2, N3 = self.shape = tuple(2 * n + 1 for n in self.half)

        # node (i, j, k) ~ (x0_1 + (i - n1) a1, x0_2 + (j - n2) a2, (k - n3) a3).
        # The d2-coefficient of the frozen X1 field at a node is p1[i, j] + s2[k].
        (n1, n2, n3), (a1, a2, a3) = self.half, self.spacings
        self.p1 = eval_p1(ff, ff.x0[0] + (np.arange(N1)[:, None] - n1) * a1,
                          ff.x0[1] + (np.arange(N2) - n2) * a2)
        self.s2 = ((np.arange(N3) - n3) * a3) ** 2
        center = (n1 * N2 + n2) * N3 + n3
        self.levels = np.full(N1 * N2 * N3, -1, dtype=np.int32)
        self.levels[center] = 0
        self.values = [0.0]
        self.frontier = np.array([center])

    def distance(self, p: LiftedPoint) -> float:
        """Lattice control distance of the node nearest ``p``; raises
        :class:`UnreachableError` when that node lies outside the lattice or
        the sweep ends without reaching it."""
        (n1, n2, n3), (a1, a2, a3) = self.half, self.spacings
        N1, N2, N3 = self.shape
        f = ((p.x1 - self.ff.x0[0]) / a1, (p.x2 - self.ff.x0[1]) / a2, p.s / a3)
        if not all(map(math.isfinite, f)):
            raise UnreachableError("query point outside the oracle lattice box")
        qi, qj, qk = (n + int(round(x)) for n, x in zip(self.half, f))
        if not (0 <= qi < N1 and 0 <= qj < N2 and 0 <= qk < N3):
            raise UnreachableError("query point outside the oracle lattice box")
        node = (qi * N2 + qj) * N3 + qk
        while self.levels[node] < 0 and self.frontier.size:
            self._step()
        level = self.levels[node]
        if level < 0:
            raise UnreachableError("query node not reached by the lattice sweep")
        return self.values[level]

    def _step(self) -> None:
        """Label the next level; leaves the frontier empty when none is left."""
        N1, N2, N3 = self.shape
        levels, frontier, mesh, a2 = self.levels, self.frontier, self.mesh, self.spacings[1]
        i, jk = np.divmod(frontier, N2 * N3)
        j, k = np.divmod(jk, N3)
        # X1 moves: exact in x1, sheared in x2, snapped to the lattice.  X2
        # moves (two cells in x2) and X3 moves (one cell in s) are fixed
        # offsets of the flat index.
        coeff = self.p1[i, j] + self.s2[k]
        nxt = []
        for sign in (+1, -1):
            ti = i + sign
            tj = j + np.rint(sign * mesh * coeff / a2).astype(np.int64)
            ok = (ti >= 0) & (ti < N1) & (tj >= 0) & (tj < N2)
            nxt.append(((ti * N2 + tj) * N3 + k)[ok])
        nxt = np.concatenate(nxt + [
            frontier[j + 2 < N2] + 2 * N3,
            frontier[j >= 2] - 2 * N3,
            frontier[k + 1 < N3] + 1,
            frontier[k >= 1] - 1,
        ])
        nxt = nxt[levels[nxt] == -1]
        if not nxt.size:
            self.frontier = nxt
            return
        # keep one copy of each node: the last position scattered to it wins
        tags = -2 - np.arange(nxt.size, dtype=np.int32)
        levels[nxt] = tags
        self.frontier = nxt[levels[nxt] == tags]
        levels[self.frontier] = len(self.values)
        self.values.append(self.values[-1] + mesh)


def _oracle_meshes(mesh: float, box: tuple[float, float, float]) -> list:
    """The query mesh plus its power-of-two coarsenings up to a fixed cap.

    Anchoring the chain at the cap ``min(box) / 3``, which depends only on
    the box, makes the mesh sets nested under halving, which is what turns
    per-mesh estimates into a monotone family.  A mesh above the cap gets
    the chain ``[mesh]`` alone, so two such meshes (or one above and its
    half below the cap) share no sweep and the nesting is lost.
    """
    cap = min(box) / 3.0
    meshes = [mesh]
    while meshes[-1] * 2.0 <= cap:
        meshes.append(meshes[-1] * 2.0)
    return meshes


def dist_oracle_many(
    ff: FrozenFrame,
    points: Sequence[LiftedPoint],
    mesh: float,
    box: tuple[float, float, float] = (0.2, 0.2, 0.2),
) -> list:
    """Control-distance estimates for the frozen frame by lattice sweeps.

    Nodes form a box-shaped lattice centered at ``(x0, 0)`` with spacings
    ``(mesh, eps*mesh/2, mesh)``; each node has six outgoing edges, the
    explicit Euler steps of parameter length ``mesh`` along the positive and
    negative frozen fields, snapped to the nearest lattice node.  Edge weight
    equals the parameter length, so a breadth-first sweep (uniform edge
    weight, so equal to Dijkstra) from the center gives lattice control
    distances, and a point reads the distance of its nearest node.  Snapping
    makes each reading an estimate, not a bound: a coarse sweep can snap a
    nearby point onto the center and read 0.

    Snap rounding also means a single sweep is not monotone under mesh
    halving, so the reported value is the minimum over the sweep at ``mesh``
    and its power-of-two coarsenings up to the cap ``min(box) / 3``.  While
    the coarser mesh of a halving pair is at most that cap the coarsening
    sets nest, so refinement is monotone non-increasing by construction.
    Above the cap the chain is the single sweep at ``mesh`` and halving
    carries no such guarantee.  Each coarsening is one :class:`OracleLattice`
    queried for every point, so its sweep is paid once and stops at the
    level of the farthest one.

    ``box`` holds the lattice half-widths per coordinate.  Maneuvers are
    confined to the box, so it must enclose the paths that matter: in
    particular vertical displacements ride on lift-coordinate excursions of
    amplitude about the cube root of the displacement when the direct
    vertical field is expensive (small eps).  A point outside the box, or on
    a node that no sweep reached, raises :class:`UnreachableError`.
    """
    best = np.full(len(points), np.inf)
    for m in _oracle_meshes(mesh, box):
        lattice = OracleLattice(ff, m, box)
        for k, p in enumerate(points):
            try:
                best[k] = min(best[k], lattice.distance(p))
            except UnreachableError:
                pass  # this coarsening cannot resolve the point; others may
    if not np.all(np.isfinite(best)):
        bad = points[int(np.argmax(~np.isfinite(best)))]
        raise UnreachableError(
            f"point ({bad.x1:g}, {bad.x2:g}, {bad.s:g}) unreachable at every lattice mesh")
    return [float(v) for v in best]


# ---------------------------------------------------------------------------
# first-order remainder exponent
# ---------------------------------------------------------------------------


def taylor_remainder_exponent(
    frame: Frame,
    x0: tuple[float, float],
    radii: Sequence[float],
) -> float:
    """Log-log slope of ``|u - P1|`` against the frozen gauge around ``x0``.

    Grid nodes whose surrogate distance from the base falls inside
    ``[min(radii), max(radii)]`` contribute one sample each, in row-major
    order; samples with remainder below 1e-14 are discarded (exactly
    reproduced fields would otherwise poison the regression), and if
    everything is discarded the fit is reported as ``inf``.  Fewer than 8
    surviving samples raise ``ValueError``.  The distance is
    :func:`dist_surrogate_eps` in closed-form frozen coordinates, evaluated
    for all candidate nodes in one array pass.
    """
    if len(radii) < 2:
        raise ValueError("need at least two radii to bracket a fit window")
    lo, hi = min(radii), max(radii)
    ff = taylor_p1(frame, x0)
    X1g, X2g = frame.grid.nodes()
    d = np.sqrt((X1g - ff.x0[0]) ** 2 + (X2g - ff.x0[1]) ** 2)
    cand = (d <= 2.0 * hi) & (d > 0)  # boolean indexing keeps row-major order
    x1, x2 = X1g[cand], X2g[cand]
    dist = _gauge_eps(ff.epsilon, *_frozen_coords(ff, x1, x2, 0.0))
    inside = (lo <= dist) & (dist <= hi)
    rem = np.abs(frame.u.values[cand] - eval_p1(ff, x1, x2))
    keep = inside & ~(rem < 1e-14)
    n_inside = int(inside.sum())
    logs_d, logs_r = np.log(dist[keep]), np.log(rem[keep])
    if n_inside >= 8 and logs_d.size == 0:
        return math.inf  # model reproduces u on the whole window
    if len(logs_d) < 8:
        raise ValueError(
            f"only {len(logs_d)} usable samples in radius window [{lo}, {hi}]"
        )
    slope = np.polyfit(logs_d, logs_r, 1)[0]
    return float(slope)
