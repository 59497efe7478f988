"""Regularity monitors that are uniform in the regularization parameter.

Everything here is read-only over solved states: iterated graph-direction
derivatives, Holder seminorms on explicit separation windows, scaled Sobolev
norms built from derivative strings of the frame fields, residuals of the two
equations satisfied by derivatives of a solution, and the ``ledger.json`` and
``verdict.json`` objects, plain dicts, that collect them per run.

Interior bookkeeping: each derivative order is reliable one stencil width
further from the boundary, so measurement routines take an explicit margin
(in nodes) and the verdict uses a fixed fraction of the domain.  Seminorm
sampling is deterministic: pairs are enumerated by node offset, exhaustively
when the pair count is small and stratified by separation scale otherwise, so
repeated runs give bit-identical numbers.  The ledger profiles the gradient
fields of a whole run in stacks, one pass over the offsets per stack.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import Frame, apply_x1, apply_x2
from .grid import Grid, GridFunction
from .operators import coefficients
from .solver import VanishingViscosityRun

__all__ = [
    "intrinsic_derivative",
    "holder_seminorm",
    "holder_exponent_estimate",
    "default_window",
    "holder_window",
    "sobolev_norm_eps",
    "derivative_equation_residuals",
    "norm_ledger",
    "DiagnosticsBudgets",
    "verdict",
]

PAIR_CAP = 10 ** 6
_PROFILE_BYTES = 2 ** 20  # field values a stacked separation profile of the ledger holds


def intrinsic_derivative(u: GridFunction, k: int) -> GridFunction:
    """k-fold graph-direction derivative of ``u`` along its own frame.

    Values within ``k`` nodes of the boundary carry one-sided stencil error;
    restrict accordingly before measuring.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    frame = Frame(u, 1.0)  # the graph direction does not involve epsilon
    out = u
    for _ in range(k):
        out = apply_x1(frame, out)
    return out


@functools.lru_cache(maxsize=8)
def _offset_set(grid: Grid, lo: float, hi: float) -> tuple:
    """Deterministic offsets covering separations in [lo, hi].

    Exhaustive when the grid's pair count is at most PAIR_CAP; otherwise all
    short offsets plus offsets on log-spaced separation shells at a fan of
    directions (stratified by separation scale).  An offset ``(0, -k)``
    pairs the same nodes as ``(0, k)``, so only the latter is kept.  Cached
    per ``(grid, lo, hi)``: every field on a grid shares the set.  The tuple
    of tuples cannot be changed by a caller.
    """
    n1, n2 = grid.n1, grid.n2
    n_nodes = n1 * n2
    if n_nodes * (n_nodes - 1) // 2 <= PAIR_CAP:
        return tuple((di, dj) for di in range(n1) for dj in range(-(n2 - 1) if di else 1, n2))
    offsets = {(di, dj) for di in range(5) for dj in range(-4, 5)}
    h_min = min(grid.h1, grid.h2)
    r_lo = max(lo, h_min)
    radii = np.geomspace(r_lo, hi, 48)
    angles = np.linspace(-np.pi / 2, np.pi / 2, 25)
    for r in radii:
        for th in angles:
            di = int(round(r * np.cos(th) / grid.h1))
            dj = int(round(r * np.sin(th) / grid.h2))
            if 0 <= di < n1 and -n2 < dj < n2:
                offsets.add((di, dj))
    return tuple(sorted({(di, abs(dj) if di == 0 else dj) for di, dj in offsets} - {(0, 0)}))


def _window_offsets(grid: Grid, lo: float, hi: float) -> tuple:
    """(offsets, separations) arrays of the offsets whose separation lies in [lo, hi]."""
    off = np.array(_offset_set(grid, lo, hi), dtype=np.int64).reshape(-1, 2)
    seps = np.hypot(off[:, 0] * grid.h1, off[:, 1] * grid.h2)
    keep = ((seps >= lo) & (seps <= hi * (1.0 + 1e-12))
            & (off[:, 0] < grid.n1) & (np.abs(off[:, 1]) < grid.n2))
    return off[keep], seps[keep]


def _separation_profile(grid: Grid, lo: float, hi: float, values: np.ndarray) -> tuple:
    """(separation, max |difference|) over the admissible offsets for a stack
    of fields ``values`` of shape (m, n1, n2), in one pass over the offsets.

    The second array has shape (m, n_offsets), a row per field.  Offset
    (di, dj) pairs the runs of the flattened stack that start at
    ``di*n2 + max(dj, 0)`` and ``max(-dj, 0)``; of each field's first
    ``n1 - di`` rows of ``n2``, the first ``n2 - |dj|`` entries are node
    pairs.  The rest wrap around a row, or past a field into the next one.
    """
    m, n1, n2 = values.shape
    off, seps = _window_offsets(grid, lo, hi)
    flat = np.ascontiguousarray(values).ravel()
    buf = np.empty(flat.size)
    dmax = np.empty((m, len(off)))
    for k, (di, dj) in enumerate(off.tolist()):
        rows, skip = n1 - di, abs(dj)
        a, b = di * n2 + max(dj, 0), max(-dj, 0)
        d = buf[: (m - 1) * n1 * n2 + rows * n2 - skip]
        np.abs(np.subtract(flat[a : a + d.size], flat[b : b + d.size], out=d), out=d)
        buf.reshape(m, n1, n2)[:, :rows, : n2 - skip].max(axis=(1, 2), out=dmax[:, k])
    return seps, dmax


def _seminorms(sep: np.ndarray, dmax: np.ndarray, alphas: tuple, window: tuple) -> np.ndarray:
    """Max of ``dmax / sep**alpha`` over the offsets of a profile, shape
    (len(alphas), m): a row per exponent, a column per field."""
    best = np.empty((len(alphas), len(dmax)))
    for k, alpha in enumerate(alphas):
        # Python's float power is libm's pow, which numpy's SIMD power can miss by
        # an ulp (on AVX-512 hosts); fmax skips a NaN quotient
        scales = np.array([s ** alpha for s in sep.tolist()])
        np.fmax.reduce(dmax / scales, axis=1, initial=-1.0, out=best[k])
    if np.any(best < 0.0):
        raise ValueError(f"no node pairs with separation in window {window}")
    return best


def holder_seminorm(f: GridFunction, alphas: tuple, window: tuple[float, float]) -> tuple:
    """Max of |f(x)-f(y)| / |x-y|^alpha over node pairs separated within
    window, one seminorm per exponent in ``alphas``.

    Euclidean separations, from one separation profile of ``f`` shared by
    every exponent.  Deterministic by construction; see module docstring for
    the sampling scheme.
    """
    if not all(0.0 < a < 1.0 for a in alphas):
        raise ValueError(f"each alpha must lie in (0, 1), got {alphas}")
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"bad separation window {window}")
    sep, dmax = _separation_profile(f.grid, lo, hi, f.values[None])
    return tuple(_seminorms(sep, dmax, alphas, window)[:, 0].tolist())


def holder_exponent_estimate(f: GridFunction, window: tuple[float, float]) -> float:
    """Slope of log(max |difference|) against log(separation), clipped to [0, 1].

    An estimate near 1 indicates Lipschitz-like behaviour on the window; a
    jump discontinuity drives it toward 0.
    """
    nbins = 8
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"bad separation window {window}")
    edges = np.geomspace(lo, hi, nbins + 1)
    sep, (dmax,) = _separation_profile(f.grid, lo, hi, f.values[None])
    k = np.minimum(np.searchsorted(edges, sep, side="right") - 1, nbins - 1)
    bin_max = np.zeros(nbins)
    np.fmax.at(bin_max, k[k >= 0], dmax[k >= 0])  # fmax, like max(), skips a NaN
    centers = np.sqrt(edges[:-1] * edges[1:])
    ok = bin_max > 0.0
    if int(ok.sum()) < 2:
        raise ValueError("not enough populated separation bins to fit an exponent")
    slope = np.polyfit(np.log(centers[ok]), np.log(bin_max[ok]), 1)[0]
    return float(np.clip(slope, 0.0, 1.0))


def sobolev_norm_eps(frame: Frame, m: int, p: float, of: GridFunction | None = None) -> float:
    """Sum of discrete L^p norms of all frame-derivative strings of order <= m.

    The strings use both frame fields (2^k strings at order k).  All are
    measured on the common margin-``m`` interior with a uniform-weight rule,
    so ``m = 0`` reduces to the plain L^p norm of the field itself.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    f0 = frame.u if of is None else of
    ops = [lambda g: apply_x1(frame, g), lambda g: apply_x2(frame, g)]
    grid = f0.grid
    w = grid.h1 * grid.h2
    total = 0.0
    level = [f0]
    for k in range(m + 1):
        for g in level:
            vals = g.restrict(m)
            total += float((w * np.sum(np.abs(vals) ** p)) ** (1.0 / p))
        if k < m:
            level = [op(g) for g in level for op in ops]
    return total


def derivative_equation_residuals(frame: Frame, margin: int = 3) -> tuple[float, float]:
    """Sup-norm defects of the two equations solved by derivatives of ``u``.

    For a solved state, ``v`` (the vertical Euclidean derivative) satisfies a
    divergence-form equation whose right-hand side is cubic in ``v``, and
    ``z`` (the graph-direction derivative) satisfies the flux-linearized
    equation with a commutator right-hand side.  Both sides are evaluated
    with nodal second-order stencils; the defects of a solved smooth state
    shrink at second order in mesh size, while a non-solution leaves an
    order-one defect.
    """
    u = frame.u
    ax1 = lambda arr: apply_x1(frame, GridFunction(u.grid, arr)).values
    ax2 = lambda arr: apply_x2(frame, GridFunction(u.grid, arr)).values
    eps = frame.epsilon
    c = coefficients(frame)
    b11, b12, b22 = c.a11 / c.w, c.a12 / c.w, c.a22 / c.w

    v = u.d2()
    x1v, x2v = ax1(v), ax2(v)
    lhs_v = ax1(b11 * x1v + b12 * x2v) + ax2(b12 * x1v + b22 * x2v)
    rhs_v = -b11 * v ** 3 - (b11 * x1v + b12 * x2v) * v - (ax1(b11 * v * v) + ax2(b12 * v * v))
    v_res = float(np.max(np.abs((lhs_v - rhs_v)[margin:-margin, margin:-margin])))

    z = ax1(u.values)  # graph-direction derivative of u
    x1z, x2z = ax1(z), ax2(z)
    lhs_z = ax1(b11 * x1z + b12 * x2z) + ax2(b12 * x1z + b22 * x2z)
    p2 = eps * v
    rhs_z = v * ax2(p2 / c.w) + ax1(b12 * eps * v * v) + ax2(b22 * eps * v * v)
    z_res = float(np.max(np.abs((lhs_z - rhs_z)[margin:-margin, margin:-margin])))
    return v_res, z_res


DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 0.9)


def default_window(grid: Grid) -> tuple[float, float]:
    """Separations from twice the larger spacing to a quarter of the shorter
    side: the window of the ledger, and of a verdict whose budgets set none.

    Empty, a ValueError, on a grid too coarse for it: on a square, one of 9
    or fewer nodes per side.
    """
    h = max(grid.h1, grid.h2)
    width = min(grid.x1_range[1] - grid.x1_range[0], grid.x2_range[1] - grid.x2_range[0])
    lo, hi = 2 * h, 0.25 * width
    if not lo < hi:
        raise ValueError(f"a {grid.n1} x {grid.n2} grid is too coarse for the default Holder "
                         f"window: twice its spacing, {lo:g}, is not below a quarter of its "
                         f"shorter side, {hi:g}")
    return lo, hi


def holder_window(grid: Grid, window: tuple[float, float] | None) -> tuple[float, float]:
    """``window``, or :func:`default_window` if None; a ValueError, as from
    :func:`holder_seminorm`, unless it holds a node pair of ``grid``."""
    lo, hi = default_window(grid) if window is None else window
    if not len(_window_offsets(grid, lo, hi)[0]):
        raise ValueError(f"no node pairs with separation in window {(lo, hi)}")
    return lo, hi


def _ledger_seminorms(frames: list) -> list:
    """Per frame, the larger Holder seminorm of its gradient (X1u, X2u) at each
    of ``DEFAULT_ALPHAS`` on the default window.

    The gradient fields of consecutive frames on one grid are stacked, at
    most ``_PROFILE_BYTES`` of values a stack, and each stack makes one
    pass over the offsets.
    """
    out = []
    for grid, group in itertools.groupby(frames, key=lambda fr: fr.grid):
        group = list(group)
        window = default_window(grid)
        size = max(1, _PROFILE_BYTES // (16 * grid.n1 * grid.n2))  # frames a stack
        for k in range(0, len(group), size):
            chunk = group[k:k + size]
            stack = np.empty((2 * len(chunk), grid.n1, grid.n2))
            for i, fr in enumerate(chunk):
                stack[2 * i] = apply_x1(fr, fr.u).values
                stack[2 * i + 1] = apply_x2(fr, fr.u).values
            best = _seminorms(*_separation_profile(grid, *window, stack), DEFAULT_ALPHAS, window)
            # columns come in (X1u, X2u) pairs, one pair per frame
            out += best.reshape(len(DEFAULT_ALPHAS), -1, 2).max(axis=2).T.tolist()
    return out


def norm_ledger(run: VanishingViscosityRun) -> dict:
    """The ``ledger.json`` object: ``{"rows": [...]}``, one row per epsilon of a run.

    Each row records the coarse size bound M from ``run.m_bounds`` (one per
    solution, else a ValueError), the order-2 scaled Sobolev norm of u, the
    order-1 norm of its vertical derivative, and Holder seminorms of both
    gradient components at ``DEFAULT_ALPHAS`` on the default window, the
    same numbers as :func:`holder_seminorm` gives.  Eps must decrease
    strictly and each entry be finite and non-negative, else a ValueError.
    """
    if any(e2 >= e1 for e1, e2 in zip(run.eps_values, run.eps_values[1:])):
        raise ValueError("ledger rows must have strictly decreasing eps")
    steps = list(zip(run.eps_values, run.solutions, run.m_bounds, strict=True))
    frames = [Frame(sol, eps) for eps, sol, _ in steps]
    rows = []
    for (eps, sol, m), frame, seminorms in zip(steps, frames, _ledger_seminorms(frames)):
        norms = {
            "u_W22_eps": sobolev_norm_eps(frame, 2, 2),
            "d2u_W12_eps": sobolev_norm_eps(frame, 1, 2, of=GridFunction(sol.grid, sol.d2())),
        }
        if not all(np.isfinite(x) and x >= 0 for x in (eps, m, *norms.values(), *seminorms)):
            raise ValueError("ledger entries must be finite and non-negative")
        rows.append({"eps": eps, "M": m, "norms": norms,
                     "holder": [{"alpha": a, "seminorm": s}
                                for a, s in zip(DEFAULT_ALPHAS, seminorms)]})
    return {"rows": rows}


@dataclass(frozen=True)
class DiagnosticsBudgets:
    """Pass/fail thresholds for the verdict; caps are sup-norm budgets."""

    alphas: tuple = DEFAULT_ALPHAS
    holder_cap: float = 50.0
    x2u_cap: float = 0.5
    residual_cap: float = 0.5
    margin_fraction: float = 0.1
    window: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.alphas:  # else the verdict checks no Holder exponent at all
            raise ValueError("alphas: need at least one exponent")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ValueError(f"alphas: each must lie in (0, 1), got {self.alphas}")
        if self.window is not None and not 0.0 <= self.window[0] < self.window[1]:
            raise ValueError(f"window: need 0 <= lo < hi, got {self.window}")
        if not self.margin_fraction < 0.5:  # else the verdict's interior window is empty
            raise ValueError(f"margin_fraction: must be below 0.5, got {self.margin_fraction}")


def verdict(final: GridFunction, eps: float, lip_norms: list,
            budgets: DiagnosticsBudgets = DiagnosticsBudgets()) -> dict:
    """The ``verdict.json`` object: a run's final state, ``final`` at ``eps``,
    checked against the budgets.

    The second graph-direction derivative is measured on a compact interior
    window (a fixed fraction of the domain trimmed on each side) at the final
    epsilon, alongside Holder seminorms of the gradient components and the
    derivative-equation defects.  ``lip_ratio`` is max/min of the run's
    recorded Lipschitz norms, inf when the smallest is 0.  ``pass`` needs
    every seminorm, ``x2u_sup`` and both residuals within their caps.
    """
    frame = Frame(final, eps)
    grid = final.grid
    window = holder_window(grid, budgets.window)
    seminorms = map(max, holder_seminorm(apply_x1(frame, final), budgets.alphas, window),
                    holder_seminorm(apply_x2(frame, final), budgets.alphas, window))
    alpha_rows = [{"alpha": a, "seminorm": s, "pass": s <= budgets.holder_cap}
                  for a, s in zip(budgets.alphas, seminorms)]

    margin = max(3, int(round(budgets.margin_fraction * (min(grid.n1, grid.n2) - 1))))
    x2u = intrinsic_derivative(final, 2)
    x2u_sup = float(np.max(np.abs(x2u.restrict(margin))))

    v_res, z_res = derivative_equation_residuals(frame)
    lip_ratio = float(max(lip_norms) / min(lip_norms)) if min(lip_norms) > 0 else float("inf")
    return {
        "alpha_estimates": alpha_rows,
        "x2u_sup": x2u_sup,
        "residuals": {"v": v_res, "z": z_res},
        "lip_ratio": lip_ratio,
        "pass": (all(r["pass"] for r in alpha_rows) and x2u_sup <= budgets.x2u_cap
                 and v_res <= budgets.residual_cap and z_res <= budgets.residual_cap),
    }
