"""Discrete minimal-graph operators for the regularized frame.

Everything here discretizes, on the interior nodes of a grid, either the
divergence-form operator

    L u = X1( X1 u / W ) + X2( X2 u / W ),     W = sqrt(1 + |grad u|^2),

its non-divergence companion

    N u = sum_ij a_ij(grad u) Xi(Xj u),
    a_ij(p) = delta_ij - p_i p_j / (1 + |p|^2),

or the linear equation coefficients ``a_ij / W`` that the field's derivatives
satisfy.  Here ``grad u = (X1 u, X2 u)`` for the frame fields of a
:class:`~hmingraph.geometry.Frame`.  The two forms satisfy ``W L u = N u``
for smooth fields when the outer field in N is applied to the full inner
derivative, and the discretizations below reproduce the identity to O(h^2).

The divergence form is kept conservative: fluxes ``Xi u / W`` are evaluated
at half nodes between grid points (compact staggered stencils) and the outer
fields difference them back to the node, so affine fields are discrete
solutions with exactly zero residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .geometry import Frame, apply_x1, apply_x2
from .grid import GridFunction, require_same_grid

__all__ = [
    "CoefficientField",
    "Residual",
    "aij_from_gradient",
    "coefficients",
    "residual_div",
    "residual_nondiv",
    "linearized_apply",
    "linear_operator_matrix",
    "jacobian_assemble",
    "interior_index_maps",
]


@dataclass
class Residual:
    """Nodal residual field; values outside the stencil's reach are zero."""

    field: GridFunction

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.field.restrict(1))))

    def interior(self, margin: int = 1) -> np.ndarray:
        return self.field.restrict(margin)


@dataclass
class CoefficientField:
    """Nodal ``a_ij`` and ``W`` evaluated from the frame gradient of u.

    The matrix has eigenvalues ``1/(1+|p|^2)`` (along p) and ``1`` (across),
    so it stays symmetric positive definite with ellipticity degenerating
    only as the gradient blows up.
    """

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    w: np.ndarray


def aij_from_gradient(p1, p2):
    """``a_ij`` and ``W`` from gradient components (arrays or scalars)."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q = 1.0 + p1 * p1 + p2 * p2
    return 1.0 - p1 * p1 / q, -p1 * p2 / q, 1.0 - p2 * p2 / q, np.sqrt(q)


def coefficients(frame: Frame) -> CoefficientField:
    """Nodal coefficient field from second-order nodal derivatives of u."""
    p1 = apply_x1(frame, frame.u).values
    p2 = apply_x2(frame, frame.u).values
    a11, a12, a22, w = aij_from_gradient(p1, p2)
    return CoefficientField(a11=a11, a12=a12, a22=a22, w=w)


# ---------------------------------------------------------------------------
# staggered half-node data
# ---------------------------------------------------------------------------


class _HalfData:
    """Gradients, weights and coefficient ratios at staggered half nodes.

    x-half nodes sit between horizontally adjacent nodes and carry shape
    ``(n1-1, n2-2)`` (columns j = 1..n2-2); y-half nodes sit between
    vertically adjacent nodes with shape ``(n1-2, n2-1)``.  Only half nodes
    adjacent to interior residual nodes are formed, so every stencil stays
    inside the grid.
    """

    def __init__(self, frame: Frame):
        u = frame.u.values
        g = frame.u.grid
        eps = frame.epsilon
        h1, h2 = g.h1, g.h2
        self.h1, self.h2, self.eps = h1, h2, eps
        self.n1, self.n2 = g.n1, g.n2
        self.u = u

        uL, uR = u[:-1, 1:-1], u[1:, 1:-1]
        self.ubar_x = 0.5 * (uL + uR)
        self.d1_x = (uR - uL) / h1
        self.d2_x = (u[:-1, 2:] + u[1:, 2:] - u[:-1, :-2] - u[1:, :-2]) / (4 * h2)
        self.p1_x = self.d1_x + self.ubar_x * self.d2_x
        self.p2_x = eps * self.d2_x
        self.a11_x, self.a12_x, self.a22_x, self.W_x = aij_from_gradient(self.p1_x, self.p2_x)

        uB, uT = u[1:-1, :-1], u[1:-1, 1:]
        self.ubar_y = 0.5 * (uB + uT)
        self.d2_y = (uT - uB) / h2
        self.d1_y = (u[2:, :-1] + u[2:, 1:] - u[:-2, :-1] - u[:-2, 1:]) / (4 * h1)
        self.p1_y = self.d1_y + self.ubar_y * self.d2_y
        self.p2_y = eps * self.d2_y
        self.a11_y, self.a12_y, self.a22_y, self.W_y = aij_from_gradient(self.p1_y, self.p2_y)

        self.uI = u[1:-1, 1:-1]


def _full_field(grid, interior_values) -> GridFunction:
    out = np.zeros((grid.n1, grid.n2))
    out[1:-1, 1:-1] = interior_values
    return GridFunction(grid, out)


def residual_div(frame: Frame) -> Residual:
    """Conservative residual of the divergence-form operator at interior nodes.

    Affine u gives exactly zero: every half node then sees the same gradient,
    so all fluxes are equal and the staggered differences cancel.
    """
    hd = _HalfData(frame)
    g1x = hd.p1_x / hd.W_x
    g1y = hd.p1_y / hd.W_y
    g2y = hd.p2_y / hd.W_y
    r = (
        (g1x[1:, :] - g1x[:-1, :]) / hd.h1
        + hd.uI * (g1y[:, 1:] - g1y[:, :-1]) / hd.h2
        + hd.eps * (g2y[:, 1:] - g2y[:, :-1]) / hd.h2
    )
    return Residual(_full_field(frame.u.grid, r))


def residual_nondiv(frame: Frame) -> Residual:
    """Non-divergence residual ``sum_ij a_ij Xi(Xj u)`` with nested stencils.

    The outer field acts on the full inner derivative (the ordering that
    makes ``W * residual_div = residual_nondiv`` hold for smooth fields).
    """
    c = coefficients(frame)
    x1u = apply_x1(frame, frame.u)
    x2u = apply_x2(frame, frame.u)
    x11 = apply_x1(frame, x1u).values
    x12 = apply_x1(frame, x2u).values
    x21 = apply_x2(frame, x1u).values
    x22 = apply_x2(frame, x2u).values
    vals = c.a11 * x11 + c.a12 * (x12 + x21) + c.a22 * x22
    out = vals.copy()
    out[0, :] = out[-1, :] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    return Residual(GridFunction(frame.u.grid, out))


# ---------------------------------------------------------------------------
# linearized operator
# ---------------------------------------------------------------------------


def _half_coeffs(hd: _HalfData, kind: str):
    """Coefficient ratios b_ij at half nodes: full ``a/W`` or lagged ``I/W``."""
    if kind == "full":
        bx11, bx12 = hd.a11_x / hd.W_x, hd.a12_x / hd.W_x
        by11, by12, by22 = hd.a11_y / hd.W_y, hd.a12_y / hd.W_y, hd.a22_y / hd.W_y
    elif kind == "picard":
        zx = np.zeros_like(hd.W_x)
        zy = np.zeros_like(hd.W_y)
        bx11, bx12 = 1.0 / hd.W_x, zx
        by11, by12, by22 = 1.0 / hd.W_y, zy, 1.0 / hd.W_y
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return bx11, bx12, by11, by12, by22


def linearized_apply(frame: Frame, z: GridFunction) -> GridFunction:
    """Apply ``M z = Xi( (a_ij / W) Xj z )`` in conservative flux form.

    Coefficients are frozen from the frame's u; the map is linear in z and
    annihilates constants.  Values are produced at interior nodes (the
    boundary ring of the output is zero).
    """
    require_same_grid(frame.u, z)
    hd = _HalfData(frame)
    bx11, bx12, by11, by12, by22 = _half_coeffs(hd, "full")
    zv = z.values
    h1, h2, eps = hd.h1, hd.h2, hd.eps

    d1z_x = (zv[1:, 1:-1] - zv[:-1, 1:-1]) / h1
    d2z_x = (zv[:-1, 2:] + zv[1:, 2:] - zv[:-1, :-2] - zv[1:, :-2]) / (4 * h2)
    q1x = d1z_x + hd.ubar_x * d2z_x
    q2x = eps * d2z_x
    F1x = bx11 * q1x + bx12 * q2x

    d2z_y = (zv[1:-1, 1:] - zv[1:-1, :-1]) / h2
    d1z_y = (zv[2:, :-1] + zv[2:, 1:] - zv[:-2, :-1] - zv[:-2, 1:]) / (4 * h1)
    q1y = d1z_y + hd.ubar_y * d2z_y
    q2y = eps * d2z_y
    F1y = by11 * q1y + by12 * q2y
    F2y = by12 * q1y + by22 * q2y

    out = (
        (F1x[1:, :] - F1x[:-1, :]) / h1
        + hd.uI * (F1y[:, 1:] - F1y[:, :-1]) / h2
        + eps * (F2y[:, 1:] - F2y[:, :-1]) / h2
    )
    return _full_field(frame.u.grid, out)


def interior_index_maps(n1: int, n2: int):
    """Flat index of each interior node in the full grid, and the inverse."""
    full = np.arange(n1 * n2).reshape(n1, n2)
    interior_flat = full[1:-1, 1:-1].ravel()
    inv = -np.ones(n1 * n2, dtype=np.int64)
    inv[interior_flat] = np.arange(interior_flat.size)
    return interior_flat, inv


# the keys of every offset dict, in the order their values are laid out
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


@functools.lru_cache(maxsize=8)
def _offset_pattern(n1: int, n2: int):
    """CSR structure of the interior and boundary blocks on an ``n1 x n2`` grid.

    The values of a 9-offset operator are laid out as the row-major interior
    arrays of :data:`_OFFSETS`, concatenated.  Each block is returned as
    ``(gather, indices, indptr, shape)``: ``values[gather]`` is the block's
    CSR ``data`` (rows in order, columns sorted within a row, as COO -> CSR
    conversion gives).  Interior columns number the unknowns row-major, and
    boundary columns number the ring nodes in flat-index order.
    """
    m1, m2 = n1 - 2, n2 - 2
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    rows = np.tile(((ii - 1) * m2 + (jj - 1)).ravel(), len(_OFFSETS))
    cols = np.concatenate([((ii + di) * n2 + (jj + dj)).ravel() for di, dj in _OFFSETS])

    _, inv = interior_index_maps(n1, n2)
    bnd_flat = np.flatnonzero(inv < 0)
    binv = -np.ones(n1 * n2, dtype=np.int64)
    binv[bnd_flat] = np.arange(bnd_flat.size)
    blocks = []
    for take, colmap, ncols in ((inv[cols] >= 0, inv, m1 * m2), (inv[cols] < 0, binv, bnd_flat.size)):
        sel = np.flatnonzero(take)
        r, c = rows[sel], colmap[cols[sel]]
        order = np.lexsort((c, r))
        shape = (m1 * m2, ncols)
        idx = np.int32 if max(*shape, sel.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(m1 * m2 + 1, dtype=idx)
        np.cumsum(np.bincount(r, minlength=m1 * m2), out=indptr[1:])
        block = (sel[order], c[order].astype(idx), indptr, shape)
        for a in block[:3]:
            a.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def _offset_matrix(D: dict, n1: int, n2: int) -> tuple[csr_matrix, csr_matrix]:
    """Assemble 9-offset coefficient arrays into interior/boundary matrices.

    ``D[(di, dj)]`` holds, for every interior node, the row coefficient of
    the neighbor at that offset.  Returns ``(A_int, A_bnd)`` with columns
    split between interior unknowns and boundary nodes.  Only the values are
    gathered per call; the structure comes from :func:`_offset_pattern`, and
    each matrix gets its own copy of it, so in-place sparse operations on a
    returned matrix cannot reach the cache.
    """
    vals = np.concatenate([D[off].ravel() for off in _OFFSETS])
    A_int, A_bnd = (
        csr_matrix((vals[gather], indices.copy(), indptr.copy()), shape=shape)
        for gather, indices, indptr, shape in _offset_pattern(n1, n2)
    )
    return A_int, A_bnd


def linear_operator_matrix(frame: Frame, kind: str = "full"):
    """Sparse matrix of the flux-form linear operator with frozen coefficients.

    ``kind='full'`` uses ``a_ij / W`` (the equation satisfied by derivative
    components), ``kind='picard'`` the lagged ``delta_ij / W`` fixed-point
    operator.  Returns ``(A_int, A_bnd, bnd_values_of)`` where the operator
    applied to a full field z equals ``A_int z_int + A_bnd z_bnd`` at
    interior nodes and ``bnd_values_of(values)`` extracts the boundary part
    in matching order.
    """
    hd = _HalfData(frame)
    A_int, A_bnd = _offset_matrix(_operator_offsets(hd, kind), hd.n1, hd.n2)

    def bnd_values_of(values: np.ndarray) -> np.ndarray:
        n1, n2 = frame.u.grid.n1, frame.u.grid.n2
        _, inv = interior_index_maps(n1, n2)
        return values.ravel()[inv < 0]

    return A_int, A_bnd, bnd_values_of


def _operator_offsets(hd: _HalfData, kind: str) -> dict:
    """Per-offset row coefficients of the frozen-coefficient operator."""
    bx11, bx12, by11, by12, by22 = _half_coeffs(hd, kind)
    h1, h2, eps, uI = hd.h1, hd.h2, hd.eps, hd.uI

    # x-half stencil coefficients for the flux F1x
    cxL = -bx11 / h1
    cxR = bx11 / h1
    cxD = (bx11 * hd.ubar_x + bx12 * eps) / (4 * h2)
    # y-half coefficients for F1y and F2y
    cyB1 = -(by11 * hd.ubar_y + by12 * eps) / h2
    cyT1 = -cyB1
    cyS1 = by11 / (4 * h1)
    cyB2 = -(by12 * hd.ubar_y + by22 * eps) / h2
    cyT2 = -cyB2
    cyS2 = by12 / (4 * h1)

    return _combine_offsets(
        h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2, delta=None,
    )


def _combine_offsets(h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2, delta):
    """Fold half-node stencil coefficients into per-offset row coefficients.

    x-half arrays have shape ``(n1-1, n2-2)``: ``[1:]`` is the half node on
    the + side of an interior node, ``[:-1]`` the - side.  y-half arrays
    have shape ``(n1-2, n2-1)``: ``[:, 1:]`` / ``[:, :-1]`` likewise.  The
    y-contributions enter once scaled by the transport factor ``uI`` (flux
    F1) and once by ``eps`` (flux F2); ``delta``, when given, is added to
    the (0, 0) offset (residual linearization only).
    """
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
    if delta is not None:
        D[(0, 0)] = D[(0, 0)] + delta
    return D


def jacobian_assemble(frame: Frame) -> csr_matrix:
    """Exact Jacobian of :func:`residual_div` in the interior node values.

    Rows touch at most the 9-point neighborhood of their node.  The
    derivative runs through every u-dependence of the staggered residual:
    the flux gradients (via ``a_ij / W``), the transported half-node value
    ``ubar`` inside ``X1``, and the explicit transport factor ``u_ij`` on
    the vertical difference of the first flux.
    """
    hd = _HalfData(frame)
    A_int, _ = _offset_matrix(_jacobian_offsets(hd), hd.n1, hd.n2)
    return A_int


def _jacobian_offsets(hd: _HalfData) -> dict:
    """Per-offset row coefficients of the Jacobian of :func:`residual_div`."""
    h1, h2, eps, uI = hd.h1, hd.h2, hd.eps, hd.uI

    A1x = hd.a11_x / hd.W_x
    A2x = hd.a12_x / hd.W_x
    # d(g1)/d(node) at x-half nodes; the ubar and d2 terms ride along dp1
    cxL = A1x * (-1.0 / h1 + hd.d2_x / 2.0)
    cxR = A1x * (1.0 / h1 + hd.d2_x / 2.0)
    cxD = A1x * hd.ubar_x / (4 * h2) + A2x * eps / (4 * h2)

    B11 = hd.a11_y / hd.W_y
    B12 = hd.a12_y / hd.W_y
    B22 = hd.a22_y / hd.W_y
    dp1B = -hd.ubar_y / h2 + hd.d2_y / 2.0
    dp1T = hd.ubar_y / h2 + hd.d2_y / 2.0
    cyB1 = B11 * dp1B + B12 * (-eps / h2)
    cyT1 = B11 * dp1T + B12 * (eps / h2)
    cyS1 = B11 / (4 * h1)
    cyB2 = B12 * dp1B + B22 * (-eps / h2)
    cyT2 = B12 * dp1T + B22 * (eps / h2)
    cyS2 = B12 / (4 * h1)

    g1y = hd.p1_y / hd.W_y
    delta = (g1y[:, 1:] - g1y[:, :-1]) / h2  # residual's explicit u_ij factor

    return _combine_offsets(
        h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2, delta=delta,
    )
