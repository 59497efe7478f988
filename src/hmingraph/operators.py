"""Discrete minimal-graph operators for the regularized frame.

Everything here discretizes, on the interior nodes of a grid, either the
divergence-form operator

    L u = X1( X1 u / W ) + X2( X2 u / W ),     W = sqrt(1 + |grad u|^2),

or its non-divergence companion

    N u = sum_ij a_ij(grad u) Xi(Xj u),
    a_ij(p) = delta_ij - p_i p_j / (1 + |p|^2).

Here ``grad u = (X1 u, X2 u)`` for the frame fields of a
:class:`~hmingraph.geometry.Frame`.  The two forms satisfy ``W L u = N u``
for smooth fields when the outer field in N is applied to the full inner
derivative, and the discretizations below reproduce the identity to O(h^2).

The divergence form is kept conservative: fluxes ``Xi u / W`` are evaluated
at half nodes between grid points (compact staggered stencils) and the outer
fields difference them back to the node, so affine fields are discrete
solutions with exactly zero residual.  Its exact Jacobian is assembled in
the interior unknowns.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import Frame, apply_x1, apply_x2
from .grid import GridFunction

__all__ = [
    "aij_from_gradient",
    "coefficients",
    "residual_div",
    "residual_nondiv",
    "jacobian_assemble",
]


def aij_from_gradient(p1, p2):
    """``(a11, a12, a22, W)`` from gradient components (arrays or scalars).

    The matrix has eigenvalues ``1/(1+|p|^2)`` (along p) and ``1`` (across),
    so it stays symmetric positive definite with ellipticity degenerating
    only as the gradient blows up.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    q = 1.0 + p1 * p1 + p2 * p2
    return 1.0 - p1 * p1 / q, -p1 * p2 / q, 1.0 - p2 * p2 / q, np.sqrt(q)


def coefficients(frame: Frame) -> tuple:
    """Nodal ``(a11, a12, a22, W)`` from second-order nodal derivatives of u."""
    return aij_from_gradient(apply_x1(frame, frame.u).values, apply_x2(frame, frame.u).values)


# ---------------------------------------------------------------------------
# staggered half-node data
# ---------------------------------------------------------------------------


class _HalfData:
    """Gradients, ``q = 1 + |p|^2`` and weights ``W = sqrt(q)`` at staggered half nodes.

    x-half nodes sit between horizontally adjacent nodes and carry shape
    ``(n1-1, n2-2)`` (columns j = 1..n2-2); y-half nodes sit between
    vertically adjacent nodes with shape ``(n1-2, n2-1)``.  Only half nodes
    adjacent to interior residual nodes are formed, so every stencil stays
    inside the grid.  The coefficients ``a_ij = delta_ij - p_i p_j / q`` are
    left to the Jacobian, the one reader of them.  Each array is made once
    and then updated in place, with the operands in the order of the
    formulas written out, so each has the bits of its formula:
    ``ubar = 0.5 (uL + uR)``, ``p1 = d1 + ubar d2``, ``p2 = eps d2`` and
    ``q = 1 + p1 p1 + p2 p2``.  ``d1`` is a scratch array.
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
        self.ubar_x = uL + uR
        np.multiply(0.5, self.ubar_x, out=self.ubar_x)
        d1 = uR - uL
        d1 /= h1
        self.d2_x = _cross_difference(u[:-1, 2:], u[1:, 2:], u[:-1, :-2], u[1:, :-2], h2)
        self.p1_x, self.p2_x, self.q_x, self.W_x = _gradient(d1, self.ubar_x, self.d2_x, eps)

        uB, uT = u[1:-1, :-1], u[1:-1, 1:]
        self.ubar_y = uB + uT
        np.multiply(0.5, self.ubar_y, out=self.ubar_y)
        self.d2_y = uT - uB
        self.d2_y /= h2
        d1 = _cross_difference(u[2:, :-1], u[2:, 1:], u[:-2, :-1], u[:-2, 1:], h1)
        self.p1_y, self.p2_y, self.q_y, self.W_y = _gradient(d1, self.ubar_y, self.d2_y, eps)

        self.uI = u[1:-1, 1:-1]


def _cross_difference(a, b, c, d, h):
    """``(a + b - c - d) / (4 h)``, the four-point difference across a half node."""
    out = a + b
    out -= c
    out -= d
    out /= 4 * h
    return out


def _gradient(d1, ubar, d2, eps):
    """``(p1, p2, q, W)`` at half nodes: ``p1 = d1 + ubar d2`` and ``p2 = eps d2``;
    ``d1`` is overwritten."""
    p1 = ubar * d2
    np.add(d1, p1, out=p1)
    p2 = eps * d2
    q = p1 * p1
    np.add(1.0, q, out=q)
    q += np.multiply(p2, p2, out=d1)
    return p1, p2, q, np.sqrt(q)


def residual_div(frame: Frame) -> GridFunction:
    """Conservative residual of the divergence-form operator at interior nodes,
    zero on the boundary ring: ``restrict(1)`` holds the interior values.

    Affine u gives exactly zero: every half node then sees the same gradient,
    so all fluxes are equal and the staggered differences cancel.  The fluxes
    ``p / W`` overwrite the half-node gradients, which nothing reads after.
    """
    hd = _HalfData(frame)
    g1x, g1y, g2y = hd.p1_x, hd.p1_y, hd.p2_y
    g1x /= hd.W_x
    g1y /= hd.W_y
    g2y /= hd.W_y
    out = np.zeros((hd.n1, hd.n2))
    out[1:-1, 1:-1] = _row(hd.h1, hd.h2, hd.eps, hd.uI, g1x[1:, :] - g1x[:-1, :],
                           g1y[:, 1:] - g1y[:, :-1], g2y[:, 1:] - g2y[:, :-1], 1)
    return GridFunction(frame.u.grid, out)


def _row(h1, h2, eps, uI, x, y1, y2, sign):
    """The divergence row: flux differences ``x`` over h1, ``uI * y1`` and ``eps * y2``
    over h2; ``sign`` -1 subtracts the y-terms, with the bits of ``a - b / h2``."""
    return x / h1 + uI * y1 / (sign * h2) + eps * y2 / (sign * h2)


def residual_nondiv(frame: Frame) -> GridFunction:
    """Non-divergence residual ``sum_ij a_ij Xi(Xj u)`` with nested stencils.

    The outer field acts on the full inner derivative (the ordering that
    makes ``W * residual_div = residual_nondiv`` hold for smooth fields).
    Zero on the boundary ring, like :func:`residual_div`.
    """
    x1u = apply_x1(frame, frame.u)
    x2u = apply_x2(frame, frame.u)
    a11, a12, a22, _ = aij_from_gradient(x1u.values, x2u.values)
    x11 = apply_x1(frame, x1u).values
    x12 = apply_x1(frame, x2u).values
    x21 = apply_x2(frame, x1u).values
    x22 = apply_x2(frame, x2u).values
    vals = a11 * x11 + a12 * (x12 + x21) + a22 * x22
    return GridFunction(frame.u.grid, np.pad(vals[1:-1, 1:-1], 1))


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------


# the keys of every offset dict, in the order their values are laid out
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


@functools.lru_cache(maxsize=8)
def _offset_pattern(n1: int, n2: int):
    """CSR structure of the interior block on an ``n1 x n2`` grid.

    The values of a 9-offset operator are laid out as the row-major interior
    arrays of :data:`_OFFSETS`, concatenated.  Returns ``(gather, indices,
    indptr)``: ``values[gather]`` is the block's CSR ``data`` (rows in order,
    columns sorted within a row, as COO -> CSR conversion gives), and both
    rows and columns number the interior unknowns row-major.  Offsets that
    land on the boundary ring have no column.
    """
    m = (n1 - 2) * (n2 - 2)
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    rows = np.tile(np.arange(m), len(_OFFSETS))
    cols = np.concatenate([((ii + di) * n2 + (jj + dj)).ravel() for di, dj in _OFFSETS])
    # each node's interior number, -1 on the ring (index arithmetic gives the same
    # bits, but its temporaries left the 129^2 continuation's heap 30 MB larger)
    interior = np.full(n1 * n2, -1)
    interior.reshape(n1, n2)[1:-1, 1:-1] = np.arange(m).reshape(n1 - 2, n2 - 2)
    sel = np.flatnonzero(interior[cols] >= 0)
    r, c = rows[sel], interior[cols[sel]]
    order = np.lexsort((c, r))
    idx = np.int32 if max(m, sel.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(m + 1, dtype=idx)
    np.cumsum(np.bincount(r, minlength=m), out=indptr[1:])
    pattern = (sel[order], c[order].astype(idx), indptr)
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _offset_matrix(D: dict, n1: int, n2: int) -> "csr_matrix":
    """Assemble 9-offset coefficient arrays into the interior-block matrix.

    ``D[(di, dj)]`` holds, for every interior node, the row coefficient of
    the neighbor at that offset.  Only the values are gathered per call; the
    structure comes from :func:`_offset_pattern`, and the matrix gets its
    own copy of it, so in-place sparse operations on it cannot reach the
    cache.  This is the one place a sparse matrix is built, so
    ``scipy.sparse`` is imported here: a process loads scipy only when
    ``solve`` or ``continuation`` factors a Jacobian.
    """
    from scipy.sparse import csr_matrix

    gather, indices, indptr = _offset_pattern(n1, n2)
    vals = np.concatenate([D[off].ravel() for off in _OFFSETS])
    m = (n1 - 2) * (n2 - 2)
    return csr_matrix((vals[gather], indices.copy(), indptr.copy()), shape=(m, m))


def _combine_offsets(h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2):
    """Fold half-node stencil coefficients into per-offset row coefficients.

    x-half arrays have shape ``(n1-1, n2-2)``: ``[1:]`` is the half node on
    the + side of an interior node, ``[:-1]`` the - side.  y-half arrays
    have shape ``(n1-2, n2-1)``: ``[:, 1:]`` / ``[:, :-1]`` likewise.  The
    y-contributions enter once scaled by the transport factor ``uI`` (flux
    F1) and once by ``eps`` (flux F2).
    """
    xp = lambda a: a[1:, :]
    xm = lambda a: a[:-1, :]
    yp = lambda a: a[:, 1:]
    ym = lambda a: a[:, :-1]

    row = functools.partial(_row, h1, h2, eps, uI)
    return {
        (0, 0): row(xp(cxL) - xm(cxR), yp(cyB1) - ym(cyT1), yp(cyB2) - ym(cyT2), 1),
        (1, 0): row(xp(cxR), yp(cyS1) - ym(cyS1), yp(cyS2) - ym(cyS2), 1),
        (-1, 0): row(-xm(cxL), -yp(cyS1) + ym(cyS1), -yp(cyS2) + ym(cyS2), 1),
        (0, 1): row(xp(cxD) - xm(cxD), yp(cyT1), yp(cyT2), 1),
        (0, -1): row(-xp(cxD) + xm(cxD), ym(cyB1), ym(cyB2), -1),
        (1, 1): row(xp(cxD), yp(cyS1), yp(cyS2), 1),
        (1, -1): row(-xp(cxD), ym(cyS1), ym(cyS2), -1),
        (-1, 1): row(-xm(cxD), yp(cyS1), yp(cyS2), -1),
        (-1, -1): row(xm(cxD), ym(cyS1), ym(cyS2), 1),
    }


def jacobian_assemble(frame: Frame) -> "csr_matrix":
    """Exact Jacobian of :func:`residual_div` in the interior node values.

    Rows touch at most the 9-point neighborhood of their node.  The
    derivative runs through every u-dependence of the staggered residual:
    the flux gradients (via ``a_ij / W``), the transported half-node value
    ``ubar`` inside ``X1``, and the explicit transport factor ``u_ij`` on
    the vertical difference of the first flux.
    """
    hd = _HalfData(frame)
    return _offset_matrix(_jacobian_offsets(hd), hd.n1, hd.n2)


def _jacobian_offsets(hd: _HalfData) -> dict:
    """Per-offset row coefficients of the Jacobian of :func:`residual_div`."""
    h1, h2, eps, uI = hd.h1, hd.h2, hd.eps, hd.uI

    # the a_ij read here, by the expressions of aij_from_gradient
    p1x, p1y, p2y = hd.p1_x, hd.p1_y, hd.p2_y
    A1x = (1.0 - p1x * p1x / hd.q_x) / hd.W_x
    A2x = -p1x * hd.p2_x / hd.q_x / hd.W_x
    # d(g1)/d(node) at x-half nodes; the ubar and d2 terms ride along dp1
    cxL = A1x * (-1.0 / h1 + hd.d2_x / 2.0)
    cxR = A1x * (1.0 / h1 + hd.d2_x / 2.0)
    cxD = A1x * hd.ubar_x / (4 * h2) + A2x * eps / (4 * h2)

    B11 = (1.0 - p1y * p1y / hd.q_y) / hd.W_y
    B12 = -p1y * p2y / hd.q_y / hd.W_y
    B22 = (1.0 - p2y * p2y / hd.q_y) / hd.W_y
    dp1B = -hd.ubar_y / h2 + hd.d2_y / 2.0
    dp1T = hd.ubar_y / h2 + hd.d2_y / 2.0
    cyB1 = B11 * dp1B + B12 * (-eps / h2)
    cyT1 = B11 * dp1T + B12 * (eps / h2)
    cyS1 = B11 / (4 * h1)
    cyB2 = B12 * dp1B + B22 * (-eps / h2)
    cyT2 = B12 * dp1T + B22 * (eps / h2)
    cyS2 = B12 / (4 * h1)

    D = _combine_offsets(h1, h2, eps, uI, cxL, cxR, cxD, cyB1, cyT1, cyS1, cyB2, cyT2, cyS2)
    g1y = hd.p1_y / hd.W_y
    D[(0, 0)] = D[(0, 0)] + (g1y[:, 1:] - g1y[:, :-1]) / h2  # residual's explicit u_ij factor
    return D
