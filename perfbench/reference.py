"""Reference values the benchmark computes without calling hmingraph.

Every check on an operation's output compares against these, or tests a
property the method must have, so a fault in the program cannot vouch for
itself.
"""

from __future__ import annotations

import numpy as np


def fan_bump(x1, x2):
    """The smooth benchmark data ``x2/(x1+2) + 0.25*x1*(1-x1)`` on [0,1]x[1,2]."""
    return x2 / (x1 + 2.0) + 0.25 * x1 * (1.0 - x1)


FAN_BUMP_EXPR = "x2 / (x1 + 2) + 0.25 * x1 * (1 - x1)"


def nodes(x1_range, x2_range, n1, n2):
    return (np.linspace(x1_range[0], x1_range[1], n1)[:, None] + np.zeros((1, n2)),
            np.linspace(x2_range[0], x2_range[1], n2)[None, :] + np.zeros((n1, 1)))


def geometric_schedule(eps_start=1.0, factor=0.5, eps_min=1e-3):
    """``eps_start * factor**k`` while above ``eps_min``, then ``eps_min``."""
    out = []
    k = 0
    while eps_start * factor ** k > eps_min:
        out.append(eps_start * factor ** k)
        k += 1
    return out + [eps_min]


def ring(values):
    return np.concatenate([values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1]])


def lip_norm(values, h1, h2):
    return max(float(np.max(np.abs(np.diff(values, axis=0)))) / h1,
               float(np.max(np.abs(np.diff(values, axis=1)))) / h2)


def x1x1_interior_sup(values, h1, h2):
    """Interior sup of ``X1 X1 u`` with ``X1 f = d1 f + u d2 f``.

    Second-order differences, one-sided at the edge; the margin trims a tenth
    of the domain (at least three nodes) where those edge stencils reach.
    """
    def x1(f):
        return (np.gradient(f, h1, axis=0, edge_order=2)
                + values * np.gradient(f, h2, axis=1, edge_order=2))

    n = min(values.shape)
    m = max(3, int(round(0.1 * (n - 1))))
    return float(np.max(np.abs(x1(x1(values))[m:-m, m:-m])))


def shear_abs_table(x1, x2):
    """``x2 / (x1 - sign x2)`` with sign(0) = +1: the shear-abs graph."""
    return x2 / (x1 - np.where(x2 >= 0.0, 1.0, -1.0))


def frozen_model(values, x1_range, x2_range, i, j, eps):
    """First-order data ``(u0, X1u, X2u)`` at node (i, j) by centered differences."""
    n1, n2 = values.shape
    h1 = (x1_range[1] - x1_range[0]) / (n1 - 1)
    h2 = (x2_range[1] - x2_range[0]) / (n2 - 1)
    d1 = (values[i + 1, j] - values[i - 1, j]) / (2 * h1)
    d2 = (values[i, j + 1] - values[i, j - 1]) / (2 * h2)
    u0 = float(values[i, j])
    return u0, float(d1 + u0 * d2), float(eps * d2)


def _moments(k):
    """``E_j(k) = int_0^1 exp(k*t) t^j dt`` for j = 0, 1, 2 (arrays)."""
    k = np.asarray(k, dtype=float)
    small = np.abs(k) < 0.5
    ks = np.where(small, 1.0, k)  # keep the closed forms away from k = 0
    ek = np.exp(ks)
    closed = (np.expm1(ks) / ks,
              (ek * (ks - 1.0) + 1.0) / ks ** 2,
              (ek * (ks * ks - 2.0 * ks + 2.0) - 2.0) / ks ** 3)
    out = []
    for j in range(3):
        series = np.zeros_like(k)
        term = np.ones_like(k)
        for n in range(30):  # |k| < 0.5: 0.5**30 / 30! is far below rounding
            series = series + term / (n + j + 1)
            term = term * k / (n + 1)
        out.append(np.where(small, series, closed[j]))
    return out


def frozen_coords(model, x0, eps, x1, x2, s):
    """Adapted coordinates of lifted points for the frozen affine model.

    With ``u`` replaced by its affine model the flow ODE of ``e1 X1 + e2 X2 +
    e3 X3`` is linear, ``y' = k y + e1 (u0 + e1 G1 t + s^2 t^2) + eps e2``
    with ``k = e1 X2u0 / eps``, so hitting ``y(1) = dx2`` gives

        eps e2 = (dx2 - e1 (u0 M0 + e1 G1 M1 + s^2 M2)) / M0,
        M_j = int_0^1 exp(k (1 - t)) t^j dt.
    """
    u0, x1u0, x2u0 = model
    g2 = x2u0 / eps
    g1 = x1u0 - u0 * g2
    e1 = np.asarray(x1, dtype=float) - x0[0]
    dx2 = np.asarray(x2, dtype=float) - x0[1]
    s = np.asarray(s, dtype=float)
    E0, E1, E2 = _moments(e1 * g2)
    M0, M1, M2 = E0, E0 - E1, E0 - 2.0 * E1 + E2  # substitute t -> 1 - t
    c = (dx2 - e1 * (u0 * M0 + e1 * g1 * M1 + s * s * M2)) / M0
    return e1, c / eps, s


def gauge_eps(e1, e2, e3, eps):
    mid = np.minimum(e2 * e2, np.abs(eps * e2) ** (2.0 / 3.0))
    return np.sqrt(e1 * e1 + mid + e3 * e3)


def gauge_cc(e1, e2, e3, eps):
    return (e1 ** 6 + (eps * e2) ** 2 + e3 ** 6) ** (1.0 / 6.0)


def remainder_exponent(values, x1_range, x2_range, x0, eps, radii, drop_below=1e-14):
    """Log-log slope of ``|u - P1|`` against the closed-form gauge around ``x0``.

    Samples are the grid nodes whose gauge distance lies in the radius window,
    with ``P1 = u0 + e1 X1u0 + ((dx2 - e1 u0)/eps) X2u0``.
    """
    n1, n2 = values.shape
    X1, X2 = nodes(x1_range, x2_range, n1, n2)
    i = int(round((x0[0] - x1_range[0]) / (x1_range[1] - x1_range[0]) * (n1 - 1)))
    j = int(round((x0[1] - x2_range[0]) / (x2_range[1] - x2_range[0]) * (n2 - 1)))
    model = frozen_model(values, x1_range, x2_range, i, j, eps)
    lo, hi = min(radii), max(radii)
    d = np.sqrt((X1 - x0[0]) ** 2 + (X2 - x0[1]) ** 2)
    cand = (d <= 2.0 * hi) & (d > 0)
    e1, e2, e3 = frozen_coords(model, x0, eps, X1[cand], X2[cand], 0.0)
    dist = gauge_eps(e1, e2, e3, eps)
    u0, x1u0, x2u0 = model
    p1 = u0 + e1 * x1u0 + (X2[cand] - x0[1] - e1 * u0) / eps * x2u0
    rem = np.abs(values[cand] - p1)
    keep = (dist >= lo) & (dist <= hi) & (rem >= drop_below)
    return float(np.polyfit(np.log(dist[keep]), np.log(rem[keep]), 1)[0]), int(keep.sum())


def relative_error(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))) if a.size else 0.0
