"""Closed-form graph catalog: exact solutions and classical counter-examples.

Three families.  Affine graphs ``a*x1 + c`` are the manufactured exact
solutions (constant graph-direction derivative, discretely exact).  The
piecewise-rational graph ``x2 / (x1 - sign(x2))`` on ``x1 > 1`` has vanishing
graph-direction derivative off the line ``x2 = 0`` yet a jump in its vertical
Euclidean derivative across it, the standard witness that minimality alone
does not buy first-order smoothness.  Shear graphs solve ``x2 = x1*t - g(t)``
for ``t`` pointwise, recovering both previous families for affine or
absolute-value ``g``.

Entries carry flags used by tests and the CLI: ``minimal_H0`` (stationarity
of the limit functional), ``vanishing_viscosity_candidate`` (plausible limit
of the regularized solves), ``C1_smooth``, and ``leafwise_affine`` (the
restriction of u to each leaf of its own direction field is affine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CatalogEntry",
    "DomainError",
    "ShearRootError",
    "pauls_graph",
    "affine_graph",
    "shear_graph",
    "shear_entry",
    "catalog",
    "make_entry",
]


class DomainError(ValueError):
    """Evaluation requested outside an entry's validity region."""


class ShearRootError(ValueError):
    """The shear equation has no root, or several, in the bracket, or its
    bracketed root cannot be polished (a NaN residual, or no convergence)."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    eval: Callable
    domain: Callable
    minimal_H0: bool
    vanishing_viscosity_candidate: bool
    C1_smooth: bool
    leafwise_affine: bool


def pauls_graph(x1, x2):
    """``x2 / (x1 - sign(x2))`` with ``sign(0) := +1``, valid for ``x1 > 1``."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 <= 1.0):
        raise DomainError("the piecewise-rational graph needs x1 > 1")
    s = np.where(x2 >= 0.0, 1.0, -1.0)
    out = x2 / (x1 - s)
    return float(out) if out.ndim == 0 else out


def affine_graph(a: float, c: float) -> CatalogEntry:
    """Exact solution family ``u = a*x1 + c`` (any epsilon, any rectangle)."""
    return CatalogEntry(
        name=f"affine(a={a:g}, c={c:g})",
        eval=lambda x1, x2: a * np.asarray(x1, dtype=float) + c + 0.0 * np.asarray(x2, dtype=float),
        domain=lambda x1, x2: True,
        minimal_H0=True,
        vanishing_viscosity_candidate=True,
        C1_smooth=True,
        leafwise_affine=True,
    )


_BRENT_XTOL = 1e-15
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 100


def _ieee_div(a: float, b: float) -> float:
    """``a / b`` as C computes it: a zero divisor gives ±inf or NaN, no error."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _brent_polish(f: Callable, xa: float, xb: float) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method (inverse quadratic
    interpolation, secant steps and bisection).

    A line-by-line port of the C routine behind ``scipy.optimize.brentq``:
    the same iterates, the same stopping test ``|xblk - xcur|/2 <
    (xtol + rtol*|xcur|)/2`` and the same result, bit for bit, at
    ``xtol=1e-15``, ``rtol=8.9e-16`` and 100 iterations.  A NaN value of
    ``f``, a bracket without a sign change and a polish that has not
    converged after 100 iterations raise :class:`ShearRootError`.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ShearRootError(f"the shear residual is NaN at t={x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ShearRootError(f"no sign change of the shear residual on [{xpre!r}, {xcur!r}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ShearRootError(
        f"root polishing did not converge in {_BRENT_MAXITER} iterations (last t={xcur!r})")


# the 401 points of the root scan over the bracket [-50, 50], shared read-only
_SCAN_POINTS = np.linspace(-50.0, 50.0, 401)
_SCAN_POINTS.flags.writeable = False


def shear_graph(g: Callable, x1: float, x2: float) -> float:
    """Solve ``x2 = x1*t - g(t)`` for ``t``; the root is the graph height.

    A 401-point scan over the bracket [-50, 50] locates sign changes of the
    residual; exactly one must exist.  The bracketed root is polished to
    full precision by Brent's method (the iterates of
    ``scipy.optimize.brentq``, ported, bit for bit) and checked against the
    1e-12 residual postcondition; a NaN residual or a polish that does not
    converge raises :class:`ShearRootError` too.  ``g`` must act
    elementwise on a NumPy array (the scan evaluates it on all 401 points in
    one call) as well as on a float, and must not write into its argument:
    the scan points are shared by every call and are read-only.
    """
    x1 = float(x1)
    x2 = float(x2)
    phi = lambda t: x1 * t - g(t) - x2
    ts = _SCAN_POINTS
    vals = x1 * ts - g(ts) - x2  # phi, elementwise over the whole scan
    exact = np.flatnonzero(vals == 0.0)
    sign_flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    n_roots = len(exact) + len(sign_flips)
    if n_roots == 0:
        raise ShearRootError(
            f"no root of the shear equation in bracket [-50, 50] at ({x1:g}, {x2:g})")
    if n_roots > 1:
        raise ShearRootError(
            f"{n_roots} roots of the shear equation in bracket [-50, 50] at ({x1:g}, {x2:g})")
    if len(exact):
        root = float(ts[exact[0]])
    else:
        k = sign_flips[0]
        root = _brent_polish(phi, ts[k], ts[k + 1])
    if abs(x2 - x1 * root + g(root)) > 1e-12:
        raise ShearRootError(f"root polishing failed at ({x1:g}, {x2:g})")
    return float(root)


def shear_entry(g: Callable, name: str, domain: Callable, **flags) -> CatalogEntry:
    """Wrap a shear profile ``g`` as a grid-evaluable catalog entry.

    ``g`` must act elementwise on a NumPy array, as :func:`shear_graph`
    requires; the entry still solves one node at a time.
    """
    ev = np.vectorize(lambda a, b: shear_graph(g, a, b), otypes=[float])
    defaults = dict(minimal_H0=True, vanishing_viscosity_candidate=True,
                    C1_smooth=True, leafwise_affine=True)
    defaults.update(flags)
    return CatalogEntry(
        name=name,
        eval=lambda x1, x2: ev(x1, x2) if np.ndim(x1) or np.ndim(x2) else float(ev(x1, x2)),
        domain=domain,
        **defaults,
    )


def _pauls_entry() -> CatalogEntry:
    return CatalogEntry(
        name="pauls",
        eval=pauls_graph,
        domain=lambda x1, x2: bool(np.all(np.asarray(x1) > 1.0)),
        minimal_H0=True,
        vanishing_viscosity_candidate=False,
        C1_smooth=False,
        leafwise_affine=True,
    )


def catalog() -> dict[str, CatalogEntry]:
    """All named entries, keyed for CLI enumeration."""
    return {
        "affine": affine_graph(0.5, 0.25),
        "pauls": _pauls_entry(),
        "shear-zero": shear_entry(lambda t: 0.0, "shear-zero",
                                  domain=lambda x1, x2: bool(np.all(np.asarray(x1) > 0.0))),
        "shear-neg": shear_entry(lambda t: -t, "shear-neg",
                                 domain=lambda x1, x2: bool(np.all(np.asarray(x1) > -1.0))),
        "shear-abs": shear_entry(lambda t: abs(t), "shear-abs",
                                 domain=lambda x1, x2: bool(np.all(np.asarray(x1) > 1.0)),
                                 vanishing_viscosity_candidate=False, C1_smooth=False),
    }


def make_entry(name: str, params: dict | None = None) -> CatalogEntry:
    """Entry by name; ``affine`` honors parameters ``a`` and ``c``."""
    params = params or {}
    if name == "affine":
        return affine_graph(float(params.get("a", 0.5)), float(params.get("c", 0.25)))
    entries = catalog()
    if name not in entries:
        raise KeyError(f"unknown catalog entry {name!r}; have {sorted(entries)}")
    return entries[name]
