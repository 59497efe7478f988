"""Closed-form graph catalog: exact solutions and classical counter-examples.

Three families.  Affine graphs ``a*x1 + c`` are the manufactured exact
solutions (constant graph-direction derivative, discretely exact).  The
piecewise-rational graph ``x2 / (x1 - sign(x2))`` on ``x1 > 1`` has vanishing
graph-direction derivative off the line ``x2 = 0`` yet a jump in its vertical
Euclidean derivative across it, the standard witness that minimality alone
does not buy first-order smoothness.  Shear graphs solve ``x2 = x1*t - g(t)``
for ``t`` pointwise, recovering both previous families for affine or
absolute-value ``g``.

Each entry's ``flags`` is the ``flags`` object of ``example.json``:
``minimal_H0`` (stationarity of the limit functional),
``vanishing_viscosity_candidate`` (plausible limit of the regularized
solves), ``C1_smooth``, and ``leafwise_affine`` (the restriction of u to each
leaf of its own direction field is affine).  Every entry builds its own dict.
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
    """The shear equation has no root, or several, in the bracket, or the Illinois
    polish of its root meets a NaN residual or takes 100 steps unconverged."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    eval: Callable
    flags: dict


def pauls_graph(x1, x2):
    """``x2 / (x1 - sign(x2))`` with ``sign(0) := +1``, valid for ``x1 > 1``."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 <= 1.0):
        raise DomainError("the piecewise-rational graph needs x1 > 1")
    s = np.where(x2 >= 0.0, 1.0, -1.0)
    out = x2 / (x1 - s)
    return float(out) if out.ndim == 0 else out


# the flags of a smooth vanishing-viscosity limit; each entry copies them
_SMOOTH_FLAGS = {"minimal_H0": True, "vanishing_viscosity_candidate": True,
                 "C1_smooth": True, "leafwise_affine": True}


def affine_graph(a: float, c: float) -> CatalogEntry:
    """Exact solution family ``u = a*x1 + c`` (any epsilon, any rectangle)."""
    return CatalogEntry(
        name=f"affine(a={a:g}, c={c:g})",
        eval=lambda x1, x2: a * np.asarray(x1, dtype=float) + c + 0.0 * np.asarray(x2, dtype=float),
        flags=dict(_SMOOTH_FLAGS),
    )


def _polish(phi: Callable, a: float, b: float, fa: float, fb: float) -> float:
    """Root of ``phi`` in the cell ``a < b`` from its end values ``fa``, ``fb``
    (not zero, of opposite signs): regula falsi with the Illinois step
    (Dowell & Jarratt, BIT 11, 1971), which halves the value of an end kept
    twice in a row.  A secant point outside the open cell gives way to the
    midpoint, and one within ``tol/2`` of an end moves ``tol/2`` from it, as
    in Brent's method, so that a flat end cannot stall the polish.  It stops
    at an exact zero, or once ``b - a <= tol = 1e-15 + 8.9e-16*max(|a|, |b|)``,
    and returns the end whose evaluated ``|phi|`` is smaller.  A NaN ``phi``,
    or 100 steps without converging, raise :class:`ShearRootError`.
    """
    ga, gb, kept = fa, fb, None  # the secant's end values; the end the last step kept
    for _ in range(100):
        tol = 1e-15 + 8.9e-16 * max(abs(a), abs(b))
        if b - a <= tol:
            return a if abs(fa) < abs(fb) else b
        # the secant point, stepped from the end nearer the root for the smaller rounding
        t = a - ga * (b - a) / (gb - ga) if abs(ga) < abs(gb) else b - gb * (b - a) / (gb - ga)
        # the midpoint if it leaves the cell, else at least tol/2 from either end
        t = a + 0.5 * (b - a) if not a < t < b else min(max(t, a + tol / 2), b - tol / 2)
        ft = float(phi(t))
        if math.isnan(ft):
            raise ShearRootError(f"the shear residual is NaN at t={t!r}")
        if ft == 0.0:
            return t
        if (ft < 0.0) == (fa < 0.0):
            gb = gb / 2 if kept == "b" else gb
            a, fa, ga, kept = t, ft, ft, "b"
        else:
            ga = ga / 2 if kept == "a" else ga
            b, fb, gb, kept = t, ft, ft, "a"
    raise ShearRootError(f"root polishing did not converge in 100 iterations (last t={t!r})")


# the 401 points of the root scan over the bracket [-50, 50], shared read-only
_SCAN_POINTS = np.linspace(-50.0, 50.0, 401)
_SCAN_POINTS.flags.writeable = False


def shear_graph(g: Callable, x1: float, x2: float) -> float:
    """Solve ``x2 = x1*t - g(t)`` for ``t``; the root is the graph height.

    A 401-point scan over the bracket [-50, 50] locates sign changes of the
    residual; exactly one must exist.  The root is polished in its scan cell
    by regula falsi with the Illinois step, seeded with the scan's values at
    the cell's ends, to within 1e-15 + 8.9e-16*|t|, and checked against the
    1e-12 residual postcondition; a NaN residual or a polish that does not
    converge in 100 steps raises :class:`ShearRootError` too.  ``g`` must act
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
        root = _polish(phi, float(ts[k]), float(ts[k + 1]), float(vals[k]), float(vals[k + 1]))
    if abs(x2 - x1 * root + g(root)) > 1e-12:
        raise ShearRootError(f"root polishing failed at ({x1:g}, {x2:g})")
    return float(root)


def shear_entry(g: Callable, name: str, **flags) -> CatalogEntry:
    """Wrap a shear profile ``g`` as a grid-evaluable catalog entry.

    Its flags are those of a smooth limit, overridden by ``flags``; a key
    that is not one of the four flags is a TypeError.

    ``g`` must act elementwise on a NumPy array, as :func:`shear_graph`
    requires; the entry still solves one node at a time.
    """
    if not flags.keys() <= _SMOOTH_FLAGS.keys():
        raise TypeError(f"unknown catalog flags {sorted(flags.keys() - _SMOOTH_FLAGS.keys())}")
    ev = np.vectorize(lambda a, b: shear_graph(g, a, b), otypes=[float])
    return CatalogEntry(
        name=name,
        eval=lambda x1, x2: ev(x1, x2) if np.ndim(x1) or np.ndim(x2) else float(ev(x1, x2)),
        flags={**_SMOOTH_FLAGS, **flags},
    )


def _pauls_entry() -> CatalogEntry:
    return CatalogEntry(
        name="pauls",
        eval=pauls_graph,
        flags={"minimal_H0": True, "vanishing_viscosity_candidate": False,
               "C1_smooth": False, "leafwise_affine": True},
    )


def catalog() -> dict[str, CatalogEntry]:
    """All named entries, keyed for CLI enumeration."""
    return {
        "affine": affine_graph(0.5, 0.25),
        "pauls": _pauls_entry(),
        "shear-zero": shear_entry(lambda t: 0.0, "shear-zero"),
        "shear-neg": shear_entry(lambda t: -t, "shear-neg"),
        "shear-abs": shear_entry(lambda t: abs(t), "shear-abs",
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
