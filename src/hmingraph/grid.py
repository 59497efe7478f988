"""Uniform tensor-product grids on rectangles and scalar fields living on them.

Conventions used throughout the package:

* a grid covers the closed rectangle ``x1_range x x2_range`` with ``n1 x n2``
  nodes, spacing ``h1 = (x1_hi - x1_lo)/(n1 - 1)`` and likewise ``h2``;
* arrays are indexed ``values[i, j]`` with ``i`` along ``x1`` and ``j`` along
  ``x2`` (``indexing='ij'``);
* first derivatives are second-order accurate: centered in the interior,
  one-sided three-point stencils on the boundary rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "GridMismatchError",
    "require_same_grid",
]


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields that live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on a closed rectangle.

    Attributes
    ----------
    x1_range, x2_range : tuple of float
        Closed coordinate intervals ``(lo, hi)`` with ``lo < hi``, each of
        a positive finite spacing.
    n1, n2 : int
        Node counts per axis, at least 3 so an interior exists.
    """

    x1_range: tuple[float, float]
    x2_range: tuple[float, float]
    n1: int
    n2: int

    def __post_init__(self):
        object.__setattr__(self, "x1_range", (float(self.x1_range[0]), float(self.x1_range[1])))
        object.__setattr__(self, "x2_range", (float(self.x2_range[0]), float(self.x2_range[1])))
        if not (self.x1_range[0] < self.x1_range[1] and self.x2_range[0] < self.x2_range[1]):
            raise ValueError("grid ranges must be non-degenerate intervals (lo < hi)")
        if self.n1 < 3 or self.n2 < 3:
            raise ValueError("need n1 >= 3 and n2 >= 3 for an interior node to exist")
        for name, h in (("x1", self.h1), ("x2", self.h2)):
            if not 0.0 < h < np.inf:  # a range beyond float range, or too short to divide
                raise ValueError(f"{name}: the spacing {h:g} is not a positive finite number")

    @property
    def h1(self) -> float:
        return (self.x1_range[1] - self.x1_range[0]) / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return (self.x2_range[1] - self.x2_range[0]) / (self.n2 - 1)

    @property
    def x1_coords(self) -> np.ndarray:
        return np.linspace(self.x1_range[0], self.x1_range[1], self.n1)

    @property
    def x2_coords(self) -> np.ndarray:
        return np.linspace(self.x2_range[0], self.x2_range[1], self.n2)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``(X1, X2)`` of shape ``(n1, n2)``."""
        return np.meshgrid(self.x1_coords, self.x2_coords, indexing="ij")

    def node_index(self, x1: float, x2: float) -> tuple[int, int]:
        """Indices of the node coinciding with ``(x1, x2)``.

        Raises ``ValueError`` when the point does not sit on a node to within
        1e-9 grid spacings.
        """
        fi = (x1 - self.x1_range[0]) / self.h1
        fj = (x2 - self.x2_range[0]) / self.h2
        # compared in floats: an index too large for an int is outside too
        if not (-0.5 < fi < self.n1 - 0.5 and -0.5 < fj < self.n2 - 0.5):
            raise ValueError(f"point ({x1}, {x2}) outside grid")
        i, j = int(round(fi)), int(round(fj))
        if abs(fi - i) > 1e-9 or abs(fj - j) > 1e-9:
            raise ValueError(f"point ({x1}, {x2}) is not a grid node")
        return i, j

    def interior(self, values: np.ndarray, margin: int) -> np.ndarray:
        """View of nodal ``values`` at least ``margin`` layers from the boundary.

        The one margin rule: ``values[m:n1-m, m:n2-m]``, a ValueError unless
        ``0 <= margin`` and some node remains (``2*margin < min(n1, n2)``).
        """
        if not 0 <= 2 * margin < min(self.n1, self.n2):
            raise ValueError(f"margin {margin} leaves no node of a {self.n1} x {self.n2} grid")
        return values[margin:self.n1 - margin, margin:self.n2 - margin]


@dataclass
class GridFunction:
    """Scalar field sampled at the nodes of a :class:`Grid`.

    Values must be finite at every node; non-finite input is rejected at
    construction so downstream stencils never propagate NaNs silently.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n1, self.grid.n2):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite at every node")

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable) -> "GridFunction":
        """Sample ``f(x1, x2)`` at the grid nodes: one call on the node arrays.

        A result that broadcasts to the grid's shape, such as a constant,
        fills it; ``f`` must accept arrays.
        """
        X1, X2 = grid.nodes()
        return cls(grid, np.broadcast_to(np.asarray(f(X1, X2), dtype=float), X1.shape).copy())

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def lip_norm(self) -> float:
        """Max difference quotient over axis-adjacent node pairs."""
        d1 = np.abs(np.diff(self.values, axis=0)) / self.grid.h1
        d2 = np.abs(np.diff(self.values, axis=1)) / self.grid.h2
        return float(max(d1.max(initial=0.0), d2.max(initial=0.0)))

    def d1(self) -> np.ndarray:
        """First partial along x1, second-order accurate (one-sided at the boundary)."""
        return np.gradient(self.values, self.grid.h1, axis=0, edge_order=2)

    def d2(self) -> np.ndarray:
        """First partial along x2, second-order accurate (one-sided at the boundary)."""
        return np.gradient(self.values, self.grid.h2, axis=1, edge_order=2)

    def bilinear(self) -> Callable[[float, float], float]:
        """Bilinear interpolation as a function of two Python floats.

        The grid's constants and ``values.item`` are bound once, so a
        pointwise loop such as a leaf march builds it once and calls it per
        point.  A point outside the rectangle by more than
        ``1e-12·max(n1, n2)`` spacings, or a NaN coordinate, raises
        ``ValueError`` (exact edge points are fine); a point within that
        slack reads as the nearest edge point.
        """
        g = self.grid
        eps = 1e-12 * max(g.n1, g.n2)
        lo1, lo2, h1, h2 = g.x1_range[0], g.x2_range[0], g.h1, g.h2
        top1, top2 = g.n1 - 1 + eps, g.n2 - 1 + eps  # the slack bounds of the index
        end1, end2 = g.n1 - 1.0, g.n2 - 1.0
        last1, last2 = g.n1 - 2, g.n2 - 2
        v = self.values.item

        def at(x1: float, x2: float) -> float:
            f1 = (x1 - lo1) / h1
            f2 = (x2 - lo2) / h2
            if not (-eps <= f1 <= top1 and -eps <= f2 <= top2):  # NaN coordinates fail too
                raise ValueError("interpolation point outside grid rectangle")
            # clamp onto [0, end]; a comparison keeps -0.0
            f1 = 0.0 if f1 < 0.0 else end1 if f1 > end1 else f1
            f2 = 0.0 if f2 < 0.0 else end2 if f2 > end2 else f2
            i, j = int(f1), int(f2)
            i, j = last1 if i > last1 else i, last2 if j > last2 else j
            t = f1 - i
            s = f2 - j
            return (
                v(i, j) * (1 - t) * (1 - s)
                + v(i + 1, j) * t * (1 - s)
                + v(i, j + 1) * (1 - t) * s
                + v(i + 1, j + 1) * t * s
            )

        return at

    def interp(self, x1: float, x2: float) -> float:
        """Bilinear interpolation at one point: :meth:`bilinear` called once.

        NumPy scalars and 0-d arrays are read as Python floats.
        """
        return self.bilinear()(float(x1), float(x2))

    def restrict(self, margin: int) -> np.ndarray:
        """View of the values at least ``margin`` layers from the boundary
        (:meth:`Grid.interior`)."""
        return self.grid.interior(self.values, margin)


def require_same_grid(*fns) -> Grid:
    """Check all arguments share one grid; return it."""
    g0 = fns[0].grid
    for f in fns[1:]:
        if f.grid != g0:
            raise GridMismatchError("fields live on different grids")
    return g0
