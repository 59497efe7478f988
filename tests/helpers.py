"""Plain helpers the tests share: the benchmark fields, sampling and grids."""

from hmingraph import BoundaryData, Grid, GridFunction


def fan(x1, x2):
    return x2 / (x1 + 2.0)


def fan_bump(x1, x2):
    # fan plus a boundary-compatible bump; smooth, non-affine, edges stay
    # non-characteristic on [0,1]x[1,2]
    return fan(x1, x2) + 0.25 * x1 * (1.0 - x1)


def sample(grid, f) -> GridFunction:
    return GridFunction.from_callable(grid, f)


def boundary(grid, f) -> BoundaryData:
    return BoundaryData.from_callable(grid, f)


def bench_grid_n(n: int) -> Grid:
    return Grid((0.0, 1.0), (1.0, 2.0), n, n)
