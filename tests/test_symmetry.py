"""Symmetries of the discrete equation in H^1: Heisenberg dilations and two reflections.

The intrinsic dilation delta_lam(x1, x2) = (lam x1, lam^2 x2) takes an intrinsic
graph u at eps to lam u at lam eps, and each outer frame field gains a factor
1/lam, so L_{lam eps}(lam u) = L_eps(u) / lam.  For lam a power of two every
scaling is exact in floating point, so the discrete residual, the Jacobian
and a Newton solve keep their bits.  The reflections (x1, u) -> (-x1, -u) and
(x2, u) -> (-x2, -u) map solutions to solutions as well; their grid
coordinates round differently, so they hold to rounding only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmingraph import (
    BoundaryData,
    EpsSchedule,
    Frame,
    Grid,
    GridFunction,
    SolverConfig,
    continuation,
    jacobian_assemble,
    residual_div,
    solve_eps,
)

from helpers import bench_grid_n, fan_bump


def dilate_grid(g, lam):
    (a1, b1), (a2, b2) = g.x1_range, g.x2_range
    return Grid((lam * a1, lam * b1), (lam * lam * a2, lam * lam * b2), g.n1, g.n2)


@st.composite
def smooth_problems(draw):
    """A random rectangle, smooth data on it and eps in [1e-3, 1]."""
    n1, n2 = draw(st.integers(3, 24), label="n1"), draw(st.integers(3, 24), label="n2")
    lo1, lo2 = draw(st.floats(-2.0, 2.0), label="x1 lo"), draw(st.floats(-2.0, 2.0), label="x2 lo")
    w1, w2 = draw(st.floats(0.1, 4.0), label="x1 width"), draw(st.floats(0.1, 4.0), label="x2 width")
    g = Grid((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), label="coefficients")
    x1, x2 = g.nodes()
    s1, s2 = (x1 - lo1) / w1, (x2 - lo2) / w2  # the data's shape does not depend on the rectangle
    u = (0.5 * np.sin(np.pi * s1) * s2 + c[0] + c[1] * s1 + c[2] * s2
         + c[3] * np.sin(np.pi * (s1 + c[4])) * np.cos(np.pi * s2 + c[5]))
    eps = 10.0 ** draw(st.floats(-3.0, 0.0), label="log10 eps")
    return g, u, eps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problem=smooth_problems(), k=st.integers(-6, 6))
def test_a_dilation_scales_the_residual_and_the_jacobian_bit_for_bit(problem, k):
    g, u, eps = problem
    lam = 2.0 ** k
    frame = Frame(GridFunction(g, u), eps)
    dilate = Frame(GridFunction(dilate_grid(g, lam), lam * u), lam * eps)
    assert (lam * residual_div(dilate).values).tobytes() == residual_div(frame).values.tobytes()
    J, Jd = jacobian_assemble(frame), jacobian_assemble(dilate)
    for name in ("indptr", "indices"):
        assert getattr(Jd, name).tobytes() == getattr(J, name).tobytes()
    assert (lam * lam * Jd.data).tobytes() == J.data.tobytes()


@pytest.fixture(scope="module")
def fan_bump_solve():
    g = bench_grid_n(33)
    bd = BoundaryData.from_callable(g, fan_bump)
    return g, bd, solve_eps(g, bd, 0.1)


@pytest.mark.parametrize("k", range(-4, 5))
def test_a_dilated_solve_is_the_dilated_solution_bit_for_bit(fan_bump_solve, k):
    # newton_tol is absolute and the residual scales as 1/lam, so it scales too
    g, bd, (u, report) = fan_bump_solve
    lam = 2.0 ** k
    gd = dilate_grid(g, lam)
    ud, report_d = solve_eps(gd, BoundaryData(gd, lam * bd.values), lam * 0.1,
                             SolverConfig(newton_tol=1e-10 / lam))
    assert (lam * u.values).tobytes() == ud.values.tobytes()
    assert report_d.iterations == report.iterations == 4


def counts(run):
    """Newton steps, GMRES iterations and factorizations per eps of a run."""
    return [(r.iterations, r.krylov_iterations, r.factorizations) for r in run.reports]


@pytest.fixture(scope="module")
def fan_bump_continuation():
    g = bench_grid_n(33)
    bd = BoundaryData.from_callable(g, fan_bump)
    return g, bd, continuation(g, bd, EpsSchedule(eps_start=1.0, eps_min=1.0 / 64))


@pytest.mark.parametrize("k", [-4, -1, 1, 4])
def test_a_dilated_continuation_is_the_dilated_run_bit_for_bit(fan_bump_continuation, k):
    # every Newton step, GMRES try on a stale LU and fresh factorization of the
    # dilated run sees the original numbers scaled by powers of two
    g, bd, run = fan_bump_continuation
    lam = 2.0 ** k
    gd = dilate_grid(g, lam)
    dilated = continuation(gd, BoundaryData(gd, lam * bd.values),
                           EpsSchedule(eps_start=lam, eps_min=lam / 64),
                           SolverConfig(newton_tol=1e-10 / lam))
    assert dilated.eps_values == [lam * eps for eps in run.eps_values]
    for u, ud in zip(run.solutions, dilated.solutions, strict=True):
        assert (lam * u.values).tobytes() == ud.values.tobytes()
    assert counts(dilated) == counts(run)
    assert sum(sum(its) for _, its, _ in counts(run)) > 0  # the stale-LU GMRES path is exercised


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=smooth_problems(), axis=st.sampled_from([0, 1]))
def test_a_reflection_of_a_coordinate_and_u_negates_the_reflected_residual(problem, axis):
    g, u, eps = problem
    ranges = [g.x1_range, g.x2_range]
    lo, hi = ranges[axis]
    ranges[axis] = (-hi, -lo)
    mirror = Frame(GridFunction(Grid(*ranges, g.n1, g.n2), -np.flip(u, axis)), eps)
    r = residual_div(Frame(GridFunction(g, u), eps)).values
    r_mirror = residual_div(mirror).values
    assert np.max(np.abs(r_mirror + np.flip(r, axis))) <= 1e-10 * np.max(np.abs(r))
