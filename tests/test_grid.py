"""Grid bookkeeping and nodal field container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmingraph import Grid, GridFunction, GridMismatchError, require_same_grid


def test_spacings_follow_from_ranges():
    g = Grid((0.0, 2.0), (1.0, 2.0), 5, 11)
    assert g.h1 == pytest.approx(0.5)
    assert g.h2 == pytest.approx(0.1)


def test_node_arrays_hit_both_corners():
    g = Grid((0.0, 1.0), (3.0, 5.0), 9, 17)
    X1, X2 = g.nodes()
    assert X1.shape == (9, 17)
    assert X1[0, 0] == 0.0 and X1[-1, -1] == 1.0
    assert X2[0, 0] == 3.0 and X2[-1, -1] == 5.0
    # lattice is the tensor product of the two 1d node sets
    assert np.allclose(X1[:, 0], np.linspace(0, 1, 9))
    assert np.allclose(X2[0, :], np.linspace(3, 5, 17))


@pytest.mark.parametrize("n1,n2", [(2, 33), (33, 2), (1, 1)])
def test_too_few_nodes_rejected(n1, n2):
    with pytest.raises(ValueError):
        Grid((0.0, 1.0), (0.0, 1.0), n1, n2)


def test_degenerate_range_rejected():
    with pytest.raises(ValueError):
        Grid((1.0, 1.0), (0.0, 1.0), 5, 5)


def test_gridfunction_rejects_nonfinite():
    g = Grid((0.0, 1.0), (0.0, 1.0), 3, 3)
    vals = np.zeros((3, 3))
    vals[1, 1] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)


def test_gridfunction_rejects_wrong_shape():
    g = Grid((0.0, 1.0), (0.0, 1.0), 3, 3)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((3, 4)))


def test_sup_and_lip_norms_on_affine():
    g = Grid((0.0, 1.0), (0.0, 1.0), 33, 33)
    u = GridFunction.from_callable(g, lambda a, b: 2.0 * a - 1.0)
    assert u.sup_norm == pytest.approx(1.0)
    # steepest adjacent-node quotient of 2a - 1 is the slope itself
    assert u.lip_norm == pytest.approx(2.0)


def test_interp_exact_for_bilinear_data():
    g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
    u = GridFunction.from_callable(g, lambda a, b: 3.0 + a * b - 2.0 * a)
    for p in [(0.37, 1.61), (0.0, 1.0), (1.0, 2.0), (0.5, 1.5)]:
        expect = 3.0 + p[0] * p[1] - 2.0 * p[0]
        assert u.interp(*p) == pytest.approx(expect, abs=1e-13)


def test_interp_outside_raises():
    g = Grid((0.0, 1.0), (0.0, 1.0), 5, 5)
    u = GridFunction(g, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        u.interp(1.5, 0.5)
    with pytest.raises(ValueError):
        u.interp(0.5, -0.2)


@pytest.mark.parametrize("point", [(np.nan, 0.5), (0.5, np.nan)])
def test_interp_rejects_nan_in_both_branches(point):
    u = GridFunction(Grid((0.0, 1.0), (0.0, 1.0), 5, 5), np.zeros((5, 5)))
    with pytest.raises(ValueError, match="outside grid rectangle"):
        u.interp(*point)
    with pytest.raises(ValueError, match="outside grid rectangle"):
        u.interp(np.array([point[0], 0.5]), np.array([point[1], 0.5]))


def _interp_or_error(u, x1, x2):
    try:
        return u.interp(x1, x2)
    except ValueError as err:
        return str(err)


@st.composite
def grids_and_points(draw):
    """A random rectangular grid, random node values and probe points.

    Points mix the interior, exact node lines (edges and corners included),
    and index offsets within a few multiples of the outside tolerance
    ``1e-12·max(n1, n2)`` of each edge, on both sides of it.
    """
    n1, n2 = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    lo1, lo2 = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    w1, w2 = draw(st.floats(1e-3, 100.0)), draw(st.floats(1e-3, 100.0))
    g = Grid((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = GridFunction(g, rng.normal(size=(n1, n2)) * draw(st.sampled_from([1.0, 1e-8, 1e8])))
    eps = 1e-12 * max(n1, n2)

    def coordinate(lo, hi, h, n):
        kind = draw(st.sampled_from(["inside", "node", "edge", "near-edge"]))
        if kind == "inside":
            return draw(st.floats(lo, hi))
        if kind == "node":
            return lo + draw(st.integers(0, n - 1)) * h
        if kind == "edge":
            return draw(st.sampled_from([lo, hi]))
        f = draw(st.sampled_from([0.0, n - 1.0])) + draw(st.floats(-3.0, 3.0)) * eps
        return lo + f * h

    pts = [(coordinate(lo1, lo1 + w1, g.h1, n1), coordinate(lo2, lo2 + w2, g.h2, n2))
           for _ in range(draw(st.integers(1, 12)))]
    return u, pts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grids_and_points())
def test_scalar_interp_equals_array_interp_bit_for_bit(case):
    u, pts = case
    inside = []
    for x1, x2 in pts:
        scalar = _interp_or_error(u, x1, x2)
        array = _interp_or_error(u, np.array([x1]), np.array([x2]))
        if isinstance(array, str):
            assert scalar == array  # both raise, with the same message
            continue
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == array.tobytes()
        # NumPy scalars and 0-d arrays give the same bits
        assert np.float64(u.interp(np.float64(x1), np.asarray(x2))).tobytes() == array.tobytes()
        inside.append((x1, x2))
    if inside:
        x1s, x2s = np.array(inside).T
        batch = u.interp(x1s, x2s)
        assert batch.tobytes() == np.array([u.interp(a, b) for a, b in inside]).tobytes()


def test_restrict_views_shrink_symmetrically():
    g = Grid((0.0, 1.0), (0.0, 1.0), 9, 9)
    u = GridFunction.from_callable(g, lambda a, b: a + b)
    assert u.restrict(0).shape == (9, 9)
    assert u.restrict(2).shape == (5, 5)
    assert u.restrict(2)[0, 0] == pytest.approx(u.values[2, 2])


def test_d1_d2_exact_on_quadratics():
    # edge stencils included; quadratic is the hardest field they get exactly
    g = Grid((0.0, 1.0), (0.0, 1.0), 17, 17)
    u = GridFunction.from_callable(g, lambda a, b: a**2 + 0.5 * b**2)
    X1, X2 = g.nodes()
    assert np.allclose(u.d1(), 2.0 * X1, atol=1e-12)
    assert np.allclose(u.d2(), X2, atol=1e-12)


def test_require_same_grid_flags_mismatch():
    g1 = Grid((0.0, 1.0), (0.0, 1.0), 5, 5)
    g2 = Grid((0.0, 1.0), (0.0, 1.0), 7, 5)
    a = GridFunction(g1, np.zeros((5, 5)))
    b = GridFunction(g2, np.zeros((7, 5)))
    assert require_same_grid(a, a) == g1
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)
