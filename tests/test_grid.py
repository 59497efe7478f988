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


@pytest.mark.parametrize("x1, x2, message", [
    ((0.0, 1.0), (-1e308, 1e308), "x2: the spacing inf is not a positive finite number"),
    ((0.0, 5e-324), (1.0, 2.0), "x1: the spacing 0 is not a positive finite number"),
], ids=["infinite", "zero"])
def test_a_spacing_that_is_not_a_positive_finite_number_is_rejected(x1, x2, message):
    with pytest.raises(ValueError, match=message):
        Grid(x1, x2, 17, 17)
    Grid((-1e300, 1e300), (0.0, 1e-320), 17, 17)  # wide and narrow, but each spacing is fine


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


def test_from_callable_makes_one_array_call_and_broadcasts_a_constant():
    g = Grid((0.0, 1.0), (0.0, 1.0), 4, 6)
    calls = []
    u = GridFunction.from_callable(g, lambda a, b: calls.append(a.shape) or 2.5)
    assert calls == [(4, 6)]
    assert u.values.tobytes() == np.full((4, 6), 2.5).tobytes()
    u.values[0, 0] = 1.0  # its own writable array
    with pytest.raises(TypeError):  # a callable that takes scalars only
        GridFunction.from_callable(g, lambda a, b: float(a) + b)


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


def _min_max_scalar_interp(u, x1, x2):
    """One-point interpolation as written before the bound evaluator: the
    grid's constants read per call and the clamps taken by min and max."""
    g = u.grid
    eps = 1e-12 * max(g.n1, g.n2)
    f1 = (float(x1) - g.x1_range[0]) / g.h1
    f2 = (float(x2) - g.x2_range[0]) / g.h2
    if not (-eps <= f1 <= g.n1 - 1 + eps and -eps <= f2 <= g.n2 - 1 + eps):
        return "interpolation point outside grid rectangle"
    f1 = min(max(f1, 0.0), g.n1 - 1.0)
    f2 = min(max(f2, 0.0), g.n2 - 1.0)
    i = min(int(f1), g.n1 - 2)
    j = min(int(f2), g.n2 - 2)
    t = f1 - i
    s = f2 - j
    v = u.values.item
    return (v(i, j) * (1 - t) * (1 - s) + v(i + 1, j) * t * (1 - s)
            + v(i, j + 1) * (1 - t) * s + v(i + 1, j + 1) * t * s)


def _bits_or_error(f, x1, x2):
    """The bytes of ``f(x1, x2)``, or the message of its ValueError, or the
    message that ``f`` returns in place of raising it."""
    try:
        value = f(x1, x2)
    except ValueError as err:
        return str(err)
    return value if isinstance(value, str) else np.float64(value).tobytes()


# A corner cell whose interpolant at (-0.0, -0.0) is -0.0 and at (0.0, -0.0)
# is 0.0: a clamp that turned an index of -0.0 into 0.0 would show.
_SIGNED_ZERO_CELL = [[-0.0, 1.0], [1.0, -1.0]]

# On the unit square with 5 x 5 nodes the slack is 5e-12 in index units, and
# x / 0.25 is exact: 0.5e-12 lies inside it, 2e-12 (8e-12 in index units) beyond.
_SLACK_POINTS = {
    "nan x1": (np.nan, 0.5), "nan x2": (0.5, np.nan),
    "beyond left": (-2e-12, 0.5), "beyond right": (1.0 + 2e-12, 0.5),
    "beyond bottom": (0.5, -2e-12), "beyond top": (0.5, 1.0 + 2e-12),
    "inside left": (-0.5e-12, 0.3), "inside right": (1.0 + 0.5e-12, 0.3),
    "inside bottom": (0.7, -0.5e-12), "inside top": (0.7, 1.0 + 0.5e-12),
    "inside corner": (-0.5e-12, 1.0 + 0.5e-12), "negative zero": (-0.0, -0.0),
}


@pytest.mark.parametrize("where", sorted(_SLACK_POINTS))
def test_bound_evaluator_rejects_and_clamps_as_interp_does(where):
    x1, x2 = _SLACK_POINTS[where]
    g = Grid((0.0, 1.0), (0.0, 1.0), 5, 5)
    values = np.random.default_rng(3).standard_normal((5, 5))
    values[:2, :2] = _SIGNED_ZERO_CELL
    u = GridFunction(g, values)
    got = _bits_or_error(u.bilinear(), x1, x2)
    assert got == _bits_or_error(u.interp, x1, x2)
    assert got == _bits_or_error(lambda a, b: _min_max_scalar_interp(u, a, b), x1, x2)
    if where.startswith(("nan", "beyond")):
        assert got == "interpolation point outside grid rectangle"
    elif where.startswith("inside"):  # the same bits as the nearest edge point
        edge = (min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0))
        assert got == np.float64(u.bilinear()(*edge)).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=grids_and_points(), signed_zero=st.booleans())
def test_bound_evaluator_equals_the_min_max_clamped_branch_bit_for_bit(case, signed_zero):
    u, pts = case
    if signed_zero:  # a grid that starts at 0.0, probed at -0.0
        g = Grid((0.0, u.grid.x1_range[1] - u.grid.x1_range[0]), (0.0, 1.0), u.grid.n1, u.grid.n2)
        values = u.values.copy()
        values[:2, :2] = _SIGNED_ZERO_CELL
        u = GridFunction(g, values)
        pts = [(-0.0, -0.0), (-0.0, 0.5), (0.0, -0.0)]
    at = u.bilinear()
    for x1, x2 in pts + [(np.nan, pts[0][1]), (pts[0][0], np.nan)]:
        want = _bits_or_error(lambda a, b: _min_max_scalar_interp(u, a, b), x1, x2)
        assert _bits_or_error(at, x1, x2) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grids_and_points())
def test_interp_reads_numpy_scalars_as_floats_bit_for_bit(case):
    u, pts = case
    at = u.bilinear()
    for x1, x2 in pts:
        want = _bits_or_error(at, x1, x2)
        assert _bits_or_error(u.interp, x1, x2) == want
        # NumPy scalars and 0-d arrays give the same bits, or the same error
        assert _bits_or_error(u.interp, np.float64(x1), np.asarray(x2)) == want
        assert _bits_or_error(u.interp, np.asarray(x1), np.float64(x2)) == want


def test_restrict_views_shrink_symmetrically():
    g = Grid((0.0, 1.0), (0.0, 1.0), 9, 9)
    u = GridFunction.from_callable(g, lambda a, b: a + b)
    assert u.restrict(0).shape == (9, 9)
    assert u.restrict(2).shape == (5, 5)
    assert u.restrict(2)[0, 0] == pytest.approx(u.values[2, 2])


def test_a_margin_that_leaves_no_node_is_rejected():
    # restrict(-1) and restrict(20) used to return empty arrays
    g = Grid((0.0, 1.0), (0.0, 2.0), 33, 35)
    u = GridFunction.from_callable(g, lambda a, b: a * b)
    for margin in (-1, 17, 20):
        with pytest.raises(ValueError, match=f"margin {margin} leaves no node of a 33 x 35 grid"):
            u.restrict(margin)
        with pytest.raises(ValueError, match="leaves no node"):
            g.interior(u.values, margin)
    assert u.restrict(16).shape == (1, 3)
    assert u.restrict(16)[0, 1] == u.values[16, 17]


def test_restrict_is_a_view_of_the_values_with_their_bits():
    g = Grid((0.0, 1.0), (0.0, 1.0), 9, 7)
    u = GridFunction.from_callable(g, lambda a, b: np.sin(3 * a) + b * b)
    for margin in (0, 1, 3):
        inner = u.restrict(margin)
        assert np.shares_memory(inner, u.values)
        assert inner.tobytes() == u.values[margin:9 - margin, margin:7 - margin].tobytes()
    assert u.restrict(1).tobytes() == u.values[1:-1, 1:-1].tobytes()


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


def test_node_index_of_a_point_too_far_out_for_an_int_is_outside():
    # (1e308 - 0) / (1/16) overflows to inf, which does not round to an int
    g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
    for x1, x2 in ((1e308, 1.5), (0.5, -1e308), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="outside grid"):
            g.node_index(x1, x2)
    assert g.node_index(0.5, 1.5) == (8, 8)
