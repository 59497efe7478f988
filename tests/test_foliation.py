"""Leaf tracing along the graph direction, fits, and domain coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hmingraph import (
    Grid,
    GridFunction,
    LeafTraceError,
    coverage_fraction,
    fit_leaf,
    foliation_cover,
    leaf_table,
    pauls_graph,
    trace_leaf,
)
from hmingraph.foliation import Leaf, _march


def field(f, rect=((0.0, 1.0), (0.0, 1.0)), n=33):
    g = Grid(rect[0], rect[1], n, n)
    return GridFunction.from_callable(g, f)


def test_constant_slope_gives_straight_leaf():
    u = field(lambda a, b: 0.0 * a + 0.25)
    leaf = trace_leaf(u, (0.1, 0.3), (0.0, 0.8))
    assert np.allclose(leaf.points[:, 1], 0.3 + 0.25 * leaf.t_samples, atol=1e-12)


def test_first_component_is_time_exactly():
    u = field(lambda a, b: np.sin(a) * b)
    leaf = trace_leaf(u, (0.4, 0.5), (-0.3, 0.5))
    assert np.array_equal(leaf.points[:, 0], 0.4 + leaf.t_samples)


def test_affine_slope_gives_exact_quadratic_leaf():
    a, c = 0.6, -0.1
    u = field(lambda x, y: a * x + c, rect=((0.0, 1.0), (-0.5, 0.7)))
    start = (0.2, 0.1)
    leaf = trace_leaf(u, start, (0.0, 0.7))
    t = leaf.t_samples
    expect = start[1] + (a * start[0] + c) * t + a * t * t / 2.0
    assert np.allclose(leaf.points[:, 1], expect, atol=1e-13)


def test_leafwise_constant_graph_traces_straight_lines():
    g = Grid((2.0, 4.0), (0.2, 1.2), 129, 129)
    X1, X2 = g.nodes()
    u = GridFunction(g, pauls_graph(X1, X2))
    leaf = trace_leaf(u, (2.5, 0.5), (0.0, 1.2))
    fit = fit_leaf(leaf)
    # bilinear interpolation of x2/x1 leaves ~1e-6 wiggle against slope 1/3
    assert fit["c3"] <= 1e-5
    t = leaf.t_samples
    cubic = np.polynomial.polynomial.polyfit(t - 0.5 * (t[0] + t[-1]), leaf.points[:, 1], 3)
    assert abs(cubic[2]) <= 1e-5  # straight, not merely quadratic
    assert fit["u_quad_coefficient"] <= 1e-5
    spread = np.max(leaf.u_values) - np.min(leaf.u_values)
    assert spread <= 1e-4


def test_integrator_is_fourth_order():
    # bilinear interpolation is exact for x1*x2, so the step error is pure
    # integrator; halving dt against a dt/8 reference shrinks it ~16x
    u = field(lambda a, b: a * b, rect=((0.0, 2.0), (0.5, 2.0)), n=65)
    start, span = (0.2, 0.8), (0.0, 1.0)
    ref = trace_leaf(u, start, span, dt=0.0125 / 8).points[-1, 1]
    e1 = abs(trace_leaf(u, start, span, dt=0.025).points[-1, 1] - ref)
    e2 = abs(trace_leaf(u, start, span, dt=0.0125).points[-1, 1] - ref)
    assert 8.0 <= e1 / e2 <= 40.0


def test_fit_of_affine_leaf_is_clean():
    u = field(lambda x, y: 0.5 * x + 0.1, rect=((0.0, 1.0), (-0.5, 1.0)))
    fit = fit_leaf(trace_leaf(u, (0.1, 0.0), (0.0, 0.8)))
    assert sorted(fit) == ["c3", "gamma2_quad_rel_residual", "u_quad_coefficient"]
    assert fit["c3"] <= 1e-10
    assert fit["gamma2_quad_rel_residual"] <= 1e-10


def test_lie_derivatives_of_affine_leaf():
    a = 0.5
    u = field(lambda x, y: a * x + 0.1, rect=((0.0, 1.0), (-0.5, 1.0)))
    leaf = trace_leaf(u, (0.1, 0.0), (0.0, 0.8))
    firsts, seconds = leaf_table(leaf)[1:-1, 4:].T
    assert np.allclose(firsts, a, atol=1e-9)
    assert np.allclose(seconds, 0.0, atol=1e-7)


def test_zero_field_cover_is_horizontal_lines():
    u = field(lambda a, b: 0.0 * a)
    leaves = foliation_cover(u, 0.25)
    assert leaves
    for leaf in leaves:
        assert np.allclose(leaf.points[:, 1], leaf.points[0, 1], atol=1e-14)


def test_cover_reaches_nearly_every_interior_node():
    u = field(lambda a, b: 0.3 * a + 0.1 * b - 0.2)
    h = u.grid.h1
    leaves = foliation_cover(u, h)
    assert coverage_fraction(u, leaves) >= 0.99


def kdtree_coverage(u, leaves):
    """Reference: the nearest-sample distance of every interior node, within one cell."""
    g = u.grid
    radius = max(g.h1, g.h2)
    if not leaves:
        return 0.0
    samples = np.concatenate([leaf.points for leaf in leaves])
    x1, x2 = g.nodes()
    nodes = np.column_stack([x1[1:-1, 1:-1].ravel(), x2[1:-1, 1:-1].ravel()])
    dist, _ = cKDTree(samples).query(nodes, k=1)
    return float(np.mean(dist <= radius))


def sample_leaf(points):
    k = len(points)
    return Leaf(start=(0.0, 0.0), t_samples=np.zeros(k), points=np.asarray(points, dtype=float),
                u_values=np.zeros(k))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 24), st.integers(3, 24), st.floats(-2.0, 1.0), st.floats(0.1, 3.0),
       st.floats(-2.0, 1.0), st.floats(0.1, 3.0), st.integers(0, 2 ** 32 - 1))
def test_coverage_matches_a_kdtree_bit_for_bit(n1, n2, lo1, w1, lo2, w2, seed):
    # rectangular cells, samples at exactly the radius (one cell) from a node
    # along a random direction or an axis, and samples anywhere (off the grid too)
    g = Grid((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
    u = GridFunction(g, np.zeros((n1, n2)))
    r = max(g.h1, g.h2)
    rng = np.random.default_rng(seed)
    x1, x2 = g.nodes()
    k = 12
    i, j = rng.integers(0, n1, k), rng.integers(0, n2, k)
    angle = rng.uniform(0.0, 2.0 * np.pi, k)
    on_circle = np.column_stack([x1[i, j] + r * np.cos(angle), x2[i, j] + r * np.sin(angle)])
    on_axis = np.column_stack([x1[i, j], x2[i, j] + r * np.sign(np.cos(angle))])
    anywhere = rng.uniform(-5.0, 5.0, (k, 2))
    leaves = [sample_leaf(on_circle), sample_leaf(on_axis), sample_leaf(anywhere)]
    for subset in (leaves, leaves[:1], leaves[1:2], leaves[2:]):
        assert coverage_fraction(u, subset) == kdtree_coverage(u, subset)


def test_coverage_of_a_traced_cover_matches_a_kdtree():
    u = field(lambda a, b: np.sin(2 * a) * 0.4 + 0.2 * b, rect=((0.0, 1.0), (0.0, 2.0)), n=41)
    leaves = foliation_cover(u, 0.05)
    assert coverage_fraction(u, leaves) == kdtree_coverage(u, leaves)
    assert coverage_fraction(u, []) == 0.0


def _five_call_march(u, start, dt, t_max, sign):
    """RK4 march with its own k1 per step and a separate exit test; u at
    each new sample point ``s1 + t`` is read once more."""
    s1, s2 = start
    samples = []
    t, y = 0.0, s2
    h = sign * dt
    for _ in range(int(np.floor(t_max / dt + 1e-12))):
        try:
            k1 = u.interp(s1 + t, y)
            k2 = u.interp(s1 + t + h / 2, y + h * k1 / 2)
            k3 = u.interp(s1 + t + h / 2, y + h * k2 / 2)
            k4 = u.interp(s1 + t + h, y + h * k3)
            y_next = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            u.interp(s1 + t + h, y_next)
            u_next = u.interp(s1 + (t + h), y_next)
        except ValueError:
            break
        t, y = t + h, y_next
        samples.append((t, y, u_next))
    return samples


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_march_reuses_the_exit_slope_bit_for_bit(data):
    # a bilinear field whose sign and size send the march out through the
    # drawn edge (or let it run out of time), on a random rectangle
    edge = data.draw(st.sampled_from(["left", "right", "bottom", "top", None]), label="edge")
    n1, n2 = data.draw(st.integers(3, 40), label="n1"), data.draw(st.integers(3, 40), label="n2")
    lo1, lo2 = data.draw(st.floats(-2.0, 2.0), label="lo1"), data.draw(st.floats(-2.0, 2.0), label="lo2")
    w1, w2 = data.draw(st.floats(0.1, 3.0), label="w1"), data.draw(st.floats(0.1, 3.0), label="w2")
    g = Grid((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
    sign = {"left": -1, "right": +1}.get(edge) or data.draw(st.sampled_from([-1, 1]), label="sign")
    if edge in ("left", "right"):
        base = data.draw(st.floats(-0.2, 0.2), label="base") * w2 / w1
    elif edge in ("bottom", "top"):
        base = (1 if edge == "top" else -1) * sign * data.draw(st.floats(2.0, 20.0), label="slope") * w2 / w1
    else:
        base = data.draw(st.floats(-3.0, 3.0), label="base")
    c = [data.draw(st.floats(-0.1, 0.1), label=f"c{k}") for k in range(3)]
    u = GridFunction.from_callable(g, lambda a, b: base * (
        1.0 + c[0] * (a - lo1) / w1 + c[1] * (b - lo2) / w2 + c[2] * (a - lo1) * (b - lo2) / (w1 * w2)))
    f1 = data.draw(st.floats(0.4, 0.6) if edge in ("bottom", "top") else st.floats(0.0, 1.0),
                   label="start x1")
    f2 = data.draw(st.floats(0.35, 0.65) if edge else st.floats(0.0, 1.0), label="start x2")
    start = (lo1 + f1 * w1, lo2 + f2 * w2)
    dt = data.draw(st.floats(0.003, 0.1), label="dt cells") * w1
    t_max = 2.0 * w1 if edge else data.draw(st.floats(0.0, 2.0), label="t_max") * w1
    samples = _march(u.bilinear(), start, u.interp(start[0] + 0.0, start[1]), dt, t_max, sign)
    assert samples == _five_call_march(u, start, dt, t_max, sign)
    if edge and samples:
        # the march stopped within one step of the drawn edge
        slope = max(abs(v) for v in u.values.ravel())
        t, y, _ = samples[-1]
        last = {"left": start[0] + t - lo1, "right": lo1 + w1 - start[0] - t,
                "bottom": y - lo2, "top": lo2 + w2 - y}[edge]
        reach = dt if edge in ("left", "right") else dt * slope
        assert -1e-9 <= last <= 1.01 * reach


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_leaf_u_values_are_interp_at_its_samples_bit_for_bit(data):
    n1, n2 = data.draw(st.integers(3, 30), label="n1"), data.draw(st.integers(3, 30), label="n2")
    lo1 = data.draw(st.sampled_from([0.0, -1.5, 2.25]), label="lo1")
    lo2 = data.draw(st.floats(-2.0, 2.0), label="lo2")
    w1, w2 = data.draw(st.floats(0.1, 3.0), label="w1"), data.draw(st.floats(0.1, 3.0), label="w2")
    g = Grid((lo1, lo1 + w1), (lo2, lo2 + w2), n1, n2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="rng"))
    u = GridFunction(g, rng.normal(size=(n1, n2)) * data.draw(st.sampled_from([0.1, 1.0, 10.0])))
    # a seed at -0.0 on a grid that starts at 0.0 is its sample point 0.0
    f1 = data.draw(st.floats(0.0, 1.0), label="start x1")
    s1 = -0.0 if lo1 == 0.0 and f1 < 0.1 else lo1 + f1 * w1
    start = (s1, lo2 + data.draw(st.floats(0.0, 1.0), label="start x2") * w2)
    t_span = (-data.draw(st.floats(0.0, 2.0), label="back") * w1,
              data.draw(st.floats(0.0, 2.0), label="forward") * w1)
    dt = data.draw(st.floats(0.01, 0.5), label="dt cells") * g.h1
    try:
        leaf = trace_leaf(u, start, t_span, dt)
    except LeafTraceError as err:
        assert "zero-length" in str(err) or "straddle" in str(err)
        return
    assert leaf.points[:, 0].tobytes() == (s1 + leaf.t_samples).tobytes()
    want = [u.interp(a, b) for a, b in leaf.points]
    assert leaf.u_values.tobytes() == np.array(want).tobytes()


def test_seed_at_negative_zero_reads_u_at_its_sample_point():
    # a corner cell whose interpolant at (-0.0, -0.0) is -0.0 and at (0.0, -0.0) is 0.0
    values = np.random.default_rng(3).standard_normal((5, 5))
    values[:2, :2] = [[-0.0, 1.0], [1.0, -1.0]]
    u = GridFunction(Grid((0.0, 1.0), (0.0, 1.0), 5, 5), values)
    leaf = trace_leaf(u, (-0.0, -0.0), (0.0, 0.5))
    assert np.signbit(leaf.start).all()  # the seed as given
    k = int(np.flatnonzero(leaf.t_samples == 0.0)[0])
    assert leaf.points[k].tobytes() == np.array([0.0, -0.0]).tobytes()
    assert leaf.u_values[k].tobytes() == np.float64(u.interp(0.0, -0.0)).tobytes()
    assert not np.signbit(leaf.u_values[k])


@pytest.mark.parametrize("start", [(-2e-12, 0.5), (1.0 + 2e-12, 0.5), (0.5, -2e-12),
                                   (0.5, 1.0 + 2e-12), (np.nan, 0.5)])
def test_seed_beyond_the_slack_raises(start):
    # 5 x 5 nodes on the unit square: the slack is 5e-12 index units, 1.25e-12 in x,
    # so seeds 2e-12 outside lie beyond it; the nearest points inside trace
    u = GridFunction(Grid((0.0, 1.0), (0.0, 1.0), 5, 5), np.full((5, 5), 0.25))
    with pytest.raises(LeafTraceError, match="outside grid rectangle"):
        trace_leaf(u, start, (0.0, 0.5))
    inside = tuple(0.5 if np.isnan(c) else min(max(c, 0.0), 1.0) for c in start)
    assert len(trace_leaf(u, inside, (-0.5, 0.5))) > 1


def test_leaves_never_cross():
    u = field(lambda a, b: np.sin(2 * a) * 0.4 + 0.2 * b)
    leaves = foliation_cover(u, 0.1)
    # sample pairs on their shared time range; order in gamma2 must persist
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            ti, tj = leaves[i].t_samples, leaves[j].t_samples
            if leaves[i].start[0] != leaves[j].start[0]:
                continue
            lo = max(ti[0], tj[0])
            hi = min(ti[-1], tj[-1])
            if hi <= lo:
                continue
            ts = np.linspace(lo, hi, 16)
            yi = np.interp(ts, ti, leaves[i].points[:, 1])
            yj = np.interp(ts, tj, leaves[j].points[:, 1])
            d = yi - yj
            assert np.all(d > -1e-9) or np.all(d < 1e-9)


def test_seed_outside_grid_raises():
    u = field(lambda a, b: 0.0 * a)
    with pytest.raises(LeafTraceError):
        trace_leaf(u, (1.5, 0.5), (0.0, 0.5))


def test_outflow_seed_gives_zero_length_error():
    u = field(lambda a, b: 0.0 * a + 0.5)
    with pytest.raises(LeafTraceError, match="zero-length"):
        trace_leaf(u, (1.0, 0.5), (0.0, 0.5))


def test_fit_requires_enough_samples():
    u = field(lambda a, b: 0.0 * a)
    leaf = trace_leaf(u, (0.5, 0.5), (0.0, 0.5), dt=0.2)
    assert len(leaf) < 8
    with pytest.raises(ValueError):
        fit_leaf(leaf)


def test_lie_derivatives_require_enough_samples():
    u = field(lambda a, b: 0.0 * a)
    leaf = trace_leaf(u, (0.5, 0.5), (0.0, 0.5), dt=0.25)
    assert len(leaf) < 5
    assert np.isnan(leaf_table(leaf)[:, 4:]).all()


def test_leaf_table_layout():
    u = field(lambda x, y: 0.5 * x + 0.1, rect=((0.0, 1.0), (-0.5, 1.0)))
    leaf = trace_leaf(u, (0.1, 0.0), (0.0, 0.8))
    tab = leaf_table(leaf)
    assert tab.shape == (len(leaf), 6)
    assert np.isnan(tab[0, 4]) and np.isnan(tab[-1, 5])
    inner = tab[1:-1, 4]
    assert np.allclose(inner, 0.5, atol=1e-9)
    assert np.array_equal(tab[:, 0], leaf.t_samples)


def test_leaf_table_matches_the_per_sample_loop():
    from helpers import fan_bump

    u = field(fan_bump, rect=((0.0, 1.0), (1.0, 2.0)), n=65)
    leaf = trace_leaf(u, (0.0, 1.4), (0.0, 1.0))
    t, w = leaf.t_samples, leaf.u_values
    n = len(leaf)
    # the scalar loop and argmin placement the table used to be built with
    first, second = np.full(n, np.nan), np.full(n, np.nan)
    for i in range(1, n - 1):
        dp, dm = t[i + 1] - t[i], t[i] - t[i - 1]
        a = (w[i + 1] - w[i - 1]) / (dp + dm)
        b = 2.0 * ((w[i + 1] - w[i]) / dp - (w[i] - w[i - 1]) / dm) / (dp + dm)
        k = int(np.argmin(np.abs(t - t[i])))
        first[k], second[k] = a, b
    old = np.column_stack([t, leaf.points, w, first, second])
    new = leaf_table(leaf)
    assert n > 20 and new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64))  # NaNs included


@pytest.mark.parametrize("spacing", [1e-300, 1.0 / 64])
def test_seed_spacing_below_the_grid_spacing_is_rejected(spacing):
    # about 1/spacing seeds, each a traced leaf: 1e-300 cannot even be laid out
    u = field(lambda a, b: 0.3 * a + 0.1 * b - 0.2)
    with pytest.raises(ValueError, match="below the grid's smaller spacing"):
        foliation_cover(u, spacing)


@pytest.mark.parametrize("spacing", [np.nan, np.inf, 0.0, -0.1])
def test_a_seed_spacing_that_is_not_a_positive_finite_number_is_rejected_by_name(spacing):
    # NaN and inf used to reach np.arange, which cannot compute the seed count
    u = field(lambda a, b: 0.3 * a + 0.1 * b - 0.2)
    with pytest.raises(ValueError, match="seed_spacing: must be positive and finite"):
        foliation_cover(u, spacing)
