"""Frames, lifting, adapted coordinates, and distance gauges."""

import contextlib
import dataclasses
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from hmingraph import (
    BoundaryData,
    EpsSchedule,
    Frame,
    Grid,
    GridFunction,
    LiftedPoint,
    SolverConfig,
    UnreachableError,
    apply_x1,
    apply_x2,
    continuation,
    dist_oracle_many,
    dist_surrogate_cc,
    dist_surrogate_eps,
    eval_p1,
    pauls_graph,
    taylor_p1,
    taylor_remainder_exponent,
)
from hmingraph import geometry
from hmingraph.geometry import (
    FrozenFrame,
    OracleLattice,
    _frozen_coords,
)

from helpers import fan_bump, sample
from crosscheck import (
    FlowConvergenceError,
    PathExitsGridError,
    _flow_coords,
    _lattice_distances,
    _swept_lattice,
    exp_coords_lifted,
)


def frame_of(f, eps=1.0, grid=None):
    g = grid or Grid((0.0, 1.0), (0.0, 1.0), 33, 33)
    return Frame(GridFunction.from_callable(g, f), eps)


# ---------------------------------------------------------------- frame ops

def test_frame_rejects_nonpositive_eps():
    g = Grid((0.0, 1.0), (0.0, 1.0), 5, 5)
    u = GridFunction(g, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        Frame(u, 0.0)
    with pytest.raises(ValueError):
        Frame(u, -1.0)


def test_both_derivations_annihilate_constants():
    fr = frame_of(lambda a, b: np.sin(3 * a) + b)
    g = fr.u.grid
    const = GridFunction(g, np.full((g.n1, g.n2), 5.0))
    assert np.max(np.abs(apply_x1(fr, const).values)) == 0.0
    assert np.max(np.abs(apply_x2(fr, const).values)) == 0.0


def test_graph_derivative_of_x2_equals_u_for_linear_u():
    # d1(x2) + u d2(x2) = u; u = x1 makes every stencil exact
    fr = frame_of(lambda a, b: a)
    g = fr.u.grid
    f = GridFunction.from_callable(g, lambda a, b: b)
    X1, _ = g.nodes()
    assert np.allclose(apply_x1(fr, f).values, X1, atol=1e-13)


def test_vertical_derivative_scales_with_eps():
    fr = frame_of(lambda a, b: a, eps=0.5)
    g = fr.u.grid
    f = GridFunction.from_callable(g, lambda a, b: b)
    assert np.allclose(apply_x2(fr, f).values, 0.5, atol=1e-13)


def test_vertical_derivative_of_square_matches_calculus():
    g = Grid((0.0, 1.0), (1.0, 3.0), 33, 33)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: 0.0 * a), 1.0)
    f = GridFunction.from_callable(g, lambda a, b: b * b)
    out = apply_x2(fr, f)
    j = np.argmin(np.abs(np.linspace(1, 3, 33) - 2.0))
    assert out.values[16, j] == pytest.approx(4.0, abs=1e-10)


def test_derivations_are_linear_in_the_field():
    fr = frame_of(lambda a, b: a * b)
    g = fr.u.grid
    f1 = GridFunction.from_callable(g, lambda a, b: np.cos(a) * b)
    f2 = GridFunction.from_callable(g, lambda a, b: a**3)
    combo = GridFunction(g, 2.0 * f1.values - 3.0 * f2.values)
    lhs = apply_x1(fr, combo).values
    rhs = 2.0 * apply_x1(fr, f1).values - 3.0 * apply_x1(fr, f2).values
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_leafwise_constant_graph_annihilated_off_the_kink():
    g = Grid((2.0, 4.0), (-1.0, 1.0), 129, 129)
    X1, X2 = g.nodes()
    u = GridFunction(g, pauls_graph(X1, X2))
    out = apply_x1(Frame(u, 1.0), u)
    mask = np.abs(X2) >= 0.1
    assert np.max(np.abs(out.values[mask])) <= 10.0 * g.h2**2


# -------------------------------------------------------- adapted coordinates

def test_coords_of_base_point_are_zero():
    fr = frame_of(lambda a, b: np.sin(a + b))
    e = exp_coords_lifted(fr, (0.5, 0.5), LiftedPoint(0.5, 0.5, 0.0))
    assert np.allclose(e, (0.0, 0.0, 0.0), atol=1e-14)


def test_coords_reduce_to_scaled_displacement_for_zero_field():
    fr = frame_of(lambda a, b: 0.0 * a, eps=0.25)
    e = exp_coords_lifted(fr, (0.4, 0.4), LiftedPoint(0.55, 0.52, 0.0))
    assert e[0] == pytest.approx(0.15)
    assert e[1] == pytest.approx(0.12 / 0.25, rel=1e-9)
    assert e[2] == 0.0


def test_second_coordinate_matches_closed_form_for_linear_field():
    # u = x1 is height independent, so the path integral is the segment
    # average (x0_1 + x_1)/2 exactly whatever path refinement does
    eps = 0.5
    fr = frame_of(lambda a, b: a, eps=eps)
    x0, x = (0.3, 0.4), (0.6, 0.7)
    e = exp_coords_lifted(fr, x0, LiftedPoint(x[0], x[1], 0.0))
    expect = ((x[1] - x0[1]) - (x[0] - x0[0]) * (x0[0] + x[0]) / 2.0) / eps
    assert e[1] == pytest.approx(expect, abs=1e-9)


def test_path_leaving_the_grid_raises():
    # drift 10(x1 - 1/2) bows the connecting path below the bottom edge
    fr = frame_of(lambda a, b: 10.0 * (a - 0.5))
    with pytest.raises(PathExitsGridError):
        exp_coords_lifted(fr, (0.1, 0.5), LiftedPoint(0.9, 0.5, 0.0))


def test_steep_field_path_stays_inside_the_grid():
    # rate k = e1 d2u = 24: the flat path's drive sends the first trial path
    # off the grid; the closed-form drive keeps it inside, where only the
    # rounding amplified by about e^24 keeps e2 from settling to 1e-9
    g = Grid((0.0, 1.0), (-20.0, 20.0), 33, 33)
    fr = frame_of(lambda a, b: 0.3 + 0.7 * (a - 0.5) + 80.0 * (b - 0.5), eps=0.5, grid=g)
    x0, p = (0.5, 0.625), LiftedPoint(0.8, 0.6, 0.2)
    with pytest.raises(FlowConvergenceError, match="subintervals"):
        exp_coords_lifted(fr, x0, p)

    def u_eval(a, b):
        return fr.u.interp(a, b)

    e = _flow_coords(u_eval, x0, (p.x1, p.x2), p.s, 0.5, rel_tol=1e-5, slopes=(0.7, 80.0))
    u0 = float(u_eval(*x0))
    ff = FrozenFrame(x0=x0, u0=u0, x1u0=0.7 + 80.0 * u0, x2u0=0.5 * 80.0, epsilon=0.5)
    assert e[1] == pytest.approx(float(_frozen_coords(ff, p.x1, p.x2, p.s)[1]), rel=1e-5)


# --------------------------------------------------------- first order model

def test_affine_graphs_reproduce_exactly():
    fr = frame_of(lambda a, b: 0.7 * a - 0.2 * b + 0.1, eps=0.5)
    ff = taylor_p1(fr, (0.5, 0.5))
    g = fr.u.grid
    X1, X2 = g.nodes()
    assert np.allclose(eval_p1(ff, X1, X2), fr.u.values, atol=1e-12)


def test_model_matches_field_at_base_point():
    fr = frame_of(lambda a, b: np.exp(a) * b)
    ff = taylor_p1(fr, (0.5, 0.5))
    assert eval_p1(ff, 0.5, 0.5) == pytest.approx(fr.u.values[16, 16], abs=1e-14)
    # the frame derivatives are the grid stencils at the base node, which
    # are centered differences there, bit for bit
    u, h1, h2 = fr.u.values, fr.grid.h1, fr.grid.h2
    d1 = (u[17, 16] - u[15, 16]) / (2 * h1)
    d2 = (u[16, 17] - u[16, 15]) / (2 * h2)
    assert ff.x1u0 == d1 + u[16, 16] * d2 == apply_x1(fr, fr.u).values[16, 16]
    assert ff.x2u0 == fr.epsilon * d2 == apply_x2(fr, fr.u).values[16, 16]


def test_model_value_matches_hand_computation():
    # u = x1 x2 at x0 = (1,1): value 1, graph slope 2, vertical slope eps;
    # at (1.1, 1.05) the model gives 1 + 0.1*2 + (0.05 - 0.1)/eps * eps = 1.15
    g = Grid((0.0, 2.0), (0.0, 2.0), 65, 65)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: a * b), 0.5)
    ff = taylor_p1(fr, (1.0, 1.0))
    assert eval_p1(ff, 1.1, 1.05) == pytest.approx(1.15, abs=1e-12)


def test_boundary_base_point_rejected():
    fr = frame_of(lambda a, b: a)
    with pytest.raises(ValueError):
        taylor_p1(fr, (0.0, 0.5))


# ------------------------------------------------- closed-form frozen coords

@pytest.mark.parametrize("k_range", [(-0.49, 0.49), (0.5, 4.0), (-4.0, -0.5)],
                         ids=["series", "expm1-growing", "expm1-decaying"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_matches_the_shooter_on_frozen_frames(k_range, data):
    # the rate k = e1 d2u of the linear flow ODE selects the moment branch;
    # beyond |k| ~ 4 the shooter's endpoint map amplifies rounding in y(1)
    # by about exp(k), so the reference itself stops resolving 1e-9
    eps = 10.0 ** data.draw(st.floats(-3.0, 0.0), label="log10 eps")
    e1 = data.draw(st.floats(0.05, 0.5), label="|e1|") * data.draw(st.sampled_from([-1, 1]))
    k = data.draw(st.floats(*k_range), label="k")
    d2u = k / e1
    u0 = data.draw(st.floats(-2.0, 2.0), label="u0")
    g1 = data.draw(st.floats(-2.0, 2.0), label="d1u")
    ff = FrozenFrame(x0=(0.5, 1.5), u0=u0, x1u0=g1 + u0 * d2u, x2u0=eps * d2u, epsilon=eps)
    x = (0.5 + e1, 1.5 + data.draw(st.floats(-0.5, 0.5), label="dx2"))
    s = data.draw(st.floats(-0.5, 0.5), label="s")

    def u_eval(a, b):
        return u0 + (a - 0.5) * g1 + (b - 1.5) * d2u

    ref = _flow_coords(u_eval, ff.x0, x, s, eps)
    got = [float(v) for v in _frozen_coords(ff, x[0], x[1], s)]
    assert got[0] == ref[0] and got[2] == ref[2]
    assert abs(got[1] - ref[1]) / max(1.0, abs(ref[1])) <= 1e-9


def _moments_with_powers_per_j(k):
    # the moments as computed with ks ** n evaluated once per j
    small = np.abs(k) < 0.5
    kc = np.where(small, 1.0, k)
    ks = np.where(small, k, 0.0)
    closed = [np.expm1(kc) / kc]
    for j in (1, 2):
        closed.append((j * closed[-1] - 1.0) / kc)
    series = [math.factorial(j) * sum(ks ** n / math.factorial(n + j + 1) for n in range(18))
              for j in range(3)]
    return [np.where(small, a, b) for a, b in zip(series, closed)]


_SWITCH = [0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300,
           math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
           math.nextafter(-0.5, 0.0), math.nextafter(-0.5, -1.0)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ks=st.lists(st.one_of(st.sampled_from(_SWITCH), st.floats(-0.6, 0.6), st.floats(-40.0, 40.0)),
                   min_size=1, max_size=40))
def test_moments_share_their_powers_bit_for_bit(ks):
    k = np.array(ks)
    for got, want in zip(geometry._moments(k), _moments_with_powers_per_j(k)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for got, want in zip(geometry._moments(k[0]), _moments_with_powers_per_j(k[0])):
        assert np.asarray(got).view(np.int64) == np.asarray(want).view(np.int64)


def test_shooter_raises_when_its_tolerances_are_missed():
    # rate k = e1 d2u = 24: the endpoint map amplifies rounding by about
    # e^24, so doubling the subintervals never settles e2 to 1e-9
    eps, u0, g1, d2u = 0.5, 0.3, 0.7, 80.0

    def u_eval(a, b):
        return u0 + (a - 0.5) * g1 + (b - 1.5) * d2u

    with pytest.raises(FlowConvergenceError, match="subintervals"):
        _flow_coords(u_eval, (0.5, 1.5), (0.8, 1.6), 0.2, eps)
    assert issubclass(FlowConvergenceError, ValueError)


# ------------------------------------------------------------------- gauges

def test_gauges_vanish_at_base_point():
    fr = frame_of(lambda a, b: a * b, eps=0.5)
    ff = taylor_p1(fr, (0.5, 0.5))
    p = LiftedPoint(0.5, 0.5, 0.0)
    assert dist_surrogate_eps(ff, p) == 0.0
    assert dist_surrogate_cc(ff, p) == 0.0


def test_gauges_symmetric_in_height_for_zero_field():
    fr = frame_of(lambda a, b: 0.0 * a, eps=0.5)
    ff = taylor_p1(fr, (0.5, 0.5))
    for s in (0.2, 0.45):
        up = LiftedPoint(0.6, 0.55, s)
        dn = LiftedPoint(0.6, 0.55, -s)
        assert dist_surrogate_eps(ff, up) == pytest.approx(dist_surrogate_eps(ff, dn), rel=1e-12)
        assert dist_surrogate_cc(ff, up) == pytest.approx(dist_surrogate_cc(ff, dn), rel=1e-12)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.05])
def test_gauge_pair_stays_comparable(eps):
    fr = frame_of(lambda a, b: 0.4 * a + 0.1 * b, eps=eps)
    ff = taylor_p1(fr, (0.5, 0.5))
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(40):
        d = rng.uniform(-1, 1, size=3) * (0.2, 0.2, 0.3)
        p = LiftedPoint(0.5 + d[0], 0.5 + d[1], d[2])
        de = dist_surrogate_eps(ff, p)
        dc = dist_surrogate_cc(ff, p)
        if de > 1e-12:
            ratios.append(dc / de)
    # one fixed constant for the whole eps range
    assert 1.0 / 5.0 <= min(ratios) and max(ratios) <= 5.0


def test_lattice_walker_zero_at_base_and_linear_in_height():
    fr = frame_of(lambda a, b: 0.1 * a, eps=0.5)
    ff = taylor_p1(fr, (0.5, 0.5))
    assert dist_oracle_many(ff, [LiftedPoint(0.5, 0.5, 0.0)], 0.05)[0] == 0.0
    # straight vertical run costs its parameter length up to O(mesh)
    d = dist_oracle_many(ff, [LiftedPoint(0.5, 0.5, 0.3)], 0.05, box=(0.2, 0.2, 0.5))[0]
    assert d == pytest.approx(0.3, abs=0.06)


def test_lattice_walker_monotone_under_mesh_halving():
    # each halved mesh keeps the coarser sweeps in its comparison chain, so
    # the reported walk can only shrink
    fr = frame_of(lambda a, b: 0.3 * a + 0.1, eps=0.5)
    ff = taylor_p1(fr, (0.5, 0.5))
    p = LiftedPoint(0.58, 0.48, 0.12)
    vals = [dist_oracle_many(ff, [p], mesh)[0] for mesh in (0.04, 0.02, 0.01)]
    assert vals[0] >= vals[1] >= vals[2]


FF_UNREACHABLE = FrozenFrame(x0=(0.5, 0.5), u0=0.3, x1u0=0.2, x2u0=0.05, epsilon=0.5)


def test_a_point_outside_every_coarsening_is_named():
    with pytest.raises(UnreachableError,
                       match=r"point \(0\.9, 0\.5, 0\) unreachable at every lattice mesh"):
        dist_oracle_many(FF_UNREACHABLE, [LiftedPoint(0.9, 0.5, 0.0)], 0.02)


def test_a_point_outside_one_coarsening_reads_another():
    # half-widths round(box / spacing): in x1, 11 cells of 0.02 (0.22) but
    # 6 cells of 0.04 (0.24), so x1 = 0.74 lies in the coarser box only
    box = (0.22, 0.2, 0.2)
    assert geometry._oracle_meshes(0.02, box) == [0.02, 0.04]
    p = LiftedPoint(0.74, 0.5, 0.0)
    with pytest.raises(UnreachableError, match="outside"):
        OracleLattice(FF_UNREACHABLE, 0.02, box).distance(p)
    coarse = OracleLattice(FF_UNREACHABLE, 0.04, box).distance(p)
    assert dist_oracle_many(FF_UNREACHABLE, [p], 0.02, box) == [coarse]


def test_lattice_walker_tracks_the_gauge():
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    fr = Frame(GridFunction.from_callable(g, fan_bump), 0.25)
    ff = taylor_p1(fr, (0.5, 1.5))
    rng = np.random.default_rng(0)
    pts = []
    while len(pts) < 6:
        d = rng.uniform(-0.45, 0.45, size=3) * 0.2
        p = LiftedPoint(0.5 + d[0], 1.5 + d[1], d[2])
        if dist_surrogate_eps(ff, p) >= 0.04:
            pts.append(p)
    walks = dist_oracle_many(ff, pts, 0.04)
    for w, p in zip(walks, pts):
        r = w / dist_surrogate_eps(ff, p)
        assert 1.0 / 5.0 <= r <= 5.0


def _dijkstra_reference(ff, mesh, box):
    """The oracle lattice as an explicit sparse graph, swept by scipy's Dijkstra."""
    a1, a2, a3 = mesh, ff.epsilon * mesh / 2.0, mesh
    n1, n2, n3 = (max(1, int(round(b / a))) for b, a in zip(box, (a1, a2, a3)))
    N1, N2, N3 = 2 * n1 + 1, 2 * n2 + 1, 2 * n3 + 1
    I, J, K = (g.ravel() for g in np.meshgrid(
        np.arange(N1), np.arange(N2), np.arange(N3), indexing="ij"))
    coeff = eval_p1(ff, ff.x0[0] + (I - n1) * a1, ff.x0[1] + (J - n2) * a2) + ((K - n3) * a3) ** 2
    src, dst = [], []
    for sign in (+1, -1):
        moves = [
            (I + sign, J + np.rint(sign * mesh * coeff / a2).astype(np.int64), K),
            (I, J + 2 * sign, K),
            (I, J, K + sign),
        ]
        for ti, tj, tk in moves:
            ok = (ti >= 0) & (ti < N1) & (tj >= 0) & (tj < N2) & (tk >= 0) & (tk < N3)
            src.append(((I * N2 + J) * N3 + K)[ok])
            dst.append(((ti * N2 + tj) * N3 + tk)[ok])
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = coo_matrix((np.full(src.shape, mesh), (src, dst)), shape=(I.size, I.size)).tocsr()
    center = (n1 * N2 + n2) * N3 + n3
    return dijkstra(graph, directed=True, indices=center).reshape(N1, N2, N3)


def _draw_lattice(data):
    """A random frozen frame, mesh and box: at most 49 x 81 x 49 nodes at every eps."""
    eps = 10.0 ** data.draw(st.floats(math.log10(0.03), 0.0), label="log10 eps")
    ff = FrozenFrame(
        x0=(data.draw(st.floats(-1.0, 1.0), label="x0_1"), data.draw(st.floats(-1.0, 1.0), label="x0_2")),
        u0=data.draw(st.floats(-3.0, 3.0), label="u0"),
        x1u0=data.draw(st.floats(-5.0, 5.0), label="x1u0"),
        x2u0=eps * data.draw(st.floats(-3.0, 3.0), label="d2u"),
        epsilon=eps,
    )
    mesh = data.draw(st.floats(0.005, 0.08), label="mesh")
    # half-widths in lattice cells
    cells = [data.draw(st.floats(0.3, c), label=f"cells {k}") for k, c in enumerate((24, 40, 24))]
    box = (cells[0] * mesh, cells[1] * eps * mesh / 2.0, cells[2] * mesh)
    return ff, mesh, box


def _point_at(ff, node, shape, spacing):
    """The lifted point at flat lattice index ``node``."""
    idx = np.unravel_index(node, shape)
    off = [(i - n // 2) * a for i, n, a in zip(idx, shape, spacing)]
    return LiftedPoint(ff.x0[0] + off[0], ff.x0[1] + off[1], off[2])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_breadth_first_sweep_equals_dijkstra_bit_for_bit(data):
    ff, mesh, box = _draw_lattice(data)
    ref = _dijkstra_reference(ff, mesh, box)
    levels, values, spacing = _lattice_distances(ff, mesh, box)
    assert levels.dtype == np.int32
    dist = values[levels]
    assert dist.shape == ref.shape
    assert np.array_equal(dist.view(np.int64), ref.view(np.int64))  # inf included

    # distance: the same float at reached nodes, UnreachableError exactly at
    # the inf ones; every unreached node (up to 200) plus a sample of the rest
    flat = np.arange(ref.size)
    inf_nodes, reached = flat[np.isinf(ref.ravel())], flat[np.isfinite(ref.ravel())]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="query seed"))
    nodes = np.concatenate([rng.permutation(inf_nodes)[:200], rng.choice(reached, 200)])
    lattice = _swept_lattice(ff, mesh, box)
    for node in nodes:
        p = _point_at(ff, node, ref.shape, spacing)
        if np.isinf(ref.flat[node]):
            with pytest.raises(UnreachableError):
                lattice.distance(p)
        else:
            assert lattice.distance(p) == ref.flat[node]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_targeted_sweep_equals_the_full_sweep(data):
    ff, mesh, box = _draw_lattice(data)
    full, values, spacing = _lattice_distances(ff, mesh, box)
    shape, flat = full.shape, full.ravel()
    reached, unreached = np.flatnonzero(flat >= 0), np.flatnonzero(flat < 0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="target seed"))
    kind = data.draw(st.sampled_from(["reached", "unreached", "outside", "empty", "centre"]),
                     label="targets")
    nodes = {
        "reached": list(rng.choice(reached, 20)),
        "unreached": list(rng.choice(reached, 5)) + list(rng.permutation(unreached)[:1]),
        "outside": list(rng.choice(reached, 5)),
        "empty": [],
        "centre": [flat.size // 2],
    }[kind]
    targets = [_point_at(ff, n, shape, spacing) for n in nodes]
    outside = LiftedPoint(ff.x0[0] + (shape[0] // 2 + 1) * spacing[0], ff.x0[1], 0.0)
    if kind == "outside":
        targets.insert(2, outside)

    # querying the targets one at a time labels the levels up to the
    # farthest target's, or every reachable node when a target is never
    # reached; the point outside the box sweeps nothing
    lattice = OracleLattice(ff, mesh, box)
    for p in targets:
        try:
            lattice.distance(p)
        except UnreachableError:
            pass
    with pytest.raises(UnreachableError, match="outside"):
        lattice.distance(outside)
    last = np.inf if np.any(flat[nodes] < 0) else max(flat[nodes], default=0)
    assert np.array_equal(lattice.levels, np.where(flat <= last, flat, -1))
    assert np.array_equal(np.array(lattice.values), values[:len(lattice.values)])

    # distance: the full sweep's float on every target and, sweeping on, on
    # random other nodes in random order; UnreachableError exactly where it
    # raises
    others = np.concatenate([rng.permutation(unreached)[:50], rng.choice(reached, 100)])
    for node in np.concatenate([np.array(nodes, dtype=np.int64), rng.permutation(others)]):
        p = _point_at(ff, node, shape, spacing)
        if flat[node] < 0:
            with pytest.raises(UnreachableError, match="not reached"):
                lattice.distance(p)
        else:
            assert lattice.distance(p) == values[flat[node]]
    with pytest.raises(UnreachableError, match="outside"):
        lattice.distance(outside)


@pytest.mark.parametrize("u0, x1u0, d2u", [(0.0, 0.0, 0.0), (0.7, 0.4, 0.8)])
def test_sweep_keeps_one_int32_per_node(u0, x1u0, d2u):
    # eps = 0.1, mesh 0.01: a 41 x 301 x 41 lattice of 505,981 nodes; the
    # int32 levels take 4 bytes per node, the per-level frontiers the rest
    ff = FrozenFrame(x0=(0.5, 1.5), u0=u0, x1u0=x1u0, x2u0=0.1 * d2u, epsilon=0.1)
    mesh, box = 0.01, (0.2, 0.075, 0.2)
    tracemalloc.start()
    try:
        lattice = _swept_lattice(ff, mesh, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 41 * 301 * 41
    assert lattice.distance(LiftedPoint(0.55, 1.5, 0.05)) > 0.0


def test_targeted_sweep_keeps_one_int32_per_node():
    # the sweep of the test above, stopped at the farthest of 20 points
    # drawn in +-0.45 box as the distance command draws its candidates and
    # queried one at a time; the full sweep gives the same distances
    ff = FrozenFrame(x0=(0.5, 1.5), u0=0.7, x1u0=0.4, x2u0=0.08, epsilon=0.1)
    mesh, box = 0.01, (0.2, 0.075, 0.2)
    offsets = np.random.default_rng(3).uniform(-0.45, 0.45, size=(20, 3)) * box
    pts = [LiftedPoint(0.5 + d[0], 1.5 + d[1], d[2]) for d in offsets]
    tracemalloc.start()
    try:
        lattice = OracleLattice(ff, mesh, box)
        got = [lattice.distance(p) for p in pts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 41 * 301 * 41
    full = _swept_lattice(ff, mesh, box)
    assert got == [full.distance(p) for p in pts]


def _assert_full_sweep_is_dijkstra(ff, mesh, box):
    ref = _dijkstra_reference(ff, mesh, box)
    levels, values, _ = _lattice_distances(ff, mesh, box)
    assert np.array_equal(values[levels].view(np.int64), ref.view(np.int64))
    return ref


def test_sweep_whose_every_sheared_move_leaves_the_lattice():
    # x2 spacing 0.005, 9 rows; the X1 shift rint(mesh (u0 + s^2) / a2) is
    # at least 12 rows at every node, so only X2 and X3 moves stay inside
    ff = FrozenFrame(x0=(0.5, 1.5), u0=3.0, x1u0=0.0, x2u0=0.0, epsilon=0.5)
    ref = _assert_full_sweep_is_dijkstra(ff, 0.02, (0.1, 0.02, 0.1))
    assert ref.shape == (11, 9, 11)
    reached = np.argwhere(np.isfinite(ref))
    assert set(reached[:, 0]) == {5} and set(reached[:, 1]) == {0, 2, 4, 6, 8}


def test_sweep_whose_sheared_moves_land_on_the_first_and_last_x2_row():
    # the X1 shift is 3 rows at every node (mesh u0 / a2 = 3, s^2 adds under
    # 0.01 of a row), so the +X1 move from row 17 lands on the last row, 20,
    # and the -X1 move from row 3 on the first, 0; rows 18 and 2 step off
    ff = FrozenFrame(x0=(0.5, 1.5), u0=0.75, x1u0=0.0, x2u0=0.0, epsilon=0.5)
    ref = _assert_full_sweep_is_dijkstra(ff, 0.02, (0.1, 0.05, 0.04))
    N1, N2, N3 = ref.shape
    assert (N1, N2, N3) == (11, 21, 5)
    reached = np.isfinite(ref)
    assert reached[:-1, N2 - 4].any() and reached[1:, 3].any()


def test_level_array_halo_is_bounded():
    # 101 nodes per axis; the halo is one x3 cell per row and two x2 rows per
    # i-plane, shared between neighbours, and does not grow with the X1 shift
    for x1u0 in (0.0, 40.0):
        ff = FrozenFrame(x0=(0.5, 1.5), u0=0.7, x1u0=x1u0, x2u0=0.0, epsilon=0.04)
        lattice = OracleLattice(ff, 0.01, (0.5, 0.01, 0.5))
        nodes = math.prod(lattice.shape)
        assert lattice.shape == (101, 101, 101)
        assert lattice._levels.dtype == np.int32
        assert lattice._levels.size <= 1.06 * nodes
        assert lattice.levels.shape == (nodes,) and np.count_nonzero(lattice.levels == 0) == 1


def test_level_array_holds_the_half_s_ge_0():
    # test_level_array_halo_is_bounded's lattices: each row holds only
    # k' = 0..50 and one halo cell, so the level array holds about half an
    # entry per node
    for x1u0 in (0.0, 40.0):
        ff = FrozenFrame(x0=(0.5, 1.5), u0=0.7, x1u0=x1u0, x2u0=0.0, epsilon=0.04)
        lattice = OracleLattice(ff, 0.01, (0.5, 0.01, 0.5))
        assert lattice._levels.size <= 0.55 * math.prod(lattice.shape)


@pytest.mark.parametrize("u0, x1u0, d2u", [(0.0, 0.0, 0.0), (0.7, 0.4, 0.8)])
def test_full_sweep_peaks_at_four_bytes_per_node(u0, x1u0, d2u):
    # test_sweep_keeps_one_int32_per_node's lattices: the half lattice's
    # int32 levels take about 2 bytes per node, the per-level frontiers the rest
    ff = FrozenFrame(x0=(0.5, 1.5), u0=u0, x1u0=x1u0, x2u0=0.1 * d2u, epsilon=0.1)
    tracemalloc.start()
    try:
        _swept_lattice(ff, 0.01, (0.2, 0.075, 0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 41 * 301 * 41


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_full_sweep_is_even_in_s(data):
    ff, mesh, box = _draw_lattice(data)
    lattice = _swept_lattice(ff, mesh, box)
    levels = lattice.levels.reshape(lattice.shape)
    assert np.array_equal(levels, levels[:, :, ::-1])

    # distance at s and at -s: the same float, or UnreachableError on both
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="query seed"))
    for node in rng.choice(levels.size, 100):
        p = _point_at(ff, node, lattice.shape, lattice.spacings)
        got = []
        for q in (p, dataclasses.replace(p, s=-p.s)):
            try:
                got.append(lattice.distance(q))
            except UnreachableError:
                got.append(None)
        assert got[0] == got[1]


def test_sweep_one_s_cell_wide_equals_dijkstra():
    # N3 = 3: the planes s = +-a3 are reached only through the centre
    # plane's X3 moves.  There the X1 shift is 3 rows, against 2 at s = 0
    # (mesh (u0 + s^2) / a2 = 2.3 and 2.73), so the centre plane's odd x2
    # rows are reached only by a detour through s != 0 and back
    ff = FrozenFrame(x0=(0.5, 1.5), u0=0.0345, x1u0=0.0, x2u0=0.0, epsilon=0.03)
    ref = _assert_full_sweep_is_dijkstra(ff, 0.08, (0.4, 0.03, 0.08))
    assert ref.shape == (11, 51, 3)
    odd = (np.arange(51) - 25) % 2 == 1
    assert np.isfinite(ref[:, odd, 1]).any() and np.isfinite(ref[:, :, 0]).any()
    assert np.array_equal(ref[:, :, 0], ref[:, :, 2])


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mesh", [0.0, -0.02, math.inf, math.nan])
def test_lattice_rejects_a_mesh_that_is_not_positive_and_finite(mesh):
    with pytest.raises(ValueError, match="mesh"):
        OracleLattice(FF_UNREACHABLE, mesh, (0.2, 0.2, 0.2))
    # the coarsening chain doubles the mesh up to min(box) / 3, which a mesh
    # at or below 0 never reaches; the deadline bounds that loop
    with pytest.raises(ValueError, match="mesh"), _within(0.5):
        dist_oracle_many(FF_UNREACHABLE, [LiftedPoint(0.5, 0.5, 0.0)], mesh)


@pytest.mark.parametrize("box", [(-0.2, 0.2, 0.2), (0.2, 0.0, 0.2), (0.2, 0.2, math.nan),
                                 (0.2, math.inf, 0.2), (math.inf,) * 3])
def test_lattice_rejects_a_box_that_is_not_positive_and_finite(box):
    with pytest.raises(ValueError, match="box"):
        OracleLattice(FF_UNREACHABLE, 0.02, box)
    with pytest.raises(ValueError, match="box"), _within(0.5):
        dist_oracle_many(FF_UNREACHABLE, [LiftedPoint(0.5, 0.5, 0.0)], 0.02, box)


@pytest.mark.parametrize("field, value", [("u0", math.nan), ("x1u0", math.inf),
                                          ("x2u0", -math.inf), ("x0", (0.5, math.nan)),
                                          ("epsilon", 0.0)])
def test_lattice_rejects_frozen_coefficients_that_are_not_finite(field, value):
    ff = dataclasses.replace(FF_UNREACHABLE, **{field: value})
    with pytest.raises(ValueError, match="frozen frame coefficients must be finite"):
        OracleLattice(ff, 0.02, (0.2, 0.2, 0.2))


def test_lattice_walker_guards_against_huge_graphs():
    fr = frame_of(lambda a, b: 0.1 * a, eps=1e-3)
    ff = taylor_p1(fr, (0.5, 0.5))
    with pytest.raises(ValueError, match="lattice"):
        dist_oracle_many(ff, [LiftedPoint(0.52, 0.5, 0.0)], 1e-3)


# ------------------------------------------------------------- model error

def test_remainder_of_affine_field_reports_infinite_order():
    fr = frame_of(lambda a, b: 0.3 * a + 0.2 * b - 0.1, eps=0.5)
    assert taylor_remainder_exponent(fr, (0.5, 0.5), (0.05, 0.2)) == np.inf


def test_remainder_order_of_smooth_square_exceeds_three_halves():
    # vertical gauge inflation drags the least squares slope below the
    # envelope order 2; the floor still separates it from first order
    fr = frame_of(lambda a, b: a * a, eps=0.5)
    ex = taylor_remainder_exponent(fr, (0.5, 0.5), (0.05, 0.15))
    assert ex >= 1.5


def test_remainder_order_away_from_the_kink_exceeds_three_halves():
    g = Grid((2.0, 4.0), (0.2, 1.2), 33, 33)
    X1, X2 = g.nodes()
    fr = Frame(GridFunction(g, pauls_graph(X1, X2)), 0.5)
    ex = taylor_remainder_exponent(fr, (3.0, 0.7), (0.05, 0.15))
    assert ex >= 1.5


def _per_node_samples(fr, x0, radii, drop_below=1e-14):
    # the per-node loop over the public gauge and model, in row-major order
    lo, hi = min(radii), max(radii)
    ff = taylor_p1(fr, x0)
    X1, X2 = fr.grid.nodes()
    logs_d, logs_r = [], []
    for i in range(X1.shape[0]):
        for j in range(X1.shape[1]):
            d = math.hypot(X1[i, j] - ff.x0[0], X2[i, j] - ff.x0[1])
            if not (0 < d <= 2.0 * hi):
                continue
            dist = dist_surrogate_eps(ff, LiftedPoint(float(X1[i, j]), float(X2[i, j]), 0.0))
            if not (lo <= dist <= hi):
                continue
            rem = abs(float(fr.u.values[i, j]) - eval_p1(ff, X1[i, j], X2[i, j]))
            if rem >= drop_below:
                logs_d.append(math.log(dist))
                logs_r.append(math.log(rem))
    return np.array(logs_d), np.array(logs_r)


def _pauls_frame():
    g = Grid((2.0, 4.0), (0.2, 1.2), 33, 33)
    X1, X2 = g.nodes()
    return Frame(GridFunction(g, pauls_graph(X1, X2)), 0.5)


@pytest.mark.parametrize("fr, x0", [
    (frame_of(lambda a, b: a * a, eps=0.5), (0.5, 0.5)),
    (_pauls_frame(), (3.0, 0.7)),
], ids=["square", "pauls"])
def test_remainder_array_pass_matches_the_per_node_loop(fr, x0, monkeypatch):
    radii = (0.05, 0.15)
    logs_d, logs_r = _per_node_samples(fr, x0, radii)
    seen = {}
    polyfit = np.polyfit

    def spy(x, y, deg):
        seen["x"], seen["y"] = np.array(x), np.array(y)
        return polyfit(x, y, deg)

    monkeypatch.setattr(geometry.np, "polyfit", spy)
    slope = taylor_remainder_exponent(fr, x0, radii)
    assert len(logs_d) >= 8
    np.testing.assert_allclose(seen["x"], logs_d, rtol=1e-12, atol=0)
    np.testing.assert_allclose(seen["y"], logs_r, rtol=1e-12, atol=0)
    assert abs(slope - polyfit(logs_d, logs_r, 1)[0]) <= 1e-12


def _uncut_fit_inputs(fr, x0, radii):
    # the array pass over every node within 2 max(radii) of the base, with
    # no cut in x1: the samples the window keeps, in row-major order
    lo, hi = min(radii), max(radii)
    ff = taylor_p1(fr, x0)
    X1, X2 = fr.grid.nodes()
    d = np.sqrt((X1 - ff.x0[0]) ** 2 + (X2 - ff.x0[1]) ** 2)
    cand = (d <= 2.0 * hi) & (d > 0)
    x1, x2 = X1[cand], X2[cand]
    dist = geometry._gauge_eps(ff.epsilon, *_frozen_coords(ff, x1, x2, 0.0))
    rem = np.abs(fr.u.values[cand] - eval_p1(ff, x1, x2))
    keep = (lo <= dist) & (dist <= hi) & ~(rem < 1e-14)
    assert np.any(np.abs(x1 - ff.x0[0]) > hi)  # the cut drops candidates here
    return np.log(dist[keep]), np.log(rem[keep])


def _bench129_final():
    g = Grid((0.0, 1.0), (1.0, 2.0), 129, 129)
    run = continuation(g, BoundaryData.from_callable(g, fan_bump), EpsSchedule(), SolverConfig())
    return Frame(run.final, run.final_eps)


@pytest.mark.parametrize("make_frame, x0, radii", [
    (lambda: frame_of(lambda a, b: a * a, eps=0.5), (0.5, 0.5), (0.05, 0.15)),
    (_pauls_frame, (3.0, 0.7), (0.05, 0.15)),
    (_bench129_final, (0.5, 1.5), (0.05, 0.2)),
], ids=["square", "pauls", "fan_bump-129"])
def test_remainder_candidate_cut_keeps_the_fit_bit_for_bit(make_frame, x0, radii, monkeypatch):
    fr = make_frame()
    logs_d, logs_r = _uncut_fit_inputs(fr, x0, radii)
    seen = {}
    polyfit = np.polyfit

    def spy(x, y, deg):
        seen["x"], seen["y"] = np.array(x), np.array(y)
        return polyfit(x, y, deg)

    monkeypatch.setattr(geometry.np, "polyfit", spy)
    slope = taylor_remainder_exponent(fr, x0, radii)
    assert len(logs_d) >= 8
    assert np.array_equal(seen["x"], logs_d) and np.array_equal(seen["y"], logs_r)
    assert slope == polyfit(logs_d, logs_r, 1)[0]


def test_remainder_fit_needs_enough_samples():
    fr = frame_of(lambda a, b: a * a, eps=0.5)
    with pytest.raises(ValueError):
        taylor_remainder_exponent(fr, (0.5, 0.5), (1e-6, 2e-6))


@pytest.mark.parametrize("mesh, box", [(1e-320, (0.2, 0.2, 0.2)), (0.01, (1e308, 0.2, 0.2))])
def test_a_lattice_too_large_for_an_int_index_is_counted_in_floats(mesh, box):
    with pytest.raises(ValueError, match=r"oracle lattice would hold inf nodes"):
        OracleLattice(FF_UNREACHABLE, mesh, box)


def test_a_query_whose_lattice_index_is_not_finite_is_unreachable():
    lattice = OracleLattice(FF_UNREACHABLE, 0.02, (0.2, 0.2, 0.2))
    for p in (LiftedPoint(1e308, 0.5, 0.0), LiftedPoint(0.5, -1e308, 0.0),
              LiftedPoint(0.5, 0.5, 1e308)):
        with pytest.raises(UnreachableError, match="outside the oracle lattice box"):
            lattice.distance(p)
    assert lattice.distance(LiftedPoint(0.5, 0.5, 0.0)) == 0.0
