"""Divergence and non-divergence operator discretizations and the Jacobian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse import coo_matrix

from hmingraph import (
    Frame,
    Grid,
    GridFunction,
    aij_from_gradient,
    coefficients,
    jacobian_assemble,
    residual_div,
    residual_nondiv,
)

from hmingraph.operators import (
    _HalfData,
    _jacobian_offsets,
    interior_index_maps,
)

from helpers import bench_grid_n, fan_bump, sample
from crosscheck import _lagged_matrix, _lagged_offsets


# ------------------------------------------------------------- coefficients

@pytest.mark.parametrize(
    "p,expect",
    [
        ((0.0, 0.0), (1.0, 0.0, 1.0, 1.0)),
        ((1.0, 0.0), (0.5, 0.0, 1.0, np.sqrt(2.0))),
        ((1.0, 1.0), (2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0, np.sqrt(3.0))),
    ],
)
def test_coefficient_map_on_hand_gradients(p, expect):
    a11, a12, a22, w = aij_from_gradient(np.array(p[0]), np.array(p[1]))
    assert a11 == pytest.approx(expect[0])
    assert a12 == pytest.approx(expect[1])
    assert a22 == pytest.approx(expect[2])
    assert w == pytest.approx(expect[3])


def test_coefficients_from_frame_match_gradient_substitution():
    # u = x1 has graph slope 1 and no vertical slope anywhere
    g = Grid((0.0, 1.0), (0.0, 1.0), 17, 17)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: a), 1.0)
    c = coefficients(fr)
    assert np.allclose(c.a11, 0.5, atol=1e-12)
    assert np.allclose(c.a12, 0.0, atol=1e-12)
    assert np.allclose(c.a22, 1.0, atol=1e-12)
    assert np.allclose(c.w, np.sqrt(2.0), atol=1e-12)


def test_coefficient_eigenvalues_stay_in_the_elliptic_band():
    g = bench_grid_n(33)
    fr = Frame(sample(g, lambda a, b: np.sin(2 * a) * b + 0.3 * a), 0.5)
    c = coefficients(fr)
    # symmetric 2x2 eigenvalues, nodewise
    tr = c.a11 + c.a22
    det = c.a11 * c.a22 - c.a12**2
    disc = np.sqrt(np.maximum(0.0, tr**2 / 4.0 - det))
    lo, hi = tr / 2.0 - disc, tr / 2.0 + disc
    floor = 1.0 / c.w**2
    assert np.all(lo >= floor - 1e-12)
    assert np.all(hi <= 1.0 + 1e-12)
    assert np.all(c.w >= 1.0)


# ----------------------------------------------------------------- residuals

@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_affine_graphs_are_discrete_solutions(eps):
    g = Grid((0.0, 1.0), (0.0, 1.0), 33, 33)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: 2.0 * a - 1.0), eps)
    assert residual_div(fr).sup_norm == 0.0
    assert residual_nondiv(fr).sup_norm <= 1e-13


def test_divergence_residual_matches_calculus_for_tilt_field():
    # u = x2: divergence form value is x2 / (1 + x2^2 + eps^2)^{3/2}
    g = Grid((0.0, 1.0), (0.5, 1.5), 65, 65)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: b), 1.0)
    r = residual_div(fr)
    X1, X2 = g.nodes()
    oracle = X2 / (1.0 + X2**2 + 1.0) ** 1.5
    err = np.abs(r.values - oracle)[1:-1, 1:-1]
    assert np.max(err) <= 5e-4


def test_divergence_residual_refines_at_second_order():
    sups = []
    for n in (33, 65):
        g = Grid((0.0, 1.0), (0.5, 1.5), n, n)
        fr = Frame(GridFunction.from_callable(g, lambda a, b: b), 1.0)
        X1, X2 = g.nodes()
        oracle = X2 / (1.0 + X2**2 + 1.0) ** 1.5
        sups.append(np.max(np.abs(residual_div(fr).values - oracle)[1:-1, 1:-1]))
    assert 3.5 <= sups[0] / sups[1] <= 4.5


def test_leafwise_constant_graph_is_near_minimal():
    from hmingraph import pauls_graph

    g = Grid((2.0, 4.0), (0.2, 1.2), 65, 65)
    X1, X2 = g.nodes()
    fr = Frame(GridFunction(g, pauls_graph(X1, X2)), 0.5)
    assert residual_div(fr).sup_norm <= 30.0 * g.h1**2


def test_nondivergence_value_matches_calculus_for_tilt_field():
    g = Grid((0.0, 1.0), (0.5, 1.5), 65, 65)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: b), 1.0)
    r = residual_nondiv(fr)
    X1, X2 = g.nodes()
    oracle = X2 / (1.0 + X2**2 + 1.0)
    err = np.abs(r.values - oracle)[2:-2, 2:-2]
    assert np.max(err) <= 5e-3


def test_form_identity_discrepancy_refines_at_second_order():
    # weighted divergence form minus non-divergence form, inside a margin
    # that shields the one-sided boundary ring
    for field, eps in ((fan_bump, 0.7), (lambda a, b: b, 1.0)):
        sups = []
        for n in (33, 65):
            g = bench_grid_n(n)
            fr = Frame(sample(g, field), eps)
            c = coefficients(fr)
            disc = c.w * residual_div(fr).values - residual_nondiv(fr).values
            m = 2
            sups.append(np.max(np.abs(disc[m:-m, m:-m])))
        assert 3.5 <= sups[0] / sups[1] <= 4.5


def test_residual_shift_invariant_for_height_independent_graphs():
    g = Grid((0.0, 1.0), (0.0, 1.0), 33, 33)
    base = GridFunction.from_callable(g, lambda a, b: np.sin(2.0 * a))
    r0 = residual_div(Frame(base, 0.5)).values
    r1 = residual_div(Frame(GridFunction(g, base.values + 3.0), 0.5)).values
    assert np.allclose(r0, r1, atol=1e-13)


# ----------------------------------------------------------------- jacobian

def test_jacobian_rows_stay_within_nine_point_stencil():
    g = bench_grid_n(17)
    fr = Frame(sample(g, fan_bump), 0.5)
    J = jacobian_assemble(fr)
    nnz_per_row = np.diff(J.indptr)
    assert nnz_per_row.max() <= 9


@pytest.mark.parametrize("n1,n2,eps", [(17, 17, 1.0), (9, 23, 0.1), (33, 12, 1e-3)])
def test_jacobian_of_the_zero_graph_is_the_five_point_laplacian(n1, n2, eps):
    # at u = 0 every coefficient is flat and no transport term survives, so
    # the Jacobian is the 5-point matrix of d1^2 + eps^2 d2^2, bit for bit
    g = Grid((0.0, 1.0), (1.0, 2.0), n1, n2)
    J = jacobian_assemble(Frame(GridFunction(g, np.zeros((n1, n2))), eps))

    def second_difference(m, h):
        return sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1]) / h**2

    m1, m2 = n1 - 2, n2 - 2
    lap = (sp.kron(second_difference(m1, g.h1), sp.identity(m2))
           + eps**2 * sp.kron(sp.identity(m1), second_difference(m2, g.h2)))
    assert np.array_equal(J.toarray(), lap.toarray())


def test_jacobian_matches_directional_difference():
    g = bench_grid_n(33)
    fr = Frame(sample(g, fan_bump), 0.5)
    J = jacobian_assemble(fr)
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = rng.standard_normal((31, 31))
        d /= np.linalg.norm(d)
        t = 1e-6
        up, dn = fr.u.values.copy(), fr.u.values.copy()
        up[1:-1, 1:-1] += t * d
        dn[1:-1, 1:-1] -= t * d
        rp = residual_div(Frame(GridFunction(g, up), 0.5)).values[1:-1, 1:-1]
        rm = residual_div(Frame(GridFunction(g, dn), 0.5)).values[1:-1, 1:-1]
        fd = ((rp - rm) / (2 * t)).ravel()
        jv = J @ d.ravel()
        assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)


def test_jacobian_row_sums_match_uniform_shift_response():
    # interior columns only; the boundary ring stays clamped, so compare
    # against a shift applied to interior nodes alone
    g = bench_grid_n(17)
    fr = Frame(sample(g, fan_bump), 0.5)
    J = jacobian_assemble(fr)
    ones = np.ones((15, 15)).ravel()
    t = 1e-7
    up, dn = fr.u.values.copy(), fr.u.values.copy()
    up[1:-1, 1:-1] += t
    dn[1:-1, 1:-1] -= t
    rp = residual_div(Frame(GridFunction(g, up), 0.5)).values[1:-1, 1:-1]
    rm = residual_div(Frame(GridFunction(g, dn), 0.5)).values[1:-1, 1:-1]
    fd = ((rp - rm) / (2 * t)).ravel()
    assert np.allclose(J @ ones, fd, atol=1e-6)


# ------------------------------------------------- cached sparsity pattern

def coo_route(D, n1, n2):
    """Interior and boundary blocks built directly from the offset dict, via COO."""
    m1, m2 = n1 - 2, n2 - 2
    ii, jj = np.meshgrid(np.arange(1, n1 - 1), np.arange(1, n2 - 1), indexing="ij")
    rows = np.tile(((ii - 1) * m2 + (jj - 1)).ravel(), len(D))
    cols = np.concatenate([((ii + di) * n2 + (jj + dj)).ravel() for di, dj in D])
    vals = np.concatenate([c.ravel() for c in D.values()])
    _, inv = interior_index_maps(n1, n2)
    bnd = np.flatnonzero(inv < 0)
    binv = -np.ones(n1 * n2, dtype=np.int64)
    binv[bnd] = np.arange(bnd.size)
    is_int = inv[cols] >= 0
    A_int = coo_matrix((vals[is_int], (rows[is_int], inv[cols[is_int]])),
                       shape=(m1 * m2, m1 * m2)).tocsr()
    A_bnd = coo_matrix((vals[~is_int], (rows[~is_int], binv[cols[~is_int]])),
                       shape=(m1 * m2, bnd.size)).tocsr()
    return A_int, A_bnd


def assert_same_bits(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def smooth_field(data, n1, n2, label):
    """A fixed curved field plus an affine part and low-frequency waves with
    random coefficients; the fixed part keeps it away from zero and affine."""
    g = Grid((0.0, 1.0), (1.0, 2.0), n1, n2)
    x1, x2 = g.nodes()
    c = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9), label=label)
    return g, (0.5 * np.sin(np.pi * x1) * x2 + c[0] + c[1] * x1 + c[2] * x2
               + c[3] * np.sin(np.pi * (x1 + c[4]))
               + c[5] * np.cos(2.0 * np.pi * x2 + c[6])
               + c[7] * np.sin(np.pi * (x1 - x2) + c[8]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cached_assembly_matches_coo_route_and_the_residual(data):
    # grid sizes change between examples, so a pattern cached under the
    # wrong key would put values in the wrong places
    n1 = data.draw(st.integers(4, 40), label="n1")
    n2 = data.draw(st.integers(4, 40), label="n2")
    eps = 10.0 ** data.draw(st.floats(-3.0, 0.0), label="log10 eps")
    g, u = smooth_field(data, n1, n2, "u")
    fr = Frame(GridFunction(g, u), eps)
    hd = _HalfData(fr)

    J = jacobian_assemble(fr)
    assert_same_bits(J, coo_route(_jacobian_offsets(hd), n1, n2)[0])
    ref_int, ref_bnd = coo_route(_lagged_offsets(hd), n1, n2)
    assert_same_bits(_lagged_matrix(fr), ref_int)

    # J is the derivative of the residual along smooth directions
    _, dfull = smooth_field(data, n1, n2, "d")
    d = dfull[1:-1, 1:-1] / np.linalg.norm(dfull[1:-1, 1:-1])
    t = 1e-6
    up, dn = u.copy(), u.copy()
    up[1:-1, 1:-1] += t * d
    dn[1:-1, 1:-1] -= t * d
    rp = residual_div(Frame(GridFunction(g, up), eps)).restrict(1)
    rm = residual_div(Frame(GridFunction(g, dn), eps)).restrict(1)
    fd = ((rp - rm) / (2 * t)).ravel()
    jv = J @ d.ravel()
    assert np.linalg.norm(fd - jv) <= 1e-6 * np.linalg.norm(jv)

    # the lagged operator frozen at u, applied to u, is the residual itself
    r = residual_div(fr).restrict(1).ravel()
    _, inv = interior_index_maps(n1, n2)
    au = ref_int @ u[1:-1, 1:-1].ravel() + ref_bnd @ u.ravel()[inv < 0]
    assert np.max(np.abs(au - r)) <= 1e-10 * np.max(np.abs(r))
