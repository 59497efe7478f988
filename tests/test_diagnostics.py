"""Regularity monitors: graph-direction derivatives, seminorms, defects, verdicts."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmingraph import (
    BoundaryData,
    DiagnosticsBudgets,
    EpsSchedule,
    Frame,
    Grid,
    GridFunction,
    GridMismatchError,
    apply_x1,
    apply_x2,
    continuation,
    derivative_equation_residuals,
    holder_exponent_estimate,
    holder_seminorm,
    intrinsic_derivative,
    m_bound,
    norm_ledger,
    pauls_graph,
    sobolev_norm_eps,
    verdict,
)
from hmingraph import diagnostics

from helpers import fan, fan_bump


def unit_field(f, n=33):
    g = Grid((0.0, 1.0), (0.0, 1.0), n, n)
    return GridFunction.from_callable(g, f)


class TestIntrinsicDerivative:
    def test_vertical_coordinate_is_its_own_derivative(self):
        # X1 x2 = d1(x2) + x2 * d2(x2) = x2, exactly at every order
        u = unit_field(lambda a, b: b)
        for k in (1, 2, 3):
            d = intrinsic_derivative(u, k)
            assert np.array_equal(d.values, u.values)

    def test_affine_first_derivative_is_the_slope(self):
        u = unit_field(lambda a, b: 0.7 * a + 0.2)
        d1 = intrinsic_derivative(u, 1)
        d2 = intrinsic_derivative(u, 2)
        assert np.allclose(d1.values, 0.7, atol=1e-13)
        assert np.max(np.abs(d2.values)) <= 1e-12

    def test_composition_matches_repeated_application(self):
        u = unit_field(lambda a, b: np.sin(a) * b)
        fr = Frame(u, 1.0)
        once = apply_x1(fr, apply_x1(fr, u))
        assert np.array_equal(intrinsic_derivative(u, 2).values, once.values)

    def test_order_must_be_positive(self):
        u = unit_field(lambda a, b: b)
        with pytest.raises(ValueError):
            intrinsic_derivative(u, 0)


class TestHolderSeminorm:
    def test_constant_field_has_zero_seminorm(self):
        f = unit_field(lambda a, b: 0.0 * a + 3.0)
        assert holder_seminorm([f], (0.25, 0.5), (0.1, 1.0))[0] == (0.0, 0.0)

    def test_coordinate_field_attains_one(self):
        # |x1 - y1| / sep^alpha is largest at the full-width horizontal pair
        f = unit_field(lambda a, b: a)
        assert holder_seminorm([f], (0.5, 0.9), (0.1, 1.0))[0] == (1.0, 1.0)

    def test_matches_exhaustive_double_loop_on_small_grid(self):
        g = Grid((0.0, 1.0), (0.0, 1.0), 9, 9)
        f = GridFunction.from_callable(g, lambda a, b: np.sin(3 * a) + b * b)
        alphas, lo, hi = (0.7, 0.3), 0.05, 0.6
        got = holder_seminorm([f], alphas, (lo, hi))[0]
        vals = f.values
        pts = [(i, j) for i in range(9) for j in range(9)]
        best = [0.0, 0.0]
        for m in range(len(pts)):
            for k in range(m + 1, len(pts)):
                (i1, j1), (i2, j2) = pts[m], pts[k]
                sep = np.hypot((i1 - i2) * g.h1, (j1 - j2) * g.h2)
                if lo <= sep <= hi * (1 + 1e-12):
                    for n, alpha in enumerate(alphas):
                        best[n] = max(best[n], abs(vals[i1, j1] - vals[i2, j2]) / sep ** alpha)
        assert got == tuple(best)

    def test_seminorm_shrinks_as_lower_cutoff_grows(self):
        f = unit_field(lambda a, b: np.sin(3 * a) + b * b)
        alphas = (0.25, 0.5, 0.75)
        wide = holder_seminorm([f], alphas, (0.08, 0.8))[0]
        narrow = holder_seminorm([f], alphas, (0.3, 0.8))[0]
        assert all(w >= n for w, n in zip(wide, narrow))

    def test_derivative_jump_inflates_short_separation_quotients(self):
        # the vertical Euclidean derivative of the piecewise-rational graph
        # jumps across x2 = 0, so the 0.5-seminorm grows like lo^-0.5
        g = Grid((2.0, 4.0), (-1.0, 1.0), 129, 129)
        X1, X2 = g.nodes()
        d2 = GridFunction(g, GridFunction(g, pauls_graph(X1, X2)).d2())
        wide, = holder_seminorm([d2], (0.5,), (0.5, 1.0))[0]
        tight, = holder_seminorm([d2], (0.5,), (2 * g.h2, 1.0))[0]
        assert tight >= 2.0 * wide

    def test_alpha_and_window_validation(self):
        f = unit_field(lambda a, b: a)
        with pytest.raises(ValueError, match="alpha"):
            holder_seminorm([f], (0.5, 1.5), (0.1, 1.0))[0]
        with pytest.raises(ValueError, match="window"):
            holder_seminorm([f], (0.5,), (0.8, 0.2))[0]
        with pytest.raises(ValueError, match="no node pairs"):
            holder_seminorm([f], (0.5,), (1e-6, 2e-6))[0]


class TestHolderExponentEstimate:
    def test_smooth_field_reads_lipschitz(self):
        f = unit_field(lambda a, b: a)
        assert holder_exponent_estimate(f, (0.08, 0.7)) == 1.0

    def test_jump_reads_zero(self):
        f = unit_field(lambda a, b: np.where(a >= 0.5, 1.0, 0.0))
        assert holder_exponent_estimate(f, (0.08, 0.7)) == 0.0

    def test_needs_two_populated_bins(self):
        f = unit_field(lambda a, b: a)
        with pytest.raises(ValueError, match="bins"):
            holder_exponent_estimate(f, (1e-6, 2e-6))


class TestOffsetSetCache:
    """The offset set is built once per (grid, window) and shared."""

    @pytest.mark.parametrize("n,exhaustive", [(65, False), (17, True)])
    def test_cached_offsets_give_the_uncached_numbers_bit_for_bit(self, monkeypatch, n, exhaustive):
        g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
        u = GridFunction.from_callable(g, lambda a, b: fan_bump(a, b) + np.abs(b - 1.5) ** 0.6)
        fields = [apply_x1(Frame(u, 0.1), u), GridFunction(g, u.d2())]
        windows = [(2 * g.h1, 0.25), (0.05, 0.6)]
        alphas = (0.25, 0.5, 0.75, 0.9)

        def numbers():
            return [(*holder_seminorm([f], alphas, w)[0], holder_exponent_estimate(f, w))
                    for f in fields for w in windows]

        offsets = diagnostics._offset_set(g, *windows[0])
        # every offset but (0, 0) and the mirrors (0, -k) of (0, k)
        assert (len(offsets) == 2 * n * (n - 1)) == exhaustive
        cached = numbers()
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "_offset_set", diagnostics._offset_set.__wrapped__)
            uncached = numbers()
        assert np.array(cached).tobytes() == np.array(uncached).tobytes()
        assert diagnostics._offset_set(g, *windows[0]) is offsets
        assert offsets == diagnostics._offset_set.__wrapped__(g, *windows[0])

    def test_cached_offsets_cannot_be_changed(self):
        g = Grid((0.0, 1.0), (0.0, 1.0), 65, 65)
        offsets = diagnostics._offset_set(g, 0.03, 0.25)
        assert isinstance(offsets, tuple)
        assert all(isinstance(o, tuple) for o in offsets)
        with pytest.raises(TypeError):
            offsets[0] = (1, 1)
        with pytest.raises(TypeError):
            offsets[0][0] = 1
        with pytest.raises(AttributeError):
            offsets.append((1, 1))


def _old_offset_set(grid, lo, hi):
    """The offset set as built before the per-field profile: it still holds
    (0, 0) and both mirrors (0, k), (0, -k)."""
    n1, n2 = grid.n1, grid.n2
    n_nodes = n1 * n2
    if n_nodes * (n_nodes - 1) // 2 <= diagnostics.PAIR_CAP:
        return [(di, dj) for di in range(n1) for dj in range(-(n2 - 1), n2)]
    offsets = {(di, dj) for di in range(5) for dj in range(-4, 5)}
    radii = np.geomspace(max(lo, min(grid.h1, grid.h2)), hi, 48)
    angles = np.linspace(-np.pi / 2, np.pi / 2, 25)
    for r in radii:
        for th in angles:
            di = int(round(r * np.cos(th) / grid.h1))
            dj = int(round(r * np.sin(th) / grid.h2))
            if 0 <= di < n1 and -n2 < dj < n2:
                offsets.add((di, dj))
    return sorted(offsets)


def _old_quotients(values, grid, lo, hi):
    """(separation, max |difference|) per offset, one offset at a time."""
    n1, n2 = values.shape
    out = []
    for di, dj in _old_offset_set(grid, lo, hi):
        if di == 0 and dj == 0:
            continue
        sep = np.hypot(di * grid.h1, dj * grid.h2)
        if sep < lo or sep > hi * (1.0 + 1e-12):
            continue
        if dj >= 0:
            a = values[di:, dj:] if dj else values[di:, :]
            b = values[: n1 - di, : n2 - dj] if dj else values[: n1 - di, :]
        else:
            a = values[di:, :dj]
            b = values[: n1 - di, -dj:]
        if a.size:
            out.append((sep, float(np.max(np.abs(a - b)))))
    return out


def _old_seminorm(quotients, alpha):
    best = -1.0
    for sep, dmax in quotients:
        best = max(best, dmax / sep ** alpha)
    return best if best >= 0.0 else None


def _old_exponent(quotients, lo, hi, nbins=8):
    edges = np.geomspace(lo, hi, nbins + 1)
    bin_max = np.zeros(nbins)
    for sep, dmax in quotients:
        k = min(int(np.searchsorted(edges, sep, side="right")) - 1, nbins - 1)
        if k >= 0:
            bin_max[k] = max(bin_max[k], dmax)
    ok = bin_max > 0.0
    if int(ok.sum()) < 2:
        return None
    centers = np.sqrt(edges[:-1] * edges[1:])
    return float(np.clip(np.polyfit(np.log(centers[ok]), np.log(bin_max[ok]), 1)[0], 0.0, 1.0))


def _bits(x):
    return None if x is None else np.float64(x).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_separation_profile_reproduces_the_per_exponent_passes_bit_for_bit(data):
    exhaustive = data.draw(st.booleans(), label="exhaustive")
    if exhaustive:  # at most 1414 nodes: all offsets
        n1 = data.draw(st.integers(4, 70), label="n1")
        n2 = data.draw(st.integers(4, min(70, 1414 // n1)), label="n2")
    else:  # stratified offsets
        n1 = data.draw(st.integers(21, 70), label="n1")
        n2 = data.draw(st.integers(-(-1415 // n1), 70), label="n2")
    w1, w2 = data.draw(st.floats(0.1, 10.0), label="w1"), data.draw(st.floats(0.1, 10.0), label="w2")
    g = Grid((0.0, w1), (-1.0, w2 - 1.0), n1, n2)
    assert (n1 * n2 * (n1 * n2 - 1) // 2 <= diagnostics.PAIR_CAP) == exhaustive
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    X1, X2 = g.nodes()
    vals = np.sin(rng.uniform(0.5, 5.0) * X1) * X2 + rng.uniform(0.0, 0.1) * rng.standard_normal(X1.shape)
    if data.draw(st.booleans(), label="strided"):  # a non-contiguous view of the same values
        big = np.zeros((2 * n1, 3 * n2))
        big[1::2, ::3] = vals
        vals = big[1::2, ::3]
    f = GridFunction(g, vals)
    assert f.values is vals
    h, diag = min(g.h1, g.h2), float(np.hypot(w1, w2))
    lo = data.draw(st.floats(0.0, 4.0), label="lo/h") * h
    hi = lo + data.draw(st.floats(0.01, 1.0), label="span") * (diag - lo)
    alphas = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4), label="alphas")

    quotients = _old_quotients(vals, g, lo, hi)
    try:
        got = holder_seminorm([f], alphas, (lo, hi))[0]
    except ValueError:
        got = [None] * len(alphas)
    assert [_bits(x) for x in got] == [_bits(_old_seminorm(quotients, a)) for a in alphas]
    if lo > 0.0:
        try:
            got = holder_exponent_estimate(f, (lo, hi))
        except ValueError:
            got = None
        assert _bits(got) == _bits(_old_exponent(quotients, lo, hi))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n1=st.integers(4, 40), n2=st.integers(4, 40), seed=st.integers(0, 2 ** 32 - 1),
       lo_cells=st.floats(0.0, 3.0), span=st.floats(0.0, 1.0),
       alphas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6).flatmap(st.permutations))
def test_each_exponent_of_a_call_is_its_own_seminorm_bit_for_bit(n1, n2, seed, lo_cells, span,
                                                                   alphas):
    g = Grid((0.0, 1.0), (-0.5, 1.0), n1, n2)
    f = GridFunction(g, np.random.default_rng(seed).standard_normal((n1, n2)))
    lo = lo_cells * min(g.h1, g.h2)  # a window at least a cell wide holds a pair
    w = (lo, lo + max(g.h1, g.h2) + span)
    got = holder_seminorm([f], alphas, w)[0]
    assert len(got) == len(alphas)
    for k, a in enumerate(alphas):
        assert np.float64(got[k]).tobytes() == np.float64(holder_seminorm([f], (a,), w)[0][0]).tobytes()


def _flat_profile(grid, lo, hi, values):
    """The single-field separation profile as computed before fields were
    stacked: one flat run per offset over the field alone."""
    n1, n2 = values.shape
    off, seps = diagnostics._window_offsets(grid, lo, hi)
    flat = np.ascontiguousarray(values).ravel()
    buf = np.empty(flat.size)
    dmax = np.empty(len(off))
    for k, (di, dj) in enumerate(off.tolist()):
        rows, skip = n1 - di, abs(dj)
        a, b = di * n2 + max(dj, 0), max(-dj, 0)
        d = buf[: rows * n2 - skip]
        np.abs(np.subtract(flat[a : a + d.size], flat[b : b + d.size], out=d), out=d)
        dmax[k] = buf[: rows * n2].reshape(rows, n2)[:, : n2 - skip].max()
    return seps, dmax


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_each_row_of_a_stacked_profile_is_its_fields_own_profile_bit_for_bit(data):
    exhaustive = data.draw(st.booleans(), label="exhaustive")
    if exhaustive:  # at most 1414 nodes (37 x 37 is 1369): all offsets
        n1 = data.draw(st.integers(3, 70), label="n1")
        n2 = data.draw(st.integers(3, min(70, 1414 // n1)), label="n2")
    else:  # stratified offsets
        n1 = data.draw(st.integers(21, 70), label="n1")
        n2 = data.draw(st.integers(-(-1415 // n1), 70), label="n2")
    w1, w2 = data.draw(st.floats(0.1, 10.0), label="w1"), data.draw(st.floats(0.1, 10.0), label="w2")
    g = Grid((0.0, w1), (-1.0, w2 - 1.0), n1, n2)
    assert (n1 * n2 * (n1 * n2 - 1) // 2 <= diagnostics.PAIR_CAP) == exhaustive
    m = data.draw(st.integers(1, 5), label="fields")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([1.0, 1e-300, 1e300]), label="scale")
    stack = rng.standard_normal((m, n1, n2)) * scale
    stack[rng.random(stack.shape) < 0.2] = 0.0  # repeated values give zero differences
    h = min(g.h1, g.h2)
    lo = data.draw(st.just(0.0) | st.floats(0.0, 4.0).map(lambda c: c * h), label="lo")
    hi = lo + data.draw(st.floats(0.01, 1.0), label="span") * (float(np.hypot(w1, w2)) - lo)
    sep, dmax = diagnostics._separation_profile(g, lo, hi, stack)
    assert dmax.shape == (m, len(sep))
    for k in range(m):
        own_sep, own = _flat_profile(g, lo, hi, stack[k])
        assert sep.tobytes() == own_sep.tobytes()
        assert dmax[k].tobytes() == own.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_ledger_seminorms_are_holder_seminorm_bit_for_bit_however_the_budget_splits(data):
    # non-square grids on which the default window, from 2 max(h1, h2) to 1/4, holds pairs
    n1, n2 = data.draw(st.integers(10, 40), label="n1"), data.draw(st.integers(18, 40), label="n2")
    g = Grid((0.0, 1.0), (-0.5, data.draw(st.floats(0.6, 1.5), label="x2 hi")), n1, n2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    count = data.draw(st.integers(1, 7), label="frames")
    frames = [Frame(GridFunction(g, rng.standard_normal((n1, n2))), float(rng.uniform(0.01, 2.0)))
              for _ in range(count)]
    per_stack = data.draw(st.integers(1, count + 1), label="frames a stack")
    fields = [op(fr, fr.u) for fr in frames for op in (apply_x1, apply_x2)]
    alone = [holder_seminorm([f], diagnostics.DEFAULT_ALPHAS, None)[0] for f in fields]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_PROFILE_BYTES", per_stack * 16 * n1 * n2)
        calls = counting(mp, "_separation_profile")
        got = holder_seminorm(fields, diagnostics.DEFAULT_ALPHAS, None)
    assert len(calls) == -(-count // per_stack)
    assert np.array(got).tobytes() == np.array(alone).tobytes()


def counting(monkeypatch, name):
    """Count the calls of ``diagnostics.<name>``; returns the list of calls."""
    calls, fn = [], getattr(diagnostics, name)
    monkeypatch.setattr(diagnostics, name, lambda *a: calls.append(a) or fn(*a))
    return calls


class TestSeparationProfile:
    def test_writing_into_the_values_changes_the_next_result(self):
        f = unit_field(lambda a, b: np.sin(3 * a) + b * b)
        w = (0.05, 0.6)
        before = (holder_seminorm([f], (0.5,), w)[0], holder_exponent_estimate(f, w))
        f.values[4, 7] += 5.0  # same array object, new content
        after = (holder_seminorm([f], (0.5,), w)[0], holder_exponent_estimate(f, w))
        fresh = GridFunction(f.grid, f.values.copy())
        assert after != before
        assert after == (holder_seminorm([fresh], (0.5,), w)[0], holder_exponent_estimate(fresh, w))

    def test_one_pass_serves_every_exponent(self, monkeypatch):
        f = unit_field(lambda a, b: np.cos(2 * a) * b)
        calls = counting(monkeypatch, "_separation_profile")
        assert len(holder_seminorm([f], (0.25, 0.5, 0.75, 0.9), (0.05, 0.6))[0]) == 4
        assert len(calls) == 1


def graph_direction_norm(frame, m, p):
    """The graph-direction strings of :func:`sobolev_norm_eps` alone:
    ``X1^k u`` for k <= m, each measured as that sum measures it."""
    w = frame.grid.h1 * frame.grid.h2
    total, g = 0.0, frame.u
    for _ in range(m + 1):
        total += float((w * np.sum(np.abs(g.restrict(m)) ** p)) ** (1.0 / p))
        g = apply_x1(frame, g)
    return total


class TestSobolevNorm:
    def test_order_zero_is_the_plain_lebesgue_norm(self):
        u = unit_field(lambda a, b: 0.7 * a + 0.2)
        fr = Frame(u, 0.5)
        w = u.grid.h1 * u.grid.h2
        for p in (1.0, 2.0, 4.0):
            assert sobolev_norm_eps(fr, 0, p) == pytest.approx(
                (w * np.sum(np.abs(u.values) ** p)) ** (1 / p), rel=1e-14)

    def test_order_one_affine_closed_form(self):
        u = unit_field(lambda a, b: 0.7 * a + 0.2)
        fr = Frame(u, 0.5)
        w = u.grid.h1 * u.grid.h2
        t0 = (w * np.sum(u.restrict(1) ** 2)) ** 0.5
        t1 = (w * np.sum(np.full_like(u.restrict(1), 0.7) ** 2)) ** 0.5
        assert sobolev_norm_eps(fr, 1, 2) == pytest.approx(t0 + t1, rel=1e-14)

    def test_string_families_agree_when_vertical_direction_is_silent(self):
        u = unit_field(lambda a, b: 0.7 * a + 0.2)
        fr = Frame(u, 0.5)
        assert graph_direction_norm(fr, 2, 2) == sobolev_norm_eps(fr, 2, 2)

    def test_vertical_strings_add_mass_for_vertical_dependence(self):
        u = unit_field(lambda a, b: np.sin(a) * b * b)
        fr = Frame(u, 0.5)
        assert sobolev_norm_eps(fr, 2, 2) > graph_direction_norm(fr, 2, 2)

    def test_argument_validation(self):
        fr = Frame(unit_field(lambda a, b: a), 0.5)
        with pytest.raises(ValueError):
            sobolev_norm_eps(fr, -1, 2)
        with pytest.raises(ValueError):
            sobolev_norm_eps(fr, 1, 0.5)

    def test_an_order_that_leaves_no_interior_node_is_rejected(self):
        # order 9 on 17^2 used to sum over no node and return 0.0
        fr = Frame(GridFunction.from_callable(Grid((0.0, 1.0), (1.0, 2.0), 17, 17), fan_bump), 0.5)
        assert sobolev_norm_eps(fr, 8, 1) > 0.0
        with pytest.raises(ValueError, match="margin 9 leaves no node"):
            sobolev_norm_eps(fr, 9, 2)


class TestDerivativeEquationResiduals:
    def test_exact_graph_solution_has_machine_zero_defects(self):
        u = unit_field(lambda a, b: 0.7 * a + 0.2)
        v_res, z_res = derivative_equation_residuals(Frame(u, 0.5))
        assert v_res <= 1e-11
        assert z_res <= 1e-11

    def test_defects_shrink_at_second_order_on_a_smooth_solution(self):
        # x2/(x1+2) solves the equation at every epsilon; only stencil error remains
        out = {}
        for n in (33, 65):
            g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
            u = GridFunction.from_callable(g, fan)
            margin = max(3, round(0.15 * (n - 1)))
            out[n] = derivative_equation_residuals(Frame(u, 0.25), margin=margin)
        for k in (0, 1):
            assert 3.0 <= out[33][k] / out[65][k] <= 5.0

    def test_generic_field_leaves_order_one_defects(self):
        rng = np.random.default_rng(7)
        g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
        X1, X2 = g.nodes()
        vals = sum(rng.normal() * np.sin((k + 1) * np.pi * X1) * np.cos(k * np.pi * X2)
                   for k in range(4))
        v_res, z_res = derivative_equation_residuals(Frame(GridFunction(g, vals), 0.25), margin=5)
        assert v_res >= 1.0
        assert z_res >= 1.0

    def test_margin_zero_measures_every_node_and_a_margin_beyond_the_centre_is_rejected(self):
        # margin 0 used to slice [0:-0], an empty array, and fail in numpy's max
        g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
        frame = Frame(GridFunction.from_callable(g, fan_bump), 0.5)
        whole = derivative_equation_residuals(frame, margin=0)
        inner = derivative_equation_residuals(frame)
        centre = derivative_equation_residuals(frame, margin=8)
        assert np.all(np.isfinite(whole)) and np.all(np.array(whole) >= inner)
        assert np.all(np.array(centre) <= inner)
        with pytest.raises(ValueError, match="margin 9 leaves no node of a 17 x 17 grid"):
            derivative_equation_residuals(frame, margin=9)


def test_m_bound_closed_form_for_affine():
    g = Grid((0.0, 1.0), (0.0, 1.0), 33, 33)
    fr = Frame(GridFunction.from_callable(g, lambda a, b: 0.5 * a + 0.25), 0.5)
    # sup|u| + sup|grad| + sup|d2 u| = 0.75 + 0.5 + 0
    assert m_bound(fr) == pytest.approx(1.25, abs=1e-12)


def lip_norms(run):
    return [u.lip_norm for u in run.solutions]


@pytest.fixture(scope="module")
def affine_run():
    g = Grid((0.0, 1.0), (0.0, 1.0), 17, 17)
    bd = BoundaryData.from_callable(g, lambda a, b: 0.5 * a + 0.25 + 0.0 * b)
    return continuation(g, bd, EpsSchedule(eps_start=1.0, factor=0.5, eps_min=0.25))


class TestNormLedger:
    def test_rows_follow_the_schedule(self, affine_run):
        led = norm_ledger(affine_run)
        assert [r["eps"] for r in led["rows"]] == [1.0, 0.5, 0.25]
        for r in led["rows"]:
            assert r["M"] == pytest.approx(1.25)
            assert sorted(r["norms"]) == ["d2u_W12_eps", "u_W22_eps"]
            assert [h["alpha"] for h in r["holder"]] == [0.25, 0.5, 0.75, 0.9]
            assert all(np.isfinite(h["seminorm"]) for h in r["holder"])

    def test_row_serialization_schema(self, affine_run):
        d = norm_ledger(affine_run)
        assert set(d) == {"rows"}
        row = d["rows"][0]
        assert set(row) == {"eps", "M", "norms", "holder"}
        assert set(row["holder"][0]) == {"alpha", "seminorm"}

    def test_ledger_is_its_json_artifact(self, affine_run):
        d = norm_ledger(affine_run)
        assert json.loads(json.dumps(d)) == d

    def test_M_is_measured_from_each_solution(self, affine_run):
        # u = 0.5 x1 + 0.25 scaled by k has M = 1.25 k
        sols = [GridFunction(u.grid, k * u.values) for k, u in zip((3, 2, 1), affine_run.solutions)]
        run = dataclasses.replace(affine_run, solutions=sols)
        m = [r["M"] for r in norm_ledger(run)["rows"]]
        assert m == [m_bound(Frame(u, eps)) for eps, u in zip(run.eps_values, sols)]
        assert m == pytest.approx([3.75, 2.5, 1.25])

    def test_rejects_a_run_whose_eps_values_miss_a_step(self, affine_run):
        with pytest.raises(ValueError):
            norm_ledger(dataclasses.replace(affine_run, eps_values=affine_run.eps_values[:-1]))

    def test_rejects_nondecreasing_eps(self, affine_run):
        with pytest.raises(ValueError, match="decreasing"):
            norm_ledger(dataclasses.replace(affine_run, eps_values=[1.0, 0.5, 0.5]))

    def test_rejects_nonfinite_entries(self, affine_run):
        # a constant 1e160 solves the equation, but its scaled Sobolev norm overflows
        huge = GridFunction(affine_run.final.grid, np.full((17, 17), 1e160))
        run = dataclasses.replace(affine_run, solutions=[*affine_run.solutions[:-1], huge])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            norm_ledger(run)


class TestVerdict:
    def test_exact_solution_passes_with_silent_monitors(self, affine_run):
        v = verdict(affine_run.final, affine_run.final_eps, lip_norms(affine_run))
        assert v["pass"]
        assert v["x2u_sup"] == 0.0
        assert v["residuals"]["v"] == 0.0
        assert v["residuals"]["z"] <= 1e-11
        assert v["lip_ratio"] == pytest.approx(1.0)

    def test_serialization_schema(self, affine_run):
        d = verdict(affine_run.final, affine_run.final_eps, lip_norms(affine_run))
        assert set(d) == {"alpha_estimates", "x2u_sup", "residuals", "lip_ratio", "pass"}
        assert set(d["residuals"]) == {"v", "z"}
        assert set(d["alpha_estimates"][0]) == {"alpha", "seminorm", "pass"}
        assert d["pass"] is True

    def test_verdict_is_its_json_artifact(self, affine_run):
        d = verdict(affine_run.final, affine_run.final_eps, lip_norms(affine_run))
        assert json.loads(json.dumps(d)) == d

    def test_an_empty_list_of_lipschitz_norms_is_rejected_by_name(self, affine_run):
        # it used to end in min() of an empty sequence
        with pytest.raises(ValueError, match="lip_norms: need at least one"):
            verdict(affine_run.final, affine_run.final_eps, [])

    def test_unmeetable_budget_fails_the_verdict(self, affine_run):
        v = verdict(affine_run.final, affine_run.final_eps, lip_norms(affine_run),
                    DiagnosticsBudgets(residual_cap=-1.0))
        assert not v["pass"]


def test_ledger_and_verdict_measure_each_field_once(monkeypatch, affine_run):
    # the ledger measures the gradient fields of every row in one seminorm call
    # and one stacked profile; the verdict both gradient components of its
    # final state in another, which takes every exponent at once
    profiles = counting(monkeypatch, "_separation_profile")
    calls = counting(monkeypatch, "holder_seminorm")
    norm_ledger(affine_run)
    rows = len(affine_run.solutions)
    assert [(len(fields), alphas, window) for fields, alphas, window in calls] == [
        (2 * rows, diagnostics.DEFAULT_ALPHAS, None)]
    assert [values.shape for *_, values in profiles] == [(2 * rows, 17, 17)]
    calls.clear()
    profiles.clear()
    verdict(affine_run.final, affine_run.final_eps, lip_norms(affine_run),
            DiagnosticsBudgets(alphas=(0.5, 0.3)))
    assert [(len(fields), alphas) for fields, alphas, _ in calls] == [(2, (0.5, 0.3))]
    assert [values.shape for *_, values in profiles] == [(2, 17, 17)]


@pytest.mark.parametrize("window", [(-1.0, 0.3), (float("nan"), 0.3), (0.8, 0.2)])
def test_holder_window_and_holder_seminorm_reject_a_bad_window_alike(window):
    f = unit_field(lambda a, b: a)
    with pytest.raises(ValueError) as rule:
        diagnostics.holder_window(f.grid, window)
    with pytest.raises(ValueError) as seminorm:
        holder_seminorm([f], (0.5,), window)
    assert str(rule.value) == str(seminorm.value) == f"bad separation window {window}"


def test_a_run_with_no_rows_has_an_empty_ledger(affine_run):
    empty = dataclasses.replace(affine_run, eps_values=[], solutions=[], reports=[])
    assert norm_ledger(empty) == {"rows": []}
    assert holder_seminorm([], diagnostics.DEFAULT_ALPHAS, None) == []


def test_a_ledger_of_a_run_on_two_grids_is_a_grid_mismatch(affine_run):
    g = Grid((0.0, 1.0), (0.0, 1.0), 19, 19)
    other = GridFunction.from_callable(g, lambda a, b: 0.5 * a + 0.25 + 0.0 * b)
    run = dataclasses.replace(affine_run, solutions=[*affine_run.solutions[:-1], other])
    with pytest.raises(GridMismatchError):
        norm_ledger(run)


def test_rough_boundary_data_stays_near_its_generating_graph():
    # continuation driven by the non-smooth catalog graph converges back to
    # it in sup norm; separation shows up in derivative roughness, not height
    g = Grid((2.0, 4.0), (-1.0, 1.0), 33, 33)
    bd = BoundaryData.from_callable(g, pauls_graph)
    run = continuation(g, bd, EpsSchedule(eps_start=1.0, factor=0.5, eps_min=1e-3))
    X1, X2 = g.nodes()
    diff = float(np.max(np.abs(run.final.values - pauls_graph(X1, X2))))
    assert 1e-6 < diff < 1e-2


def test_a_window_far_beyond_the_grid_skips_the_offsets_it_cannot_index():
    # a 65^2 grid samples offsets on separation shells up to the window's top,
    # whose float indices overflow to inf; the window itself holds node pairs
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    assert diagnostics.holder_window(g, (0.0, 1e308)) == (0.0, 1e308)
    offsets = np.array(diagnostics._offset_set(g, 0.0, 1e308))
    assert np.all((offsets[:, 0] < g.n1) & (np.abs(offsets[:, 1]) < g.n2))


@pytest.mark.parametrize("fraction", [-1e308, -0.1, 0.5])
def test_margin_fraction_lies_in_the_half_open_unit_half(fraction):
    with pytest.raises(ValueError, match=r"margin_fraction: must lie in \[0, 0\.5\)"):
        DiagnosticsBudgets(margin_fraction=fraction)
    DiagnosticsBudgets(margin_fraction=0.0)
