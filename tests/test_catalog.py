"""Closed-form graph catalog: values, flags, root solving, stationarity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hmingraph import (
    DomainError,
    Frame,
    Grid,
    GridFunction,
    ShearRootError,
    affine_graph,
    catalog,
    make_entry,
    pauls_graph,
    residual_div,
    shear_graph,
)
from hmingraph.catalog import _brent_polish


class TestPaulsGraph:
    def test_hand_values(self):
        assert pauls_graph(2.0, 1.0) == 1.0
        assert pauls_graph(2.0, 0.0) == 0.0
        assert pauls_graph(3.0, -1.0) == pytest.approx(-0.25)

    def test_sign_convention_at_zero(self):
        # sign(0) := +1 puts the zero line on the x2 >= 0 branch
        assert pauls_graph(1.5, 0.0) == 0.0
        assert pauls_graph(1.5, 1e-12) == pytest.approx(2e-12)

    def test_array_evaluation(self):
        x1 = np.array([2.0, 3.0])
        x2 = np.array([1.0, -1.0])
        assert np.allclose(pauls_graph(x1, x2), [1.0, -0.25])

    def test_rejects_left_of_the_pole(self):
        with pytest.raises(DomainError):
            pauls_graph(1.0, 0.5)
        with pytest.raises(DomainError):
            pauls_graph(np.array([2.0, 0.5]), np.array([0.0, 0.0]))


class TestShearGraph:
    def test_zero_profile_reduces_to_the_cone(self):
        for x1, x2 in [(0.7, 0.3), (1.4, -0.6), (2.0, 1.0)]:
            assert shear_graph(lambda t: 0.0, x1, x2) == pytest.approx(x2 / x1, abs=1e-14)

    def test_linear_profile_shifts_the_pole(self):
        for x1, x2 in [(0.5, 0.3), (2.0, -0.6)]:
            assert shear_graph(lambda t: -t, x1, x2) == pytest.approx(x2 / (x1 + 1), abs=1e-14)

    def test_absolute_value_profile_recovers_the_piecewise_graph(self):
        for x1, x2 in [(2.0, 0.5), (3.0, -0.8), (2.5, 0.0)]:
            assert shear_graph(abs, x1, x2) == pytest.approx(pauls_graph(x1, x2), abs=1e-14)

    def test_root_residual_postcondition(self):
        g = lambda t: 0.3 * np.sin(t)
        for x1, x2 in [(1.2, 0.4), (2.0, -1.1), (3.5, 2.2)]:
            t = shear_graph(g, x1, x2)
            assert abs(x2 - x1 * t + g(t)) <= 1e-12

    def test_no_root_error_names_the_bracket(self):
        # constant residual, never crosses zero
        with pytest.raises(ShearRootError, match=r"no root.*\[-50, 50\]"):
            shear_graph(lambda t: 0.0, 0.0, 0.5)

    def test_multiple_roots_are_counted(self):
        # t - t^3 = 0.1 has three solutions
        with pytest.raises(ShearRootError, match="3 roots"):
            shear_graph(lambda t: t ** 3, 1.0, 0.1)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ShearRootError, match="empty bracket"):
            shear_graph(lambda t: 0.0, 1.0, 0.5, bracket=(2.0, -2.0))

    def test_narrow_bracket_isolates_a_branch(self):
        # the cubic's positive small root is the only one inside (0, 0.5)
        t = shear_graph(lambda t: t ** 3, 1.0, 0.1, bracket=(0.0, 0.5))
        roots = np.roots([-1.0, 0.0, 1.0, -0.1])
        expect = min(r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 0.5)
        assert t == pytest.approx(expect, abs=1e-12)


def per_t_shear_scan(g, x1, x2, bracket=(-50.0, 50.0)):
    """Reference: the bracket scan one ``t`` at a time, then the same polish.

    Returns ``(root, n_roots)``; ``root`` is None unless exactly one root
    was found.
    """
    phi = lambda t: x1 * t - g(t) - x2
    ts = np.linspace(bracket[0], bracket[1], 401)
    vals = np.array([phi(t) for t in ts])
    exact = np.flatnonzero(vals == 0.0)
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    n_roots = len(exact) + len(flips)
    if n_roots != 1:
        return None, n_roots
    if len(exact):
        return float(ts[exact[0]]), 1
    k = flips[0]
    return float(brentq(phi, ts[k], ts[k + 1], xtol=1e-15, rtol=8.9e-16)), 1


def _root_count_message(n_roots):
    return "no root" if n_roots == 0 else f"^{n_roots} roots"


# the catalog's shear profiles, each with the x1 range of its domain
SHEAR_PROFILES = {"abs": (abs, 1.0), "zero": (lambda t: 0.0, 0.0), "neg": (lambda t: -t, -1.0)}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SHEAR_PROFILES)), st.floats(0.0, 6.0, exclude_min=True),
       st.floats(-20.0, 20.0))
def test_array_scan_finds_the_per_t_root_bit_for_bit(name, dx1, x2):
    g, x1_min = SHEAR_PROFILES[name]
    x1 = x1_min + dx1
    root, n_roots = per_t_shear_scan(g, x1, x2)
    if n_roots != 1:
        with pytest.raises(ShearRootError, match=_root_count_message(n_roots)):
            shear_graph(g, x1, x2)
    else:
        got = shear_graph(g, x1, x2)
        assert np.float64(got).tobytes() == np.float64(root).tobytes()


@pytest.mark.parametrize("name,x1,x2", [
    ("abs", 0.0, -1.0),    # tent x1*t - |t| meets x2 < 0 twice
    ("abs", -0.5, -3.0),
    ("zero", 0.0, 0.0),    # every scan point is an exact root
    ("neg", -1.0, 0.0),
    ("zero", 0.0, 0.5),    # constant residual
    ("abs", 0.5, 0.5),     # the tent stays below x2 > 0
    ("zero", 1e-3, 1.0),   # the root lies outside the bracket
])
def test_array_scan_counts_roots_like_the_per_t_scan(name, x1, x2):
    g = SHEAR_PROFILES[name][0]
    _, n_roots = per_t_shear_scan(g, x1, x2)
    assert n_roots != 1
    with pytest.raises(ShearRootError, match=_root_count_message(n_roots)):
        shear_graph(g, x1, x2)


# profiles for the polish, smooth and not, each usable on a float
POLISH_PROFILES = {
    "abs": abs,
    "zero": lambda t: 0.0,
    "neg": lambda t: -t,
    "sin": lambda t: 0.3 * math.sin(t),
    "cubic": lambda t: t ** 3,
    "bump": lambda t: math.exp(-t * t),
    "tanh": lambda t: math.tanh(3.0 * t),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(POLISH_PROFILES)), st.floats(-3.0, 6.0), st.floats(-40.0, 40.0),
       st.floats(-14.0, 1.5), st.floats(-14.0, 1.5))
def test_polish_equals_scipy_brentq_bit_for_bit(name, x1, root, log_left, log_right):
    # the bracket straddles a chosen root; it need not be the only one
    g = POLISH_PROFILES[name]
    x2 = x1 * root - g(root)
    lo, hi = root - 10.0 ** log_left, root + 10.0 ** log_right
    phi = lambda t: x1 * t - g(t) - x2
    assume(phi(lo) * phi(hi) < 0.0)
    expect, info = brentq(phi, lo, hi, xtol=1e-15, rtol=8.9e-16, full_output=True, disp=False)
    if not info.converged:  # e.g. a cubic's triple root at 0
        with pytest.raises(ShearRootError, match=f"converge.*t={expect!r}"):
            _brent_polish(phi, lo, hi)
        return
    got = _brent_polish(phi, lo, hi)
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()


class TestPolishErrors:
    def test_nan_residual_raises_shear_root_error(self):
        # the first bisection lands on t = 0.5, where the residual is NaN
        f = lambda t: math.nan if 0.4 < t < 0.6 else t - 0.5
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        with pytest.raises(ShearRootError, match="NaN at t=0.5"):
            _brent_polish(f, 0.0, 1.0)
        with pytest.raises(ShearRootError, match="NaN at t=0.0"):
            _brent_polish(lambda t: math.nan, 0.0, 1.0)

    def test_no_convergence_in_100_iterations_raises_shear_root_error(self):
        # a step residual on a huge bracket only bisects: ~1000 halvings
        f = lambda t: -1.0 if t < 1.0 else 1.0
        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq(f, -1e300, 1e300, xtol=1e-15, rtol=8.9e-16)
        with pytest.raises(ShearRootError, match="did not converge in 100 iterations"):
            _brent_polish(f, -1e300, 1e300)

    def test_bracket_without_sign_change_raises_shear_root_error(self):
        with pytest.raises(ShearRootError, match="no sign change"):
            _brent_polish(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_nan_inside_a_scan_cell_reaches_shear_graph_callers(self):
        # no scan point sees the NaN, so the scan finds one flip in
        # [0, 0.25] and the polish steps onto the NaN around t = 0.1
        g = lambda t: np.where(np.abs(np.asarray(t) - 0.1) < 1e-3, np.nan, 0.0)
        with pytest.raises(ShearRootError, match="NaN"):
            shear_graph(g, 1.0, 0.1)


class TestCatalogEntries:
    def test_names(self):
        assert sorted(catalog()) == ["affine", "pauls", "shear-abs", "shear-neg", "shear-zero"]

    def test_flag_table(self):
        ent = catalog()
        assert ent["affine"].C1_smooth and ent["affine"].vanishing_viscosity_candidate
        assert ent["pauls"].minimal_H0 and not ent["pauls"].C1_smooth
        assert not ent["pauls"].vanishing_viscosity_candidate
        assert not ent["shear-abs"].C1_smooth
        assert ent["shear-zero"].C1_smooth and ent["shear-neg"].C1_smooth
        assert all(e.leafwise_affine for e in ent.values())

    def test_domain_predicates(self):
        ent = catalog()
        assert ent["pauls"].domain(2.0, 0.0)
        assert not ent["pauls"].domain(0.5, 0.0)
        assert ent["shear-zero"].domain(0.5, 0.3)
        assert not ent["shear-zero"].domain(0.0, 0.3)
        assert ent["affine"].domain(-10.0, 10.0)

    def test_shear_entries_evaluate_on_grids(self):
        ent = catalog()["shear-neg"]
        g = Grid((0.0, 1.0), (0.0, 1.0), 9, 9)
        X1, X2 = g.nodes()
        vals = ent.eval(X1, X2)
        assert np.allclose(vals, X2 / (X1 + 1.0), atol=1e-13)
        assert isinstance(ent.eval(0.5, 0.5), float)

    def test_affine_parameters(self):
        e = make_entry("affine", {"a": 2.0, "c": -1.0})
        assert e.eval(1.0, 5.0) == pytest.approx(1.0)
        assert e.name == "affine(a=2, c=-1)"
        assert affine_graph(0.0, 3.0).eval(7.0, -7.0) == pytest.approx(3.0)

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(KeyError, match="shear-zero"):
            make_entry("parabola")


SAMPLE_RECTS = {
    "affine": ((0.0, 1.0), (0.0, 1.0)),
    "pauls": ((2.0, 4.0), (0.2, 1.2)),
    "shear-zero": ((0.5, 1.5), (0.0, 1.0)),
    "shear-neg": ((0.0, 1.0), (0.0, 1.0)),
    "shear-abs": ((2.0, 4.0), (0.2, 1.2)),
}


def sampled(name, n):
    rect = SAMPLE_RECTS[name]
    g = Grid(rect[0], rect[1], n, n)
    X1, X2 = g.nodes()
    return GridFunction(g, np.asarray(catalog()[name].eval(X1, X2), dtype=float))


def test_affine_entry_is_discretely_stationary():
    u = sampled("affine", 33)
    assert residual_div(Frame(u, 0.3)).sup == 0.0


@pytest.mark.parametrize("name", ["pauls", "shear-zero", "shear-neg", "shear-abs"])
def test_stationary_entries_have_second_order_residuals(name):
    # sampled away from any derivative kink the defect is pure stencil error
    sups = [residual_div(Frame(sampled(name, n), 0.3)).sup for n in (33, 65)]
    assert 3.0 <= sups[0] / sups[1] <= 5.0
