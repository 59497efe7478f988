"""Acceptance gate: the numbered claims the package stands behind.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line on the real stdout so
the gate can be read off a captured pytest run.  Budgets and tolerances are
fixed here on purpose; loosening them is a contract change, not a tweak.
"""

import sys
import time

import numpy as np
import pytest

from hmingraph import (
    BoundaryData,
    EpsSchedule,
    Frame,
    Grid,
    GridFunction,
    LiftedPoint,
    SolverConfig,
    apply_x1,
    coefficients,
    continuation,
    derivative_equation_residuals,
    dist_oracle_many,
    dist_surrogate_eps,
    fit_leaf,
    foliation_cover,
    holder_exponent_estimate,
    holder_seminorm,
    intrinsic_derivative,
    jacobian_assemble,
    pauls_graph,
    residual_div,
    residual_nondiv,
    solve_eps,
    taylor_p1,
    taylor_remainder_exponent,
)

from helpers import fan, fan_bump


@pytest.fixture
def conclude(capsys):
    def _conclude(n, ok, detail=""):
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        assert ok, line
    return _conclude


def bench_boundary(n):
    g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
    return g, BoundaryData.from_callable(g, fan_bump)


@pytest.fixture(scope="module")
def bench129():
    g, bd = bench_boundary(129)
    t0 = time.time()
    run = continuation(g, bd, EpsSchedule(), SolverConfig())
    return run, time.time() - t0


@pytest.fixture(scope="module")
def bench65():
    g, bd = bench_boundary(65)
    t0 = time.time()
    run = continuation(g, bd, EpsSchedule(), SolverConfig())
    return run, time.time() - t0


def test_01_affine_solves_are_exact_and_fast(conclude):
    g = Grid((0.0, 1.0), (0.0, 1.0), 65, 65)
    bd = BoundaryData.from_callable(g, lambda a, b: 2.0 * a - 1.0)
    worst_res, worst_iters, worst_time = 0.0, 0, 0.0
    for eps in (1.0, 0.5, 0.1):
        t0 = time.time()
        sol, report = solve_eps(g, bd, eps, SolverConfig())
        worst_time = max(worst_time, time.time() - t0)
        worst_res = max(worst_res, residual_div(Frame(sol, eps)).sup_norm)
        worst_iters = max(worst_iters, report.iterations)
    ok = worst_res <= 1e-12 and worst_iters <= 3 and worst_time < 5.0
    conclude(1, ok, f"res {worst_res:.1e}, iters {worst_iters}, {worst_time:.2f}s")


def test_02_divergence_residual_matches_the_closed_form(conclude):
    sups = []
    for n in (33, 65, 129):
        g = Grid((0.0, 1.0), (0.0, 1.0), n, n)
        X1, X2 = g.nodes()
        u = GridFunction(g, X2.copy())
        inner = residual_div(Frame(u, 1.0)).values[1:-1, 1:-1]
        x2i = X2[1:-1, 1:-1]
        closed = x2i / (1.0 + x2i ** 2 + 1.0) ** 1.5
        sups.append(float(np.max(np.abs(inner - closed))))
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    conclude(2, ok, f"ratios {r1:.2f}, {r2:.2f}")


def test_03_divergence_and_nondivergence_forms_agree(conclude):
    ratios = []
    for f, eps in ((fan_bump, 0.7), (lambda a, b: b, 1.0)):
        sups = []
        for n in (33, 65, 129):
            g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
            u = GridFunction.from_callable(g, f)
            fr = Frame(u, eps)
            w = coefficients(fr)[3]
            disc = w * residual_div(fr).values - residual_nondiv(fr).values
            sups.append(float(np.max(np.abs(disc[2:-2, 2:-2]))))
        ratios += [sups[0] / sups[1], sups[1] / sups[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    conclude(3, ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_04_nonsmooth_stationary_graph_detected_through_derivative_roughness(conclude):
    t0 = time.time()
    n = 513
    g = Grid((2.0, 4.0), (-1.0, 1.0), n, n)
    X1, X2 = g.nodes()
    u = GridFunction(g, pauls_graph(X1, X2))
    x1u = apply_x1(Frame(u, 1.0), u)
    sup_x1u = float(np.max(np.abs(x1u.values[np.abs(X2) >= 0.1])))

    d2u = GridFunction(g, u.d2())
    heights = np.linspace(-1, 1, n)
    j0 = int(np.searchsorted(heights, -0.05))
    strip = GridFunction(Grid((2.0, 4.0), (-0.05, 0.05), n, 2 * (n // 2 - j0) + 1),
                         d2u.values[:, j0:n - j0])
    jsm = int(np.searchsorted(heights, 0.1))
    smooth = GridFunction(Grid((2.0, 4.0), (0.1, 1.0), n, n - jsm), d2u.values[:, jsm:])
    hw = (g.h2, 2.2 * g.h2)
    q_strip, = holder_seminorm([strip], (0.5,), hw)[0]
    q_smooth, = holder_seminorm([smooth], (0.5,), hw)[0]
    elapsed = time.time() - t0
    ok = sup_x1u <= 10 * g.h2 ** 2 and q_strip > 10 * q_smooth and elapsed < 2.0
    conclude(4, ok, f"X1u {sup_x1u:.1e} vs {10 * g.h2 ** 2:.1e}, "
                    f"quotient x{q_strip / q_smooth:.0f}, {elapsed:.2f}s")


def test_05_leaves_straighten_along_the_vanishing_limit(conclude, bench129):
    run, t_run = bench129
    t0 = time.time()
    med_c3 = []
    final = None
    for k, u in enumerate(run.solutions):
        fits = [fit_leaf(lf) for lf in foliation_cover(u, 0.1) if len(lf) >= 8]
        med_c3.append(float(np.median([fit["c3"] for fit in fits])))
        if k == len(run.solutions) - 1:
            final = fits
    t_fol = time.time() - t0
    mono = all(med_c3[k + 1] <= 1.1 * med_c3[k] for k in range(len(med_c3) - 1))
    quad_res = max(fit["gamma2_quad_rel_residual"] for fit in final)
    u_quad = max(fit["u_quad_coefficient"] for fit in final)
    cap = 1e-2 * run.final.lip_norm
    ok = (mono and quad_res <= 1e-3 and u_quad <= cap and t_run + t_fol < 120.0)
    conclude(5, ok, f"|c3| {med_c3[0]:.1e}->{med_c3[-1]:.1e} mono={mono}, "
                    f"quad res {quad_res:.1e}, u quad {u_quad:.1e} vs {cap:.1e}, "
                    f"{t_run + t_fol:.1f}s")


def test_06_height_family_is_uniformly_controlled(conclude, bench129):
    run, _ = bench129
    lip_norms = [u.lip_norm for u in run.solutions]
    lip_ratio = max(lip_norms) / min(lip_norms)
    sd = [float(np.max(np.abs(new.values - prev.values)))
          for prev, new in zip(run.solutions, run.solutions[1:])]
    mono = all(sd[k + 1] <= 1.1 * sd[k] for k in range(len(sd) - 1))
    ok = lip_ratio <= 2.0 and mono
    conclude(6, ok, f"lip ratio {lip_ratio:.3f}, sup diffs mono={mono}")


def _interior_x2u_sup(u):
    margin = max(3, round(0.1 * (min(u.grid.n1, u.grid.n2) - 1)))
    return float(np.max(np.abs(intrinsic_derivative(u, 2).restrict(margin))))


def test_07_second_graph_derivative_collapses(conclude, bench129, bench65):
    run, _ = bench129
    run65, _ = bench65
    first = _interior_x2u_sup(run.solutions[0])
    final = _interior_x2u_sup(run.final)
    final65 = _interior_x2u_sup(run65.final)
    ok = final <= 0.25 * first and final < final65
    conclude(7, ok, f"ratio {final / first:.3f}, doubling {final65:.2e}->{final:.2e}")


def test_08_lattice_distance_oracle_brackets_the_gauge(conclude):
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    u = GridFunction.from_callable(g, fan_bump)
    ff = taylor_p1(Frame(u, 0.25), (0.5, 1.5))
    rng = np.random.default_rng(0)
    pts = []
    while len(pts) < 20:
        d = rng.uniform(-0.45, 0.45, size=3) * 0.2
        p = LiftedPoint(0.5 + d[0], 1.5 + d[1], d[2])
        if dist_surrogate_eps(ff, p) >= 0.04:
            pts.append(p)
    t0 = time.time()
    tables = {m: dist_oracle_many(ff, pts, m) for m in (0.04, 0.02, 0.01)}
    elapsed = time.time() - t0
    ratios = [tables[0.01][k] / dist_surrogate_eps(ff, p) for k, p in enumerate(pts)]
    mono = all(
        tables[0.04][k] >= tables[0.02][k] * (1 - 1e-12)
        and tables[0.02][k] >= tables[0.01][k] * (1 - 1e-12)
        for k in range(len(pts))
    )
    ok = min(ratios) >= 0.2 and max(ratios) <= 5.0 and mono and elapsed < 60.0
    conclude(8, ok, f"band [{min(ratios):.2f}, {max(ratios):.2f}], mono={mono}, {elapsed:.1f}s")


def test_09_pointwise_expansion_beats_the_measured_regularity(conclude, bench129):
    run, _ = bench129
    u, eps = run.final, run.final_eps
    fr = Frame(u, eps)
    g = u.grid
    window = (2 * max(g.h1, g.h2),
              0.25 * min(g.x1_range[1] - g.x1_range[0], g.x2_range[1] - g.x2_range[0]))
    alpha_est = max(
        holder_exponent_estimate(apply_x1(fr, u), window),
        holder_exponent_estimate(GridFunction(g, u.d2()), window),
    )
    exponent = taylor_remainder_exponent(fr, (0.5, 1.5), (0.05, 0.2))
    threshold = 1.0 + alpha_est - 0.1
    ok = exponent >= threshold
    conclude(9, ok, f"exponent {exponent:.2f} vs 1 + {alpha_est:.3f} - 0.1")


def test_10_derivative_equations_hold_exactly_in_the_limit_of_refinement(conclude):
    vals = {}
    for n in (33, 65, 129):
        g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
        bd = BoundaryData.from_callable(g, fan)
        sol, _ = solve_eps(g, bd, 0.25, SolverConfig())
        margin = max(3, round(0.15 * (n - 1)))
        vals[n] = derivative_equation_residuals(Frame(sol, 0.25), margin=margin)
    ratios = [vals[33][0] / vals[65][0], vals[65][0] / vals[129][0],
              vals[33][1] / vals[65][1], vals[65][1] / vals[129][1]]

    rng = np.random.default_rng(7)
    cmat = rng.normal(size=(3, 3))
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    X1, X2 = g.nodes()
    a, b = X1, X2 - 1.0
    r = 0.3 * a + 0.1
    for i in range(3):
        for j in range(3):
            r = r + 0.15 * cmat[i, j] * np.sin((i + 1) * np.pi * a) * np.cos((j + 1) * np.pi * b)
    v_ctl, z_ctl = derivative_equation_residuals(Frame(GridFunction(g, r), 0.25), margin=10)

    ok = all(3.0 <= r <= 5.0 for r in ratios) and v_ctl >= 1.0 and z_ctl >= 1.0
    conclude(10, ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
                     + f", control {v_ctl:.0f}/{z_ctl:.0f}")


def test_11_assembled_jacobian_matches_finite_differences(conclude):
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    u = GridFunction.from_callable(g, fan_bump)
    fr = Frame(u, 0.5)
    J = jacobian_assemble(fr)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        d = rng.standard_normal((g.n1 - 2) * (g.n2 - 2))
        d /= np.linalg.norm(d)
        t = 1e-6
        up = u.values.copy()
        up[1:-1, 1:-1] += t * d.reshape(g.n1 - 2, g.n2 - 2)
        um = u.values.copy()
        um[1:-1, 1:-1] -= t * d.reshape(g.n1 - 2, g.n2 - 2)
        rp = residual_div(Frame(GridFunction(g, up), 0.5)).values[1:-1, 1:-1].ravel()
        rm = residual_div(Frame(GridFunction(g, um), 0.5)).values[1:-1, 1:-1].ravel()
        fd = (rp - rm) / (2 * t)
        jv = J @ d
        worst = max(worst, float(np.linalg.norm(fd - jv) / np.linalg.norm(jv)))
    ok = worst <= 1e-6
    conclude(11, ok, f"worst rel err {worst:.1e} over 100 directions")
