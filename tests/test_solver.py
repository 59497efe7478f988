"""Damped Newton solves and the shrinking-regularization driver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hmingraph import diagnostics, solver
from hmingraph import (
    BoundaryData,
    ContinuationError,
    EpsSchedule,
    Frame,
    Grid,
    GridFunction,
    NonConvergenceError,
    SolverConfig,
    affine_graph,
    continuation,
    jacobian_assemble,
    residual_div,
    solve_eps,
    transfinite_interpolation,
)
from hmingraph.solver import LUCache

from helpers import boundary, fan_bump
from crosscheck import gmres_lstsq, picard_solve


def unit_grid_n(n):
    return Grid((0.0, 1.0), (0.0, 1.0), n, n)


def cold_start(bd):
    """The iterate a solve without an initial guess starts from: the blend's
    interior inside the data's ring."""
    return bd.impose(transfinite_interpolation(bd).values[1:-1, 1:-1])


def test_constant_boundary_solves_in_one_step():
    g = unit_grid_n(17)
    bd = boundary(g, lambda a, b: 3.0 + 0.0 * a)
    u, rep = solve_eps(g, bd, 1.0, SolverConfig(), None)
    assert np.allclose(u.values, 3.0)
    assert rep.iterations <= 1
    assert rep.converged


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_affine_boundary_recovers_exact_solution(eps):
    g = unit_grid_n(65)
    bd = boundary(g, lambda a, b: 2.0 * a - 1.0)
    u, rep = solve_eps(g, bd, eps, SolverConfig(), None)
    X1, _ = g.nodes()
    assert np.max(np.abs(u.values - (2.0 * X1 - 1.0))) <= 1e-12
    assert rep.final_residual <= 1e-12
    assert rep.iterations <= 3


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    sides=st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 3.0)),
    a=st.floats(-0.5, 0.5),
    c=st.floats(-0.5, 0.5),
    eps=st.floats(1e-3, 1.0),
)
def test_affine_data_solves_at_once_on_any_rectangle(corner, sides, a, c, eps):
    # the affine graphs a x1 + c solve the equation for every eps.  Their
    # nodal residual is pure rounding, which grows with |u| and 1/h^2: at
    # 17^2 it reaches 1.3e-12 for a = c = 1 and 6.7e-12 for |a|, |c| <= 2,
    # so slopes and offsets up to 1/2 keep the 1e-12 bound meaningful
    g = Grid((corner[0], corner[0] + sides[0]), (corner[1], corner[1] + sides[1]), 17, 17)
    bd = boundary(g, affine_graph(a, c).eval)
    _, rep = solve_eps(g, bd, eps, SolverConfig(), None)
    assert rep.converged
    assert rep.iterations <= 3
    assert rep.final_residual <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    eps=st.floats(1e-3, 1.0),
    n=st.integers(17, 33),
)
def test_translating_domain_and_data_translates_the_solution(shift, eps, n):
    # no coordinate enters the equation, so moving the rectangle by (a, b)
    # and reading the data at (x1 - a, x2 - b) moves the solution with it;
    # the shifted nodes and spacings differ from the unshifted ones by
    # rounding only
    a, b = shift
    g = Grid((0.0, 1.0), (1.0, 2.0), n, n)
    gs = Grid((a, 1.0 + a), (1.0 + b, 2.0 + b), n, n)
    u, rep = solve_eps(g, boundary(g, fan_bump), eps, SolverConfig(), None)
    us, rep_s = solve_eps(gs, boundary(gs, lambda x1, x2: fan_bump(x1 - a, x2 - b)), eps,
                          SolverConfig(), None)
    assert rep.converged and rep_s.converged
    assert np.max(np.abs(us.values - u.values)) <= 1e-10 * (1.0 + u.sup_norm)


def test_newton_stops_at_the_rounding_floor():
    # the residual of this solve stalls near 1.4e-12, far above 1e-14, so
    # only the floor 4 eps_mach |u|_inf / h^2 (about 3.7e-12) ends it
    # before Newton runs on and stagnates
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    u, rep = solve_eps(g, bd, 0.1, SolverConfig(newton_tol=1e-14), None)
    assert rep.converged and not rep.used_picard
    assert rep.message == "converged at the rounding floor"
    assert 1e-14 < rep.final_residual <= 4 * np.finfo(float).eps * u.sup_norm / g.h1 ** 2
    assert rep.iterations <= 5


def test_solution_agrees_with_lagged_coefficient_route():
    # independent fixed-point route, no Jacobian anywhere
    g = unit_grid_n(33)
    bd = boundary(g, lambda a, b: b)
    un, _ = solve_eps(g, bd, 0.5, SolverConfig(), None)
    up, sweeps, conv = picard_solve(g, bd, 0.5)
    assert conv
    assert np.max(np.abs(un.values - up.values)) <= 1e-6


def test_a_refused_newton_step_ends_the_solve():
    # a zero linear tolerance refuses the first Newton step, which ends the
    # solve with the starting guess as its best iterate
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    with pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 0.5, SolverConfig(linear_tol=0.0), None)
    rep = exc.value.report
    assert not rep.converged and not rep.used_picard
    assert rep.iterations == 0 and rep.step_lengths == []
    assert len(rep.linear_residuals) == 1
    assert np.array_equal(exc.value.best.values, cold_start(bd))


def test_a_line_search_below_min_step_ends_the_solve():
    # steep data at a large eps: Armijo shrinks below min_step before the
    # cap, after a linear solve that met linear_tol
    g = unit_grid_n(33)
    bd = boundary(g, lambda a, b: 3 * np.sin(2 * np.pi * a) * b + 0.3 * b)
    cfg = SolverConfig()
    with pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 4.0, cfg, None)
    rep = exc.value.report
    assert not rep.converged and rep.iterations < cfg.max_newton_iter
    assert len(rep.linear_residuals) == rep.iterations + 1
    assert rep.linear_residuals[-1] <= cfg.linear_tol
    assert rep.final_residual == min(rep.residual_history)
    best = residual_div(Frame(exc.value.best, 4.0)).restrict(1)
    assert float(np.max(np.abs(best))) == rep.final_residual


def test_solved_interior_obeys_boundary_range():
    g = unit_grid_n(33)
    cfg = SolverConfig()
    bd = boundary(g, lambda a, b: 0.5 * np.sin(2 * np.pi * a) + b)
    u, _ = solve_eps(g, bd, 0.5, cfg, None)
    ring = np.concatenate([bd.values[0], bd.values[-1], bd.values[:, 0], bd.values[:, -1]])
    tau = 10.0 * cfg.newton_tol
    assert u.values.min() >= ring.min() - tau
    assert u.values.max() <= ring.max() + tau


def test_newton_tail_contracts_quadratically():
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    _, rep = solve_eps(g, bd, 1.0, SolverConfig(), None)
    hist = rep.residual_history
    below = [k for k, r in enumerate(hist[:-1]) if r < 1e-3]
    assert below, "history never entered the quadratic regime"
    k = below[0]
    assert hist[k + 1] <= 10.0 * hist[k] ** 2


def test_report_residual_matches_reevaluation():
    g = unit_grid_n(33)
    bd = boundary(g, lambda a, b: b * (1.0 - b) + a)
    u, rep = solve_eps(g, bd, 0.5, SolverConfig(), None)
    r = residual_div(Frame(u, 0.5))
    assert r.sup_norm <= SolverConfig().newton_tol
    assert r.sup_norm == pytest.approx(rep.final_residual, rel=1e-6, abs=1e-14)


def test_nonconvergence_carries_best_iterate(monkeypatch):
    g = unit_grid_n(33)
    bd = boundary(g, fan_bump)
    cfg = SolverConfig(max_newton_iter=2)
    calls = []

    def counted(fr):
        calls.append(fr)
        return residual_div(fr)

    monkeypatch.setattr(solver, "residual_div", counted)
    with pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 1e-3, cfg, None)
    err = exc.value
    assert err.best.grid == g
    assert err.report.iterations >= 1
    assert err.report.final_residual > cfg.newton_tol
    # the cap ends the solve: one residual at the top of each Newton
    # iteration, the last one included, plus one per Armijo trial step, and
    # none after the loop
    rep = err.report
    assert rep.iterations == cfg.max_newton_iter == len(rep.step_lengths)
    trials = sum(round(np.log(lam) / np.log(cfg.armijo_shrink)) + 1 for lam in rep.step_lengths)
    assert len(calls) == rep.iterations + 1 + trials


def test_min_step_above_one_still_tries_the_full_step():
    # the line search tries lam = 1 before it compares lam with min_step, so a
    # min_step above 1 changes nothing while every full step is accepted
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    u, rep = solve_eps(g, bd, 0.5, SolverConfig(), None)
    u2, rep2 = solve_eps(g, bd, 0.5, SolverConfig(min_step=2.0), None)
    assert rep.converged and set(rep.step_lengths) == {1.0}
    assert np.array_equal(u2.values, u.values) and rep2 == rep


def test_a_residual_that_overflows_ends_the_solve():
    # |grad u|^2 overflows in the first residual: the starting guess is the
    # best iterate, at an infinite residual
    g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
    bd = boundary(g, lambda a, b: 1e160 * b * np.sin(3 * a))
    with pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 0.5, SolverConfig(), None)
    rep = exc.value.report
    assert not rep.converged and rep.iterations == 0 and rep.linear_residuals == []
    assert rep.final_residual == np.inf and rep.residual_history == [np.inf]
    assert np.array_equal(exc.value.best.values, cold_start(bd))
    with pytest.raises(ValueError, match="epsilon must be positive"):  # not a stop
        solve_eps(g, bd, 0.0, SolverConfig(), None)


def test_an_exactly_singular_jacobian_ends_the_solve():
    # SuperLU finds the first Jacobian exactly singular: a linear step that is
    # not finite, so the starting guess is the best iterate and no LU is kept
    g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
    bd = boundary(g, lambda a, b: 1e100 * a + 0.0 * b)
    cache = LUCache()
    with pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 0.5, SolverConfig(), None, lu_cache=cache)
    rep = exc.value.report
    assert cache.lu is None and cache.factorizations == rep.factorizations == 0
    assert not rep.converged and rep.iterations == 0 and rep.krylov_iterations == [0]
    assert np.isnan(rep.linear_residuals).all() and len(rep.linear_residuals) == 1
    assert rep.final_residual == rep.residual_history[0] == pytest.approx(1.4e101)
    assert np.array_equal(exc.value.best.values, cold_start(bd))


def test_a_trial_step_whose_residual_overflows_is_rejected(monkeypatch):
    # the full first step's residual is made non-finite, which residual_div's
    # GridFunction rejects as it would an overflow: the line search halves
    # the step, and the solve goes on to converge
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    calls = []

    def overflowing(fr):
        calls.append(fr)
        if len(calls) == 2:
            return GridFunction(fr.grid, np.full((g.n1, g.n2), np.inf))
        return residual_div(fr)

    monkeypatch.setattr(solver, "residual_div", overflowing)
    _, rep = solve_eps(g, bd, 0.5, SolverConfig(), None)
    assert rep.converged and rep.step_lengths[0] == SolverConfig().armijo_shrink
    assert rep.residual_history[1] < rep.residual_history[0]
    # one residual per Newton iteration, the last included, and one per trial
    trials = sum(round(np.log2(1 / lam)) + 1 for lam in rep.step_lengths)
    assert len(calls) == rep.iterations + 1 + trials


def test_a_residual_2_norm_that_overflows_accepts_no_trial():
    # an infinite r2 would let the Armijo test pass any finite trial
    g = Grid((0.0, 1.0), (1.0, 2.0), 17, 17)
    u = np.zeros((g.n1, g.n2))
    assert solver._armijo(g, u, np.full((15, 15), 1e3), np.inf, 0.5, SolverConfig()) is None
    # a constant 1e160 has a finite residual whose 2-norm overflows: the solve
    # stops at its starting guess, without a numpy warning
    bd = boundary(g, lambda a, b: 1e160 + 0.0 * a * b)
    with np.errstate(all="raise"), pytest.raises(NonConvergenceError) as exc:
        solve_eps(g, bd, 1.0, SolverConfig(), None)
    rep = exc.value.report
    assert rep.iterations == 0 and rep.step_lengths == [] and np.isfinite(rep.final_residual)
    assert np.array_equal(exc.value.best.values, cold_start(bd))


def test_transfinite_guess_matches_boundary_ring():
    g = unit_grid_n(17)
    bd = boundary(g, lambda a, b: np.cos(a) + b * b)
    guess = transfinite_interpolation(bd)
    assert np.allclose(guess.values[0, :], bd.values[0, :])
    assert np.allclose(guess.values[-1, :], bd.values[-1, :])
    assert np.allclose(guess.values[:, 0], bd.values[:, 0])
    assert np.allclose(guess.values[:, -1], bd.values[:, -1])


def test_transfinite_guess_reproduces_affine_data():
    g = unit_grid_n(17)
    bd = boundary(g, lambda a, b: 2.0 * a - b + 0.5)
    X1, X2 = g.nodes()
    assert np.allclose(transfinite_interpolation(bd).values, 2.0 * X1 - X2 + 0.5, atol=1e-13)


# ----------------------------------------------------------------- schedule

def test_schedule_is_geometric_and_clipped():
    s = EpsSchedule(eps_start=1.0, factor=0.5, eps_min=1e-3)
    vals = s.values()
    assert vals[0] == 1.0
    assert vals[-1] == 1e-3
    for a, b in zip(vals, vals[1:-1]):
        assert b == pytest.approx(0.5 * a)
    assert all(v >= 1e-3 for v in vals)


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsSchedule(eps_start=1e-4, eps_min=1e-3)
    with pytest.raises(ValueError):
        EpsSchedule(factor=1.2)
    with pytest.raises(ValueError):
        EpsSchedule(eps_min=0.0)
    with pytest.raises(ValueError, match="max_steps"):  # values() would still hold eps_start
        EpsSchedule(max_steps=0)


def test_a_schedule_that_does_not_strictly_decrease_is_rejected_by_factor():
    # a subnormal eps times 0.999 rounds back to eps: values() used to hold 64 copies
    with pytest.raises(ValueError, match=r"^factor: eps=1e-322 times 0\.999 rounds back"):
        EpsSchedule(eps_start=1e-322, factor=0.999, eps_min=5e-324)
    # a factor that still shrinks a subnormal eps is accepted
    assert EpsSchedule(eps_start=1e-322, factor=0.5, eps_min=5e-324).values()[-1] == 5e-324


def test_an_infinite_eps_start_is_rejected_by_name():
    # it used to be accepted, and values() gave max_steps copies of inf
    with pytest.raises(ValueError, match="eps_start: must be finite"):
        EpsSchedule(eps_start=np.inf)


def test_solver_config_rejects_a_line_search_that_never_ends():
    # a factor of 1 or more never brings the step below min_step
    for shrink in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="armijo_shrink"):
            SolverConfig(armijo_shrink=shrink)


def test_solver_config_rejects_a_negative_iteration_cap():
    SolverConfig(max_newton_iter=0)  # zero takes no step: the guess is checked only
    with pytest.raises(ValueError, match="max_newton_iter: must be at least 0, got -1"):
        SolverConfig(max_newton_iter=-1)


# ------------------------------------------------------------- continuation

def test_continuation_on_affine_data_is_stationary():
    # the blend of affine data already solves every eps, and the predictor
    # adds its weights times differences that are exactly 0: no Newton step,
    # and every solution is the first bit for bit, ring included
    g = Grid((-0.3, 0.7), (1.0, 2.5), 33, 33)
    bd = boundary(g, affine_graph(0.4, -0.2).eval)
    run = continuation(g, bd, EpsSchedule(), SolverConfig())
    assert len(run.solutions) == 11
    assert [r.iterations for r in run.reports] == [0] * 11
    first = run.solutions[0].values
    for u in run.solutions[1:]:
        assert np.array_equal(u.values, first)
    lip_norms = [u.lip_norm for u in run.solutions]
    assert max(lip_norms) / min(lip_norms) <= 1.0 + 1e-9


def _warm_start_chain(g, bd, schedule):
    """The continuation that starts each eps from the previous solution."""
    cache, guess, solutions, reports = LUCache(), None, [], []
    for eps in schedule.values():
        guess, rep = solve_eps(g, bd, eps, SolverConfig(), initial_guess=guess, lu_cache=cache)
        solutions.append(guess)
        reports.append(rep)
    return solutions, reports


def test_extrapolated_start_matches_the_warm_start_chain_in_fewer_newton_steps():
    # u(eps) is even in eps, so the extrapolation in eps^2 of the last five
    # solutions is nearly the next one: 20 Newton steps against 27
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    run = continuation(g, bd, EpsSchedule(), SolverConfig())
    chain, chain_reports = _warm_start_chain(g, bd, EpsSchedule())
    assert len(run.solutions) == len(chain) == 11
    for a, b in zip(run.solutions, chain):
        assert np.max(np.abs(a.values - b.values)) <= 1e-11
    assert sum(r.iterations for r in run.reports) == 20
    assert sum(r.iterations for r in run.reports) < sum(r.iterations for r in chain_reports)
    # the first two steps have no third solution to extrapolate from, so they
    # start as the chain does and match it bit for bit
    for a, b in zip(run.solutions[:2], chain[:2]):
        assert np.array_equal(a.values, b.values)


def test_five_point_predictor_takes_fewer_newton_steps_than_three(monkeypatch):
    # a slow schedule (45 eps steps) gives the extrapolation points to use:
    # 64 Newton steps through the last five solutions, 72 through three
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    schedule = EpsSchedule(factor=0.9, eps_min=0.01)
    five = continuation(g, bd, schedule, SolverConfig())
    monkeypatch.setattr(solver, "_PREDICTOR_POINTS", 3)
    three = continuation(g, bd, schedule, SolverConfig())
    steps = [sum(r.iterations for r in run.reports) for run in (five, three)]
    assert steps[0] < steps[1]
    for a, b in zip(five.solutions, three.solutions):
        assert np.max(np.abs(a.values - b.values)) <= 1e-11


def test_a_cold_solve_keeps_the_dirichlet_ring_bit_for_bit():
    # the blend rounds the data on its own ring (by 1.1e-16 here); the solve
    # starts inside the data's ring, so its solution carries the data exactly
    g = Grid((-0.3, 0.7), (1.0, 2.5), 33, 33)
    for f in (affine_graph(0.4, -0.2).eval, fan_bump):
        bd = boundary(g, f)
        u, _ = solve_eps(g, bd, 0.5, SolverConfig(), None)
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            assert np.array_equal(u.values[edge], bd.values[edge])


def test_eps_ratios_that_overflow_fall_back_to_the_previous_solution():
    # (1 / 1e-320)^2 overflows, so the third step has no extrapolation and
    # starts from the second solution, as the warm-start chain does
    g = Grid((0.0, 1.0), (1.0, 2.0), 9, 9)
    bd = boundary(g, fan_bump)
    schedule = EpsSchedule(eps_start=1.0, factor=1e-160, eps_min=1e-320)
    run = continuation(g, bd, schedule, SolverConfig())
    chain, chain_reports = _warm_start_chain(g, bd, schedule)
    assert run.eps_values == [1.0, 1e-160, 1e-320]
    for a, b in zip(run.solutions, chain):
        assert np.array_equal(a.values, b.values)
    assert [r.iterations for r in run.reports] == [r.iterations for r in chain_reports]


def test_the_predictor_evaluates_no_residual(monkeypatch):
    # every residual_div call is made inside solve_eps, so perfbench's count
    # of Armijo trials, derived from those calls, keeps its meaning
    depth, outside = [0], []

    def counted_residual(fr):
        if depth[0] == 0:
            outside.append(fr)
        return residual_div(fr)

    def counted_solve(*args, **kwargs):
        depth[0] += 1
        try:
            return solve_eps(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "residual_div", counted_residual)
    monkeypatch.setattr(solver, "solve_eps", counted_solve)
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    run = continuation(g, boundary(g, fan_bump), EpsSchedule(eps_min=0.01), SolverConfig())
    assert len(run.solutions) == 8 and outside == []


def test_continuation_records_and_reverifies_residuals():
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    run = continuation(g, bd, EpsSchedule(eps_min=0.125), SolverConfig())
    assert run.eps_values == [1.0, 0.5, 0.25, 0.125]
    assert len(run.solutions) == len(run.reports) == 4
    residuals = [residual_div(Frame(sol, eps)).sup_norm
                 for eps, sol in zip(run.eps_values, run.solutions)]
    assert max(residuals) <= SolverConfig().newton_tol


def test_continuation_measures_nothing(monkeypatch):
    # the run keeps what the solves produced; the bounds are the ledger's to measure
    calls = []
    for module in (solver, diagnostics):
        if hasattr(module, "m_bound"):
            fn = module.m_bound
            monkeypatch.setattr(module, "m_bound", lambda fr, fn=fn: calls.append(fr) or fn(fr))
    lip_norm = GridFunction.lip_norm.fget
    monkeypatch.setattr(GridFunction, "lip_norm",
                        property(lambda u: calls.append(u) or lip_norm(u)))
    g = unit_grid_n(17)
    run = continuation(g, boundary(g, lambda a, b: 0.5 * a + 0.25 + 0.0 * b),
                       EpsSchedule(eps_min=0.25))
    assert calls == []
    assert [f.name for f in dataclasses.fields(run)] == ["eps_values", "solutions", "reports"]


def test_warm_start_needs_no_more_iterations_than_cold():
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    run = continuation(g, bd, EpsSchedule(eps_min=0.25), SolverConfig())
    warm_iters = run.reports[-1].iterations
    _, cold = solve_eps(g, bd, 0.25, SolverConfig(), None)
    assert warm_iters <= cold.iterations


def test_continuation_failure_keeps_partial_run():
    # steep data plus a brutal jump: the cap that just passes the cold start
    # is one short for the second step
    g = unit_grid_n(17)
    bd = boundary(g, lambda a, b: 2.0 * np.sin(2 * np.pi * a) * b + 0.3 * b)
    cfg = SolverConfig(max_newton_iter=14)
    with pytest.raises(ContinuationError) as exc:
        continuation(g, bd, EpsSchedule(factor=0.005, eps_min=1e-4), cfg)
    err = exc.value
    assert err.eps == pytest.approx(0.005)
    assert len(err.partial_run.solutions) == 1
    assert str(err).startswith(f"continuation stalled at eps={err.eps:g}: no convergence at eps=")
    # the failed solve's best iterate and report ride along
    assert isinstance(err, NonConvergenceError) and not err.report.converged
    assert err.best.grid == g and np.isfinite(err.report.final_residual)


def test_linear_residuals_are_recorded_per_newton_iteration():
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    cfg = SolverConfig()
    run = continuation(g, bd, EpsSchedule(), cfg)
    for rep in run.reports:
        assert len(rep.linear_residuals) == rep.iterations
        assert all(r <= cfg.linear_tol for r in rep.linear_residuals)
        assert len(rep.krylov_iterations) == rep.iterations
        assert rep.factorizations <= rep.krylov_iterations.count(0)
    assert sum(len(rep.linear_residuals) for rep in run.reports) > 0
    assert run.reports[0].krylov_iterations[0] == 0  # nothing to reuse yet
    assert 1 <= sum(rep.factorizations for rep in run.reports) < sum(rep.iterations for rep in run.reports)


# ------------------------------------------------------------- LU reuse

class ForgetfulLUCache(LUCache):
    """Never hands a factorization back, so every Newton step factors afresh."""

    lu = property(lambda self: None, lambda self, value: None)


def test_lu_reuse_matches_a_fresh_factorization_per_step(monkeypatch):
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    reuse = continuation(g, bd, EpsSchedule(), SolverConfig())
    monkeypatch.setattr(solver, "LUCache", ForgetfulLUCache)
    fresh = continuation(g, bd, EpsSchedule(), SolverConfig())
    assert [r.iterations for r in reuse.reports] == [r.iterations for r in fresh.reports]
    assert all(r.factorizations == r.iterations for r in fresh.reports)
    assert all(k == 0 for r in fresh.reports for k in r.krylov_iterations)
    assert sum(r.factorizations for r in reuse.reports) < sum(r.iterations for r in reuse.reports)
    for a, b in zip(reuse.solutions, fresh.solutions):
        assert np.max(np.abs(a.values - b.values)) <= 1e-14


def test_repeated_continuations_are_bit_identical():
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    bd = boundary(g, fan_bump)
    first = continuation(g, bd, EpsSchedule(eps_min=0.01), SolverConfig())
    second = continuation(g, bd, EpsSchedule(eps_min=0.01), SolverConfig())
    for a, b in zip(first.solutions, second.solutions):
        assert np.array_equal(a.values, b.values)
    assert [r.krylov_iterations for r in first.reports] == [r.krylov_iterations for r in second.reports]


def test_stale_preconditioner_falls_back_to_a_fresh_factorization():
    # the LU of the eps = 1 Jacobian cannot precondition eps = 1e-3 well
    # enough, so the first step refactors and the solve matches a cold cache
    g = Grid((0.0, 1.0), (1.0, 2.0), 65, 65)
    bd = boundary(g, fan_bump)
    cache = LUCache()
    u1, _ = solve_eps(g, bd, 1.0, SolverConfig(), None, lu_cache=cache)
    stale = cache.lu
    u, rep = solve_eps(g, bd, 1e-3, SolverConfig(), u1, lu_cache=cache)
    assert rep.converged
    assert rep.krylov_iterations[0] == 0 and rep.factorizations >= 1
    assert cache.lu is not stale
    ref, _ = solve_eps(g, bd, 1e-3, SolverConfig(), u1)
    assert np.max(np.abs(u.values - ref.values)) <= 1e-14


def test_a_continuation_never_converts_its_jacobian_to_csc(monkeypatch):
    # SuperLU factors J^T, a CSC view of the CSR Jacobian's own arrays, and every
    # product with J is a CSR product, so no CSC copy of a Jacobian is made
    def refuse(self, copy=False):
        raise AssertionError("a CSR matrix was converted to CSC")

    monkeypatch.setattr(sp.csr_matrix, "tocsc", refuse)
    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    run = continuation(g, boundary(g, fan_bump), EpsSchedule(eps_min=0.01))
    assert sum(r.factorizations for r in run.reports) >= 2
    assert sum(sum(r.krylov_iterations) for r in run.reports) > 0


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_spsolve_agrees_with_a_direct_lu_of_the_matrix(fmt):
    from scipy.sparse.linalg import splu

    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    x1, x2 = g.nodes()
    u = GridFunction(g, fan_bump(x1, x2) + 0.3 * np.sin(3.0 * x1) * x2)
    J = jacobian_assemble(Frame(u, 0.1)).asformat(fmt)
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    cache = LUCache()
    x, its = solver.spsolve(J, b, cache, 1e-10)
    ref = splu(J.tocsc()).solve(b)
    assert its == 0 and cache.factorizations == 1
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_a_cached_lu_that_is_not_reused_is_dropped_before_factoring(monkeypatch):
    # an LU of another shape is not reused: it must be gone before SuperLU
    # factors (one LU alive at a time), and an exactly singular matrix leaves
    # no LU cached at all
    import scipy.sparse.linalg as spla

    splu = spla.splu
    small = lambda: splu(sp.identity(10, format="csc") * 2.0)
    alive = []
    monkeypatch.setattr(spla, "splu", lambda A, **kw: alive.append(cache.lu) or splu(A, **kw))
    cache = LUCache()
    cache.lu = small()
    x, its = solver.spsolve(sp.diags(np.arange(1.0, 21.0), format="csr"), np.ones(20), cache, 1e-10)
    assert alive == [None] and its == 0 and cache.factorizations == 1
    assert np.allclose(x, 1.0 / np.arange(1.0, 21.0), rtol=1e-15, atol=0.0)

    cache.lu = small()
    singular = sp.diags(np.r_[np.ones(19), 0.0], format="csr")
    x, its = solver.spsolve(singular, np.ones(20), cache, 1e-10)
    assert np.isnan(x).all() and its == 0
    assert alive == [None, None] and cache.lu is None and cache.factorizations == 1


def test_free_heap_pages_go_back_before_each_factorization_and_move_no_bit(monkeypatch):
    # once per factorization, with no LU alive, and a C library without
    # malloc_trim gives the same solutions bit for bit
    import scipy.sparse.linalg as spla

    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    schedule = EpsSchedule(eps_min=0.01)
    monkeypatch.setattr(solver, "_MALLOC_TRIM", None)
    bare = continuation(g, boundary(g, fan_bump), schedule)
    events = []
    monkeypatch.setattr(solver, "_MALLOC_TRIM", lambda pad: events.append(("trim", pad)))
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: events.append(("factor",)) or splu(A, **kw))
    run = continuation(g, boundary(g, fan_bump), schedule)
    factorizations = sum(r.factorizations for r in run.reports)
    assert factorizations >= 2
    assert events == [("trim", 0), ("factor",)] * factorizations
    for a, b in zip(bare.solutions, run.solutions, strict=True):
        assert a.values.tobytes() == b.values.tobytes()


def test_gmres_gives_up_before_the_cap_when_the_cap_cannot_be_reached(monkeypatch):
    # no preconditioner on a 1-D Laplacian: the residual falls far too
    # slowly to reach 1e-10 |b| within 15 iterations
    n = 400
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    b = np.random.default_rng(3).standard_normal(n)
    target = 1e-10 * np.linalg.norm(b)
    x, its = solver._gmres(A, b, np.copy, target, solver._KRYLOV_MAXITER)
    assert x is None and its == solver._KRYLOV_MIN_RATE_ITERS < solver._KRYLOV_MAXITER
    # the full try misses too, so giving up early loses no solution
    monkeypatch.setattr(solver, "_KRYLOV_MIN_RATE_ITERS", solver._KRYLOV_MAXITER + 1)
    assert solver._gmres(A, b, np.copy, target, solver._KRYLOV_MAXITER) == (None, solver._KRYLOV_MAXITER)


def test_givens_gmres_matches_a_least_squares_solve_per_iteration():
    # random systems preconditioned by the LU of a perturbed copy: the larger
    # the perturbation, the more iterations, up to an early-stop miss
    from scipy.sparse.linalg import splu

    def outcome(A, b, lu):
        target = 1e-9 * np.linalg.norm(b)
        x, its = solver._gmres(A, b, lu.solve, target, solver._KRYLOV_MAXITER)
        x_ref, its_ref = gmres_lstsq(A, b, lu.solve, target, solver._KRYLOV_MAXITER)
        assert its == its_ref
        assert (x is None) == (x_ref is None)
        if x is None:
            return "early miss" if its < solver._KRYLOV_MAXITER else "miss"
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        return "hit"

    n = 300
    tridiagonal = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    kinds = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        A = (tridiagonal + sp.random(n, n, density=0.02, random_state=seed)).tocsc()
        noise = sp.random(n, n, density=0.02, random_state=seed + 1000)
        lu = splu((A + 10.0 ** rng.uniform(-6.0, 0.0) * noise).tocsc())
        kinds.add(outcome(A, rng.standard_normal(n), lu))
    assert kinds == {"hit", "early miss"}

    # ill-conditioned: columns scaled by three levels in [1, 1e3] and an LU of
    # the unscaled matrix, so A M^-1 has three clusters of eigenvalues and its
    # Krylov vectors are far from orthogonal; with one pass of classical
    # Gram-Schmidt instead of two, 8 of these 20 answers miss 1e-12
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A0 = tridiagonal + sp.random(n, n, density=0.02, random_state=seed)
        noise = sp.random(n, n, density=0.02, random_state=seed + 1000)
        levels = 10.0 ** np.sort(rng.uniform(0.0, 3.0, 3))
        A = (A0 @ sp.diags(rng.choice(levels, n))).tocsr()
        lu = splu((A0 + 10.0 ** rng.uniform(-8.0, -4.0) * noise).tocsc())
        assert outcome(A, rng.standard_normal(n), lu) == "hit"


@pytest.mark.parametrize("x1", [(0.0, 1e-160), (0.0, 1e-300)], ids=["subnormal", "zero"])
def test_a_grid_whose_spacing_squared_is_not_a_normal_float_is_rejected(x1):
    # the rounding floor divides by the spacing squared: by a subnormal on (0, 1e-160),
    # which makes the floor inf and any residual "converged", and by 0 on (0, 1e-300)
    g = Grid(x1, (1.0, 2.0), 17, 17)
    b = BoundaryData.from_callable(g, lambda x1, x2: x2 * x2 + 1e160 * x1 * x1)
    for run in (lambda: solve_eps(g, b, 0.5), lambda: continuation(g, b)):
        with pytest.raises(ValueError, match=r"^x1: the spacing .* squared is below the smallest"):
            run()
