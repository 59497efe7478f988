"""Tests of the benchmark itself, at sizes small enough for a quick run.

    python3 -m pytest -q perfbench

They run every workload's checks on small inputs, show that the checks catch
broken outputs and that the probes reproduce the faults they stand for, and
assert that the exact counts of a traced run repeat.
"""

import json

import numpy as np
import pytest

import reference as ref
import tracing
import workload as wlm

SMALL = {
    "continuation129": lambda: wlm.Continuation(n=33),
    "pipeline65": lambda: wlm.Pipeline(n=33, mesh=0.02, n_points=5),
    "expansion129": lambda: wlm.Expansion(n=33, n_frozen=33, radii=(0.05, 0.4),
                                          meshes=(0.04, 0.02), n_points=5),
}

EXACT = [name for name, unit, _ in tracing.PER_LAYER if unit in ("count", "bytes", "ratio")]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_small_inputs(name, tmp_path):
    wl = SMALL[name]()
    wl.probe = None  # probes use fixed full-size inputs; see the probe tests
    res = wlm.measure(wl, seed=3, seconds=0.0, workdir=tmp_path)
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    assert {"setup_s", "op_s", "peak_rss_mb"} == set(res["metrics"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat_between_traced_runs(name, tmp_path):
    runs = [wlm.measure_traced(SMALL[name](), seed=5, seconds=0.0, workdir=tmp_path / str(k))
            for k in range(2)]
    for res in runs:
        assert res["correct"]
        assert [m for m, _, _ in tracing.PER_LAYER] == list(res["metrics"])
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
    assert first == second
    assert (tmp_path / "0" / "trace-seed5.jsonl").stat().st_size > 0


def test_probe_is_one_more_operation_per_round(tmp_path):
    res = wlm.measure(SMALL["expansion129"](), seed=3, seconds=0.0, workdir=tmp_path)
    # the timed operation passes; the probe reproduces the oracle fault
    assert res["correct"] and res["attempted"] == 2 and res["failed"] == 1


def test_probes_reproduce_the_oracle_faults(tmp_path):
    import hmingraph.cli
    import hmingraph.geometry as hgeo
    from hmingraph.grid import Grid, GridFunction

    wl = wlm.Expansion()
    g = Grid((0.0, 1.0), (1.0, 2.0), wl.PROBE_N, wl.PROBE_N)
    ff = hgeo.taylor_p1(hgeo.Frame(GridFunction.from_callable(g, ref.fan_bump), 0.25),
                        wlm.BASE)
    st = wlm.ExpansionState(u=None, eps=None, sampled=None, seed=0, probe_frame=ff)
    assert any("oracle distances are 0" in b for b in wl.probe(st))

    pl = wlm.Pipeline()
    ps = pl.setup(0, tmp_path)
    assert hmingraph.cli.main(["solve", str(ps.configs["solve"])]) == 0
    assert any("outside [0.2, 5]" in b for b in pl.probe(ps))


def test_oracle_faults_flag_zero_and_band():
    assert wlm.oracle_faults([0.1, 0.3], [0.1, 0.2]) == []
    bad = wlm.oracle_faults([0.0, 0.3, 1.2], [0.1, 0.2, 0.2])
    assert len(bad) == 2 and "1 of 3" in bad[0] and "[0.000, 6.000]" in bad[1]


def test_host_speed_gauge_ends_its_server():
    import hostspeed

    with hostspeed.KernelServer() as server:
        gauge = hostspeed.Gauge(server)
        gauge.sample()
        assert len(gauge.times) == hostspeed.RUNS_PER_SAMPLE and gauge.scale() > 0
    assert server.proc.poll() == 0


def test_child_timeout_follows_the_run_length():
    import run

    assert run.child_timeout(20) < 180
    assert run.child_timeout(200) > 600


def test_pipeline_counts_cover_every_layer(tmp_path):
    m = wlm.measure_traced(SMALL["pipeline65"](), seed=1, seconds=0.0, workdir=tmp_path)["metrics"]
    for key in ("grid.interp.calls", "operators.jacobian_assemble.calls",
                "solver.newton_iterations", "foliation.leaves", "diagnostics.holder_seminorm.calls",
                "geometry.dist_surrogate_eps.calls", "catalog.shear_graph.calls",
                "cli.bytes_written"):
        assert m[key]["value"] > 0, key
    assert m["catalog.shear_graph.calls"]["value"] == 33 * 33
    assert 0 < m["foliation.seed_yield"]["value"] <= 1


def test_self_times_subtract_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, None],
        ["a.x", 1.0, 5.0, 0, None],
        ["b.y", 2.0, 3.0, 1, None],
        ["b.y", 6.0, 8.0, 0, None],
        ["other", 20.0, 21.0, -1, None],
    ]
    assert tracing.self_times(spans, 0) == {"op": 4.0, "a.x": 3.0, "b.y": 3.0}
    tot = tracing.subtree_totals(spans, 1)
    assert tot == {"a.x.s": 4.0, "a.x.calls": 1, "b.y.s": 1.0, "b.y.calls": 1}


def test_armijo_trials_are_residuals_beyond_one_per_iteration():
    info = {"iterations": 2, "accepted": 2, "picard": False}
    spans = [["solver.solve_eps", 0.0, 1.0, -1, info]]
    spans += [["operators.residual_div", 0.1 * k, 0.1 * k + 0.05, 0, None] for k in range(1, 6)]
    tot = tracing.subtree_totals(spans, 0)
    assert tot["solver.armijo.trials"] == 5 - 3
    assert tot["solver.newton_iterations"] == 2


def test_continuation_check_catches_a_broken_run():
    wl = SMALL["continuation129"]()
    st = wl.setup(0, None)
    run = wl.op(st, tracing.Tracer())
    assert wlm.check_continuation(st, run) == []
    run.solutions[3].values[0, 5] += 1e-9
    run.eps_values[2] *= 1.0 + 1e-15
    bad = wlm.check_continuation(st, run)
    assert any("boundary ring" in b for b in bad) and any("schedule" in b for b in bad)


def test_pipeline_check_catches_changed_artifacts(tmp_path):
    wl = SMALL["pipeline65"]()
    st = wl.setup(2, tmp_path)
    wl.reset(st)
    assert wl.check(st, wl.op(st, tracing.Tracer())) == []
    leaf = st.tree / "foliate" / "leaf_000.csv"
    rows = leaf.read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-12)
    leaf.write_text("\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n")
    bad = wl.check(st, {cmd: 0 for cmd in wlm.PIPELINE})
    assert any("differ from the first" in b for b in bad)
    assert any("seed + t" in b for b in bad)


def test_closed_form_gauge_matches_the_shooter():
    import hmingraph.geometry as hgeo
    from hmingraph.grid import Grid, GridFunction

    g = Grid((0.0, 1.0), (1.0, 2.0), 33, 33)
    X1, X2 = ref.nodes((0.0, 1.0), (1.0, 2.0), 33, 33)
    vals = ref.fan_bump(X1, X2)
    rng = np.random.default_rng(11)
    for eps in (1.0, 0.25, 0.01):
        ff = hgeo.taylor_p1(hgeo.Frame(GridFunction(g, vals), eps), (0.5, 1.5))
        model = ref.frozen_model(vals, (0.0, 1.0), (1.0, 2.0), 16, 16, eps)
        assert np.allclose(model, (ff.u0, ff.x1u0, ff.x2u0), rtol=0, atol=1e-15)
        pts = 0.5 * rng.uniform(-0.2, 0.2, size=(25, 3)) + [0.5, 1.5, 0.0]
        e = ref.frozen_coords(model, (0.5, 1.5), eps, pts[:, 0], pts[:, 1], pts[:, 2])
        got = [hgeo.dist_surrogate_eps(ff, hgeo.LiftedPoint(*p)) for p in pts]
        assert ref.relative_error(got, ref.gauge_eps(*e, eps)) <= 1e-10


def test_schedule_reference_is_the_default_schedule():
    from hmingraph.solver import EpsSchedule

    assert ref.geometric_schedule() == EpsSchedule().values()
    assert len(ref.geometric_schedule()) == 11


def test_runner_refuses_a_checkout_without_sources(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "continuation129", "--seconds", "1"]) == 2


def test_result_line_is_json(tmp_path, capsys):
    wlm.main(["--workload", "continuation129", "--seed", "0", "--seconds", "0",
              "--trace", "0", "--workdir", str(tmp_path)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    res = json.loads(last)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
