"""In-process command line tests: exit codes, artifacts, determinism."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hmingraph
from hmingraph import UnreachableError, cli
from hmingraph.cli import ConfigError, _output_dir, _write_csv, boundary_expression, canonical_json, main
from hmingraph.geometry import OracleLattice

from crosscheck import _swept_lattice


def write_cfg(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def solve_cfg(out_dir, **overrides):
    cfg = {
        "grid": {"x1": [0, 1], "x2": [0, 1], "n1": 17, "n2": 17},
        "boundary": {"expr": "2*x1 - 1"},
        "eps": 0.5,
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def run_cli(command, cfg, timeout=None):
    """``python -m hmingraph.cli command cfg`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(hmingraph.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "hmingraph.cli", command, cfg],
                          capture_output=True, text=True, env=env, timeout=timeout)


def load_u_column(csv_path):
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


@pytest.fixture(scope="module")
def fan_run_dir(tmp_path_factory):
    """A completed three-step continuation used by the read-back commands."""
    base = tmp_path_factory.mktemp("fanrun")
    run_dir = base / "run"
    cfg = write_cfg(base / "cont.json", {
        "grid": {"x1": [0, 1], "x2": [1, 2], "n1": 33, "n2": 33},
        "boundary": {"expr": "x2 / (x1 + 2)"},
        "schedule": {"eps_start": 1.0, "factor": 0.5, "eps_min": 0.25},
        "output_dir": str(run_dir),
    })
    assert main(["continuation", cfg]) == 0
    return run_dir


class TestSolve:
    def test_affine_solve_writes_exact_solution(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(out)
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 0
        x1, x2, u = load_u_column(out / "solution.csv")
        assert np.max(np.abs(u - (2 * x1 - 1))) <= 1e-12
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["eps"] == 0.5
        assert report["final_residual"] <= 1e-12

    def test_report_hash_matches_the_config(self, tmp_path):
        import hashlib
        out = tmp_path / "out"
        cfg = solve_cfg(out)
        main(["solve", write_cfg(tmp_path / "c.json", cfg)])
        report = json.loads((out / "report.json").read_text())
        assert report["config_sha256"] == hashlib.sha256(canonical_json(cfg).encode()).hexdigest()

    def test_catalog_boundary(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(out, boundary={"catalog": "affine", "params": {"a": 2, "c": -1}})
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 0
        x1, x2, u = load_u_column(out / "solution.csv")
        assert np.max(np.abs(u - (2 * x1 - 1))) <= 1e-12

    def test_nonconvergence_exits_2_and_keeps_the_best_iterate(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = {
            "grid": {"x1": [0, 1], "x2": [1, 2], "n1": 33, "n2": 33},
            "boundary": {"expr": "x2 / (x1 + 2) + 0.25*x1*(1 - x1)"},
            "eps": 0.001,
            "solver": {"max_newton_iter": 2, "picard_fallback": False},
            "output_dir": str(out),
        }
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 2
        assert (out / "solution.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] >= 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("no convergence at eps=0.001: best residual")

    def test_a_residual_that_overflows_exits_2_and_keeps_the_starting_guess(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = solve_cfg(out, grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17},
                        boundary={"expr": "1e160*x2*sin(3*x1)"})
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 2
        grid = hmingraph.Grid((0, 1), (1, 2), 17, 17)
        bd = hmingraph.BoundaryData.from_callable(grid, lambda a, b: 1e160 * b * np.sin(3 * a))
        # the blend's interior inside the data's own ring
        guess = bd.impose(hmingraph.transfinite_interpolation(bd).values[1:-1, 1:-1])
        assert np.array_equal(load_u_column(out / "solution.csv")[2], guess.ravel())
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False and report["iterations"] == 0
        assert report["final_residual"] == report["residual_history"][0] == np.inf
        err = capsys.readouterr().err.splitlines()
        assert err == ["no convergence at eps=0.5: best residual inf"]

    @pytest.mark.parametrize("command, message", [
        ("solve", "no convergence at eps=0.5: best residual 3.000e+81"),
        ("continuation",
         "continuation stalled at eps=1: no convergence at eps=1.0: best residual 3.000e+81"),
    ], ids=["solve", "continuation"])
    def test_an_exactly_singular_jacobian_exits_2_and_keeps_the_best_iterate(
            self, tmp_path, capsys, command, message):
        out = tmp_path / "out"
        cfg = solve_cfg(out, grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17},
                        boundary={"expr": "1e80*x1"}, schedule={"eps_min": 0.25})
        assert main([command, write_cfg(tmp_path / "c.json", cfg)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "solution.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False and report["iterations"] == 0
        assert capsys.readouterr().err.splitlines() == [message]

    def test_a_jacobian_that_overflows_exits_2_on_one_line(self, tmp_path):
        # in a fresh interpreter, so that a numpy overflow warning would show on stderr
        cfg = solve_cfg(tmp_path / "out", grid={"x1": [0, 1], "x2": [1, 2], "n1": 33, "n2": 33},
                        boundary={"expr": "1e100*x1"})
        done = run_cli("solve", write_cfg(tmp_path / "c.json", cfg))
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["no convergence at eps=0.5: best residual 3.100e+101"]

    def test_missing_eps_is_a_config_error(self, tmp_path, capsys):
        cfg = solve_cfg(tmp_path / "out")
        del cfg["eps"]
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1
        assert "eps" in capsys.readouterr().err

    def test_unknown_solver_key_is_named(self, tmp_path, capsys):
        cfg = solve_cfg(tmp_path / "out", solver={"newton_iterations": 3})
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1
        assert "newton_iterations" in capsys.readouterr().err

    def test_retired_picard_keys_are_accepted_and_ignored(self, tmp_path):
        plain, retired = tmp_path / "plain", tmp_path / "retired"
        main(["solve", write_cfg(tmp_path / "p.json", solve_cfg(plain))])
        cfg = solve_cfg(retired, solver={"picard_fallback": True, "max_picard_iter": 5})
        assert main(["solve", write_cfg(tmp_path / "r.json", cfg)]) == 0
        assert '"used_picard": false' in (retired / "report.json").read_text()
        assert (retired / "solution.csv").read_bytes() == (plain / "solution.csv").read_bytes()


class TestConfigHandling:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"grid": }')
        assert main(["solve", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{p}:1:" in err

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_missing_output_dir_mentions_the_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HMINGRAPH_OUT", raising=False)
        cfg = solve_cfg(tmp_path / "out")
        del cfg["output_dir"]
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1
        assert "HMINGRAPH_OUT" in capsys.readouterr().err

    @pytest.mark.parametrize("via_env", [False, True])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_output_path_on_a_file_is_exit_1(self, tmp_path, capsys, monkeypatch, via_env, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        target = blocker / under if under else blocker
        cfg = solve_cfg(tmp_path / "ignored" if via_env else target)
        if via_env:
            monkeypatch.setenv("HMINGRAPH_OUT", str(target))
        else:
            monkeypatch.delenv("HMINGRAPH_OUT", raising=False)
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "taken"]
        assert blocker.read_text() == "not a directory\n"

    def test_a_failed_mkdir_leaves_no_directory_it_made(self, tmp_path, capsys, monkeypatch):
        # mkdir makes "made", then fails on a name longer than a path component may be
        monkeypatch.delenv("HMINGRAPH_OUT", raising=False)
        out = tmp_path / "made" / ("x" * 300)
        assert main(["solve", write_cfg(tmp_path / "c.json", solve_cfg(out))]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_env_override_redirects_output(self, tmp_path, monkeypatch):
        other = tmp_path / "redirected"
        monkeypatch.setenv("HMINGRAPH_OUT", str(other))
        cfg = solve_cfg(tmp_path / "ignored")
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 0
        assert (other / "solution.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_lock_file_blocks_a_second_writer(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").touch()
        cfg = solve_cfg(out)
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1
        assert "already in use" in capsys.readouterr().err

    def test_stale_lock_is_reported_with_its_pid(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path / "c.json", solve_cfg(out))
        (out / ".lock").write_text("4242\n")
        assert main(["solve", cfg]) == 1
        assert "already in use by PID 4242" in capsys.readouterr().err
        (out / ".lock").write_text("")
        assert main(["solve", cfg]) == 1
        assert "no PID could be read" in capsys.readouterr().err
        assert (out / ".lock").exists()  # never removed automatically

    def test_lock_holds_the_writer_pid(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HMINGRAPH_OUT", raising=False)
        with _output_dir({"output_dir": str(tmp_path)}):
            assert int((tmp_path / ".lock").read_text()) == os.getpid()
        assert not (tmp_path / ".lock").exists()

    @pytest.mark.parametrize("call, code", [("write", errno.ENOSPC), ("open", errno.EROFS)],
                             ids=["pid-write-fails", "lock-open-fails"])
    def test_lock_io_error_is_exit_1_and_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                        call, code):
        # a lock left behind, empty, would block every later run into the directory
        monkeypatch.delenv("HMINGRAPH_OUT", raising=False)
        out = tmp_path / "made" / "out"
        cfg = write_cfg(tmp_path / "c.json", solve_cfg(out))

        def fail(*args):  # as the call fails: os.open names its path, os.write no file
            raise OSError(code, os.strerror(code), *args[:1] if call == "open" else ())

        with monkeypatch.context() as m:
            m.setattr(cli.os, call, fail)
            assert main(["solve", cfg]) == 1
        assert capsys.readouterr().err == f"error: {out / '.lock'}: {os.strerror(code)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert main(["solve", cfg]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "solution.csv"]

    def test_lock_is_released_after_a_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", solve_cfg(out))
        assert main(["solve", cfg]) == 0
        assert not (out / ".lock").exists()


class TestBoundaryExpressions:
    def test_whitelisted_arithmetic_works(self):
        f = boundary_expression("sin(pi*x1) + x2**2 - 0.5")
        assert f(0.5, 2.0) == pytest.approx(1.0 + 4.0 - 0.5)

    @pytest.mark.parametrize("src", [
        "__import__('os')",
        "open('/etc/passwd')",
        "x1.real",
        "(lambda: 1)()",
        "[1, 2]",
        "x3 + 1",
    ])
    def test_non_arithmetic_sources_are_rejected(self, src):
        with pytest.raises(ConfigError):
            boundary_expression(src)

    def test_rejection_reaches_the_exit_code(self, tmp_path, capsys):
        cfg = solve_cfg(tmp_path / "out", boundary={"expr": "__import__('os')"})
        assert main(["solve", write_cfg(tmp_path / "c.json", cfg)]) == 1


class TestExitOneWritesNothing:
    """A config or run-data error ends in exit 1 with its message on stderr,
    and no output directory is left behind."""

    @staticmethod
    def exit_1(tmp_path, capsys, command, cfg, message):
        assert main([command, write_cfg(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_root_that_is_not_an_object(self, tmp_path, capsys):
        self.exit_1(tmp_path, capsys, "solve", [], "c.json:1: config root must be an object")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # it used to end in a UnicodeDecodeError traceback
        path = tmp_path / "c.json"
        path.write_bytes(b'{"output_dir": "%s", "grid": \xff}' % str(tmp_path / "out").encode())
        offset = path.read_bytes().index(b"\xff")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8: invalid start byte at byte {offset}\n"
        assert not (tmp_path / "out").exists()

    def test_schedule_whose_eps_rounds_back_to_itself(self, tmp_path, capsys):
        # a subnormal eps times factor rounds back to eps: the run used to make 64
        # identical solves, then end in a ledger traceback and an empty directory
        cfg = solve_cfg(tmp_path / "out", schedule={"eps_start": 1e-322, "factor": 0.999,
                                                    "eps_min": 5e-324})
        self.exit_1(tmp_path, capsys, "continuation", cfg, "error: schedule.factor: eps=1e-322")

    @pytest.mark.parametrize("boundary, message", [
        ({"expr": "x1 +"}, "boundary.expr: invalid syntax"),
        ({"expr": "x1 * 'a'"}, "boundary.expr: only numeric literals allowed"),
        ({"expr": "True + x1"}, "boundary.expr: only numeric literals allowed"),
        ({"expr": "False"}, "boundary.expr: only numeric literals allowed"),
        ({"expr": "x1 * True"}, "boundary.expr: only numeric literals allowed"),
        ({}, "boundary.expr: required unless boundary.catalog is given"),
        ({"catalog": "pauls"}, "boundary evaluation failed: the piecewise-rational graph needs x1 > 1"),
        ({"expr": "1/0"}, "boundary evaluation failed: float division by zero"),
        ({"expr": "10.0 ** 400"}, "boundary evaluation failed"),
        ({"expr": "2 ** 10000"}, "boundary evaluation failed"),
        ({"expr": "(-1) ** 0.5"}, "boundary evaluation failed"),
        ({"expr": "-" * 1000 + "x1"}, "boundary.expr: nested too deeply"),
        ({"expr": "x1", "catalog": "affine"},
         "boundary.catalog: not allowed together with boundary.expr"),
        ({"expr": "x1", "params": {"a": 1}}, "boundary.params: only the affine entry takes params"),
        ({"catalog": "shear-neg", "params": {"a": 1}},
         "boundary.params: only the affine entry takes params"),
    ], ids=["syntax", "string-literal", "true-literal", "false-literal", "true-factor", "empty",
            "outside-the-domain", "zero-division", "float-overflow", "integer-power", "complex",
            "nested-too-deeply", "expr-and-catalog", "expr-params", "catalog-params"])
    def test_boundary(self, tmp_path, capsys, boundary, message):
        self.exit_1(tmp_path, capsys, "solve", solve_cfg(tmp_path / "out", boundary=boundary),
                    message)

    @pytest.mark.parametrize("command, grid, message", [
        ("solve", {"x2": [-1e308, 1e308]}, "error: grid.x2: the spacing inf is not a positive"),
        ("solve", {"x1": [0, 5e-324]}, "error: grid.x1: the spacing 0 is not a positive"),
        ("continuation", {"x2": [-1e308, 1e308]},
         "error: grid.x2: the spacing inf is not a positive"),
        # the spacing squared is subnormal, or 0: the rounding floor would be inf, or divide by 0
        ("solve", {"x1": [0, 1e-160]},
         "error: grid.x1: the spacing 6.25e-162 squared is below the smallest normal float"),
        ("continuation", {"x1": [0, 1e-160]},
         "error: grid.x1: the spacing 6.25e-162 squared is below the smallest normal float"),
        ("solve", {"x1": [0, 1e-300]},
         "error: grid.x1: the spacing 6.25e-302 squared is below the smallest normal float"),
        ("continuation", {"x1": [0, 1e-300]},
         "error: grid.x1: the spacing 6.25e-302 squared is below the smallest normal float"),
    ], ids=["solve-infinite-spacing", "solve-zero-spacing", "continuation-infinite-spacing",
            "solve-subnormal-spacing-squared", "continuation-subnormal-spacing-squared",
            "solve-spacing-squared-zero", "continuation-spacing-squared-zero"])
    def test_grid_spacing(self, tmp_path, capsys, command, grid, message):
        cfg = solve_cfg(tmp_path / "out", boundary={"expr": "1"}, schedule={},
                        grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17, **grid})
        self.exit_1(tmp_path, capsys, command, cfg, message)

    def test_tower_of_integer_powers_ends_within_seconds(self, tmp_path):
        # as a big-integer power 9 ** 9 ** 9 ran past a minute; the timeout
        # fails the test in place of hanging the suite
        cfg = solve_cfg(tmp_path / "out", boundary={"expr": "9 ** 9 ** 9"}, schedule={})
        done = run_cli("continuation", write_cfg(tmp_path / "c.json", cfg), timeout=60)
        assert done.returncode == 1
        assert "error: boundary evaluation failed" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_params_for_an_example_other_than_affine(self, tmp_path, capsys):
        cfg = {"example": {"name": "pauls", "params": {"a": 1}}, "output_dir": str(tmp_path / "out"),
               "grid": {"x1": [2, 4], "x2": [0.2, 1.2], "n1": 9, "n2": 9}}  # where pauls is defined
        self.exit_1(tmp_path, capsys, "example", cfg,
                    "example.params: only the affine entry takes params")

    def test_example_that_overflows(self, tmp_path):
        # in a fresh interpreter, so that a numpy overflow warning would show on stderr
        cfg = {"example": {"name": "affine", "params": {"a": 1e308, "c": 0}},
               "grid": {"x1": [2, 4], "x2": [-1, 1], "n1": 33, "n2": 33},
               "output_dir": str(tmp_path / "out")}
        done = run_cli("example", write_cfg(tmp_path / "c.json", cfg))
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: example 'affine(a=1e+308, c=0)' undefined on this grid: "
            "grid function values must be finite at every node"]
        assert not (tmp_path / "out").exists()

    def test_final_solution_with_four_columns(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "report.json").write_text('{"eps": 0.5}\n')
        (run / "solution.csv").write_text("x1,x2,u,v\n0,0,0,0\n0,1,0,0\n1,0,0,0\n1,1,0,0\n")
        self.exit_1(tmp_path, capsys, "foliate",
                    {"foliate": {"run_dir": str(run)}, "output_dir": str(tmp_path / "out")},
                    "solution.csv: expected columns x1,x2,u")

    def test_min_separation_beyond_the_box(self, fan_run_dir, tmp_path, capsys):
        self.exit_1(tmp_path, capsys, "distance", {
            "distance": {"run_dir": str(fan_run_dir), "x0": [0.5, 1.5], "n_points": 1,
                         "min_separation": 1.0},
            "output_dir": str(tmp_path / "out"),
        }, "distance: could not sample the requested number of points")


def test_interrupted_write_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "solution_000.csv"
    _write_csv(path, ["x1", "x2", "u"], [(0.0, 1.0, 2.0)])
    before = path.read_bytes()

    def rows():
        yield (1.0, 2.0, 3.0)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _write_csv(path, ["x1", "x2", "u"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_block_writer_matches_per_value_formatting(tmp_path, monkeypatch):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, -1e-310, 1e308,
               -1e308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 123456789.0]
    rng = np.random.default_rng(7)
    data = rng.choice(np.array(special), size=(23, 3))
    data[:, 1] = rng.standard_normal(23) * 10.0 ** rng.integers(-300, 300, 23)
    monkeypatch.setattr("hmingraph.cli._CSV_BLOCK", 5)  # several blocks, one short
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b", "c"], data)
    want = "a,b,c\n" + "".join(",".join("%.17g" % float(v) for v in row) + "\n" for row in data)
    assert path.read_text() == want
    _write_csv(path, ["a", "b", "c"], np.empty((0, 3)))
    assert path.read_text() == "a,b,c\n"


def _generic_solution_csv(path, sol):
    """``sol`` written by the generic writer: one (x1, x2, u) row per node in C order."""
    x1, x2 = sol.grid.nodes()
    _write_csv(path, ["x1", "x2", "u"], np.column_stack([x1.ravel(), x2.ravel(), sol.values.ravel()]))


_RANGES = {  # coordinate ranges: negative, tiny, huge, subnormal
    "negative": (-7.3, -0.2), "straddling": (-1.0, 2.5), "tiny": (1e-9, 1.000001e-9),
    "huge": (-1e300, 1e300), "subnormal": (0.0, 1e-320),
}


def _extreme_field(data):
    """A field on a drawn grid of ``_RANGES``, with values from subnormal to
    near the float maximum, signed zeros among them."""
    n1, n2 = data.draw(st.integers(3, 40), label="n1"), data.draw(st.integers(3, 40), label="n2")
    x1 = _RANGES[data.draw(st.sampled_from(sorted(_RANGES)), label="x1 range")]
    x2 = _RANGES[data.draw(st.sampled_from(sorted(_RANGES)), label="x2 range")]
    grid = hmingraph.Grid(x1, x2, n1, n2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    values = rng.standard_normal((n1, n2)) * 10.0 ** rng.integers(-300, 300, (n1, n2))
    special = [-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.7976931348623157e308, 1 / 3]
    values.flat[rng.choice(n1 * n2, min(len(special), n1 * n2), replace=False)] = special[:n1 * n2]
    return hmingraph.GridFunction(grid, values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_solution_writer_gives_the_generic_csv_bytes(data, tmp_path):
    sol = _extreme_field(data)
    with pytest.MonkeyPatch.context() as mp:  # blocks of one row, a few rows, or all
        mp.setattr(cli, "_CSV_BLOCK", data.draw(st.sampled_from([1, 5, 4096]), label="block"))
        cli._solution_writer(sol.grid)(tmp_path / "fast.csv", sol)
        _generic_solution_csv(tmp_path / "generic.csv", sol)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_written_solution_reads_back_bit_for_bit(data, tmp_path):
    # the reader's check that the coordinates are the grid's passes every file the writer makes
    sol = _extreme_field(data)
    cli._solution_writer(sol.grid)(tmp_path / "u.csv", sol)
    back = cli._read_solution_csv(tmp_path / "u.csv")
    assert back.grid == sol.grid
    assert back.values.tobytes() == sol.values.tobytes()


def test_solution_writer_spans_blocks_like_the_generic_csv(tmp_path):
    # 70 x 61 = 4270 rows, more than one block of _CSV_BLOCK
    grid = hmingraph.Grid((-3.0, 0.5), (1e-3, 2.0), 70, 61)
    assert grid.n1 * grid.n2 > cli._CSV_BLOCK
    sol = hmingraph.GridFunction(grid, np.random.default_rng(5).standard_normal((70, 61)))
    cli._solution_writer(grid)(tmp_path / "fast.csv", sol)
    _generic_solution_csv(tmp_path / "generic.csv", sol)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


def test_a_stalled_solve_writes_its_best_iterate_as_the_generic_csv(tmp_path, monkeypatch):
    failures = []

    def solve_eps(*args):
        try:
            return hmingraph.solve_eps(*args)
        except hmingraph.NonConvergenceError as e:
            failures.append(e)
            raise

    monkeypatch.setattr(cli, "solve_eps", solve_eps)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "c.json", {
        "grid": {"x1": [0, 1], "x2": [1, 2], "n1": 33, "n2": 33},
        "boundary": {"expr": "x2 / (x1 + 2) + 0.25*x1*(1 - x1)"},
        "eps": 0.001,
        "solver": {"max_newton_iter": 2},
        "output_dir": str(out),
    })
    assert main(["solve", cfg]) == 2
    _generic_solution_csv(tmp_path / "generic.csv", failures[0].best)
    assert (out / "solution.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


class TestCorruptedRunDirectory:
    """Damaged artifacts end in exit 1 with the file named, not a traceback."""

    @staticmethod
    def diagnose(run_dir, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {"diagnose": {"run_dir": str(run_dir)},
                                              "output_dir": str(tmp_path / "out")})
        code = main(["diagnose", cfg])
        return code, capsys.readouterr().err

    def test_repeated_row_hiding_a_missing_node(self, fan_run_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(fan_run_dir, run_dir)
        path = run_dir / "solution_002.csv"  # the final solution, the one diagnose reads
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[4]  # same row count, one node twice and one node never
        path.write_text("".join(lines))
        code, err = self.diagnose(run_dir, tmp_path, capsys)
        assert code == 1
        assert f"error: {path}: rows do not form a full lattice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, artifact", [("foliate", "leaves.json"),
                                                   ("diagnose", "verdict.json")])
    def test_unevenly_spaced_coordinates(self, tmp_path, capsys, command, artifact):
        # x1 -> x1**2 keeps the endpoints, the order and the node count
        run_dir = tmp_path / "run"
        cfg = solve_cfg(run_dir, grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17},
                        schedule={"max_steps": 1})
        del cfg["eps"]
        assert main(["continuation", write_cfg(tmp_path / "run.json", cfg)]) == 0
        path = run_dir / "solution_000.csv"
        head, *rows = path.read_text().splitlines()
        rows = [f"{float(x1) ** 2!r},{rest}" for x1, rest in (r.split(",", 1) for r in rows)]
        path.write_text("\n".join([head, *rows]) + "\n")
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", {command: {"run_dir": str(run_dir)},
                                              "output_dir": str(out)})
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: coordinates are not evenly spaced"), err
        assert "Traceback" not in err
        assert not (out / artifact).exists()

    def test_final_solution_that_is_a_directory(self, fan_run_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(fan_run_dir, run_dir)
        path = run_dir / "solution_002.csv"
        path.unlink()
        path.mkdir()
        code, err = self.diagnose(run_dir, tmp_path, capsys)
        assert code == 1
        assert err.startswith(f"error: {path}: unreadable"), err
        assert "Traceback" not in err

    def test_run_json_that_is_a_directory(self, fan_run_dir, tmp_path, capsys):
        # an OSError inside the command is exit 1 too, and the output
        # directory the command made goes with its lock
        run_dir = tmp_path / "run"
        shutil.copytree(fan_run_dir, run_dir)
        path = run_dir / "run.json"
        path.unlink()
        path.mkdir()
        code, err = self.diagnose(run_dir, tmp_path, capsys)
        assert code == 1
        assert err == f"error: {path}: {os.strerror(errno.EISDIR)}\n"
        assert not (tmp_path / "out").exists()

    def test_an_artifact_that_cannot_replace_a_directory_is_named(self, fan_run_dir, tmp_path,
                                                                  capsys):
        # os.replace fails on the directory; the line names the artifact,
        # not the temporary file that is removed with the lock
        path = tmp_path / "out" / "verdict.json"
        path.mkdir(parents=True)
        code, err = self.diagnose(fan_run_dir, tmp_path, capsys)
        assert code == 1
        assert err == f"error: {path}: {os.strerror(errno.EISDIR)}\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["verdict.json"]

    def test_truncated_run_json(self, fan_run_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(fan_run_dir, run_dir)
        path = run_dir / "run.json"
        path.write_text(path.read_text()[:40])
        code, err = self.diagnose(run_dir, tmp_path, capsys)
        assert code == 1
        assert f"error: {path}: unreadable" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["diagnose", "foliate"])
    @pytest.mark.parametrize("key, value", [
        ("files", 5), ("eps_values", 5), ("eps_values", ["x"]),
        ("lip_norms", []), ("lip_norms", [1.0, 1.0, -1.0]), ("lip_norms", [1.0, 1.0, "x"]),
    ], ids=["files=5", "eps_values=5", "eps_values=[x]", "lip_norms=[]", "lip_norms<0",
            "lip_norms=[..x]"])
    def test_malformed_run_json_value(self, fan_run_dir, tmp_path, capsys, command, key, value):
        run_dir = tmp_path / "run"
        shutil.copytree(fan_run_dir, run_dir)
        path = run_dir / "run.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        cfg = write_cfg(tmp_path / "c.json", {command: {"run_dir": str(run_dir)},
                                              "output_dir": str(tmp_path / "out")})
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and key in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", ["x", [1]])
    def test_malformed_report_json_eps(self, tmp_path, capsys, eps):
        solved = tmp_path / "solved"
        assert main(["solve", write_cfg(tmp_path / "s.json", solve_cfg(solved))]) == 0
        path = solved / "report.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "eps": eps}))
        cfg = write_cfg(tmp_path / "f.json", {"foliate": {"run_dir": str(solved)},
                                              "output_dir": str(tmp_path / "fol")})
        assert main(["foliate", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: eps: "), err
        assert "Traceback" not in err

    def test_report_json_without_eps(self, tmp_path, capsys):
        solved = tmp_path / "solved"
        assert main(["solve", write_cfg(tmp_path / "s.json", solve_cfg(solved))]) == 0
        path = solved / "report.json"
        for text in (path.read_text()[:30], '{"converged": true}'):
            path.write_text(text)
            cfg = write_cfg(tmp_path / "f.json", {"foliate": {"run_dir": str(solved)},
                                                  "output_dir": str(tmp_path / "fol")})
            assert main(["foliate", cfg]) == 1
            err = capsys.readouterr().err
            assert f"error: {path}: unreadable" in err
            assert "Traceback" not in err


class TestContinuationCommand:
    def test_artifact_layout(self, fan_run_dir):
        names = sorted(p.name for p in fan_run_dir.iterdir())
        assert names == ["ledger.json", "run.json",
                         "solution_000.csv", "solution_001.csv", "solution_002.csv"]
        meta = json.loads((fan_run_dir / "run.json").read_text())
        assert meta["eps_values"] == [1.0, 0.5, 0.25]
        assert len(meta["sup_diffs"]) == 2
        ledger = json.loads((fan_run_dir / "ledger.json").read_text())
        assert [r["eps"] for r in ledger["rows"]] == [1.0, 0.5, 0.25]

    def test_run_json_bounds_read_back_from_the_ledger_and_the_solutions(self, tmp_path):
        out = tmp_path / "out"
        cfg = solve_cfg(out, boundary={"expr": "x2 / (x1 + 2) + 0.25*x1*(1 - x1)"},
                        grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17},
                        schedule={"eps_min": 0.25})
        assert main(["continuation", write_cfg(tmp_path / "c.json", cfg)]) == 0
        meta = json.loads((out / "run.json").read_text())
        ledger = json.loads((out / "ledger.json").read_text())
        assert meta["m_bounds"] == [row["M"] for row in ledger["rows"]]
        sols = [cli._read_solution_csv(out / name) for name in meta["files"]]
        assert meta["lip_norms"] == [u.lip_norm for u in sols]
        assert meta["sup_diffs"] == [float(np.max(np.abs(b.values - a.values)))
                                     for a, b in zip(sols, sols[1:])]
        assert len(meta["sup_diffs"]) == 2

    def test_unknown_schedule_key_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = solve_cfg(out, schedule={"eps_start": 1.0, "eps_stop": 0.25})
        del cfg["eps"]
        assert main(["continuation", write_cfg(tmp_path / "c.json", cfg)]) == 1
        assert "eps_stop" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    def test_stall_keeps_the_converged_prefix_and_the_best_iterate(self, tmp_path, capsys):
        # the cap that just passes the cold start is one short for the second step
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", {
            "grid": {"x1": [0, 1], "x2": [0, 1], "n1": 17, "n2": 17},
            "boundary": {"expr": "2*sin(2*pi*x1)*x2 + 0.3*x2"},
            "schedule": {"factor": 0.005, "eps_min": 1e-4},
            "solver": {"max_newton_iter": 14},
            "output_dir": str(out),
        })
        assert main(["continuation", cfg]) == 2
        assert json.loads((out / "run.json").read_text())["eps_values"] == [1.0]
        assert (out / "solution.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["eps"] == 0.005
        assert np.isfinite(report["final_residual"])
        assert capsys.readouterr().err.count("continuation stalled at eps=") == 1

    def test_stall_at_the_first_eps_reads_back_as_a_solve(self, tmp_path, capsys):
        # no converged prefix: no run.json or ledger.json, only the stalled step
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", {
            "grid": {"x1": [0, 1], "x2": [0, 1], "n1": 17, "n2": 17},
            "boundary": {"expr": "2*sin(2*pi*x1)*x2 + 0.3*x2"},
            "schedule": {"eps_start": 0.001},
            "solver": {"max_newton_iter": 1},
            "output_dir": str(out),
        })
        assert main(["continuation", cfg]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "solution.csv"]
        assert json.loads((out / "report.json").read_text())["eps"] == 0.001
        assert capsys.readouterr().err.count("continuation stalled at eps=0.001") == 1
        fol = write_cfg(tmp_path / "f.json", {"foliate": {"run_dir": str(out)},
                                              "output_dir": str(tmp_path / "fol")})
        assert main(["foliate", fol]) == 0
        assert (tmp_path / "fol" / "leaves.json").exists()

    def test_a_residual_2_norm_that_overflows_exits_2_on_one_line(self, tmp_path):
        # the residual is finite but its 2-norm overflows, so no trial step can be
        # compared with it; in a fresh interpreter, so that a numpy overflow warning
        # would show on stderr
        cfg = solve_cfg(tmp_path / "out", grid={"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17},
                        boundary={"expr": "1e160"}, schedule={})
        done = run_cli("continuation", write_cfg(tmp_path / "c.json", cfg))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "continuation stalled at eps=1: no convergence at eps=1.0: best residual 1.600e+161"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["iterations"] == 0 and report["residual_history"] == [pytest.approx(1.6e161)]

    def test_reruns_are_byte_identical(self, fan_run_dir, tmp_path, monkeypatch):
        other = tmp_path / "rerun"
        monkeypatch.setenv("HMINGRAPH_OUT", str(other))
        cfg = write_cfg(tmp_path / "c.json", {
            "grid": {"x1": [0, 1], "x2": [1, 2], "n1": 33, "n2": 33},
            "boundary": {"expr": "x2 / (x1 + 2)"},
            "schedule": {"eps_start": 1.0, "factor": 0.5, "eps_min": 0.25},
            "output_dir": str(fan_run_dir),
        })
        assert main(["continuation", cfg]) == 0
        for name in ("run.json", "ledger.json", "solution_002.csv"):
            assert (other / name).read_bytes() == (fan_run_dir / name).read_bytes()


class TestReusedOutputDirectory:
    """A state-writing command leaves its directory holding this run's state
    only; other commands' files stay, and an exit 1 changes nothing."""

    DATA = {"grid": {"x1": [0, 1], "x2": [0, 1], "n1": 17, "n2": 17},
            "boundary": {"expr": "2*sin(2*pi*x1)*x2 + 0.3*x2"}}
    STALL = {"schedule": {"eps_start": 0.001}, "solver": {"max_newton_iter": 1}}

    @staticmethod
    def names(d):
        return sorted(p.name for p in d.iterdir())

    @staticmethod
    def foliate(tmp_path, run_dir, out, **sec):
        cfg = write_cfg(tmp_path / "f.json", {"foliate": {"run_dir": str(run_dir), **sec},
                                              "output_dir": str(out)})
        return main(["foliate", cfg])

    def test_a_stalled_continuation_replaces_a_converged_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        first = write_cfg(tmp_path / "a.json", {
            **self.DATA, "schedule": {"eps_start": 1.0, "factor": 0.5, "eps_min": 0.5},
            "output_dir": str(out)})
        assert main(["continuation", first]) == 0
        assert self.foliate(tmp_path, out, out) == 0  # another command's files, beside the run
        (out / "notes.txt").write_text("kept\n")
        leaves = [n for n in self.names(out) if n.startswith(("leaf_", "leaves."))]

        bad = write_cfg(tmp_path / "b.json", {**self.DATA, "boundary": {"expr": "x1 +"},
                                              **self.STALL, "output_dir": str(out)})
        before = {n: (out / n).read_bytes() for n in self.names(out)}
        assert main(["continuation", bad]) == 1
        assert {n: (out / n).read_bytes() for n in self.names(out)} == before

        fresh = tmp_path / "fresh"
        for d in (out, fresh):
            cfg = write_cfg(tmp_path / "s.json", {**self.DATA, **self.STALL, "output_dir": str(d)})
            assert main(["continuation", cfg]) == 2
        assert self.names(out) == sorted(["notes.txt", "report.json", "solution.csv", *leaves])
        # foliate reads the stalled best iterate, as from a directory of its own
        got, want = tmp_path / "fol", tmp_path / "fol_fresh"
        assert self.foliate(tmp_path, out, got) == 0
        assert self.foliate(tmp_path, fresh, want) == 0
        rows = json.loads((want / "leaves.json").read_text())["leaves"]
        assert json.loads((got / "leaves.json").read_text())["leaves"] == rows
        for row in rows:
            assert (got / row["file"]).read_bytes() == (want / row["file"]).read_bytes()

    def test_a_directory_named_as_state_is_exit_1_and_changes_nothing(self, tmp_path, capsys):
        # clearing the old state meets a directory it cannot unlink
        out = tmp_path / "out"
        (out / "solution.csv").mkdir(parents=True)
        assert main(["solve", write_cfg(tmp_path / "s.json", solve_cfg(out))]) == 1
        path = out / "solution.csv"
        assert capsys.readouterr().err == f"error: {path}: {os.strerror(errno.EISDIR)}\n"
        assert self.names(out) == ["solution.csv"] and self.names(path) == []

    def test_a_solve_replaces_a_continuation(self, tmp_path):
        out = tmp_path / "out"
        cont = solve_cfg(out, schedule={"eps_start": 1.0, "factor": 0.5, "eps_min": 0.5})
        del cont["eps"]
        assert main(["continuation", write_cfg(tmp_path / "c.json", cont)]) == 0
        assert "run.json" in self.names(out)
        assert main(["solve", write_cfg(tmp_path / "s.json", solve_cfg(out, eps=0.3))]) == 0
        assert self.names(out) == ["report.json", "solution.csv"]
        assert cli._load_state(out)[1] == 0.3

    def test_a_foliate_rerun_with_fewer_leaves(self, fan_run_dir, tmp_path):
        out = tmp_path / "fol"
        out.mkdir()
        (out / "verdict.json").write_text("{}\n")  # another command's artifact
        assert self.foliate(tmp_path, fan_run_dir, out, seed_spacing=0.05) == 0
        many = len(json.loads((out / "leaves.json").read_text())["leaves"])
        assert self.foliate(tmp_path, tmp_path / "nope", out) == 1
        assert len([n for n in self.names(out) if n.startswith("leaf_")]) == many
        assert self.foliate(tmp_path, fan_run_dir, out, seed_spacing=0.2) == 0
        files = [row["file"] for row in json.loads((out / "leaves.json").read_text())["leaves"]]
        assert 0 < len(files) < many
        assert self.names(out) == sorted(["leaves.json", "verdict.json", *files])


class TestFoliateCommand:
    def test_leaves_and_summary(self, fan_run_dir, tmp_path):
        out = tmp_path / "fol"
        cfg = write_cfg(tmp_path / "c.json", {
            "foliate": {"run_dir": str(fan_run_dir), "seed_spacing": 0.1},
            "output_dir": str(out),
        })
        assert main(["foliate", cfg]) == 0
        j = json.loads((out / "leaves.json").read_text())
        assert 0.5 < j["coverage"] <= 1.0
        assert j["leaves"]
        first = j["leaves"][0]
        assert (out / first["file"]).exists()
        fitted = [l for l in j["leaves"] if "c3" in l]
        assert fitted
        assert all(np.isfinite(l["c3"]) for l in fitted)

    def test_missing_run_dir_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "foliate": {"run_dir": str(tmp_path / "nope")},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["foliate", cfg]) == 1
        assert "no run.json or report.json" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_smooth_run_passes(self, fan_run_dir, tmp_path):
        out = tmp_path / "diag"
        cfg = write_cfg(tmp_path / "c.json", {
            "diagnose": {"run_dir": str(fan_run_dir)},
            "output_dir": str(out),
        })
        assert main(["diagnose", cfg]) == 0
        v = json.loads((out / "verdict.json").read_text())
        assert v["pass"] is True
        assert set(v["residuals"]) == {"v", "z"}
        assert v["x2u_sup"] < 0.01

    def test_verdict_reads_only_run_json_and_the_final_solution(self, fan_run_dir, tmp_path):
        run_dir = tmp_path / "run"  # one path for both runs: the provenance hashes the config
        shutil.copytree(fan_run_dir, run_dir)
        out = tmp_path / "diag"
        cfg = write_cfg(tmp_path / "c.json", {"diagnose": {"run_dir": str(run_dir)},
                                              "output_dir": str(out)})
        assert main(["diagnose", cfg]) == 0
        intact = (out / "verdict.json").read_bytes()
        for name in ("solution_000.csv", "solution_001.csv", "ledger.json"):
            (run_dir / name).unlink()
        assert main(["diagnose", cfg]) == 0
        assert (out / "verdict.json").read_bytes() == intact

    def test_unknown_budget_key_is_exit_1(self, fan_run_dir, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "diagnose": {"run_dir": str(fan_run_dir), "budgets": {"holder_max": 1}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["diagnose", cfg]) == 1
        assert "holder_max" in capsys.readouterr().err


class TestGridTooCoarseForTheDefaultWindow:
    """On 9 nodes per side the default Holder window (2h, a quarter of the
    side) is empty: the ledger and a verdict without a window of its own
    cannot measure, so both commands end in exit 1 before any artifact."""

    def test_continuation_is_exit_1_before_any_artifact(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", {
            "grid": {"x1": [0, 1], "x2": [1, 2], "n1": 9, "n2": 9},
            "boundary": {"expr": "x2 / (x1 + 2)"},
            "schedule": {"eps_min": 0.5},
            "output_dir": str(out),
        })
        proc = run_cli("continuation", cfg)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: grid: a 9 x 9 grid is too coarse"), proc.stderr
        assert not out.exists() or not any(out.iterdir())

    def test_diagnose_without_a_window_is_exit_1_before_any_artifact(self, tmp_path):
        run_dir = tmp_path / "run"  # a one-step 9 x 9 run, laid out as continuation writes it
        run_dir.mkdir()
        x1, x2 = hmingraph.Grid((0.0, 1.0), (1.0, 2.0), 9, 9).nodes()
        _write_csv(run_dir / "solution_000.csv", ["x1", "x2", "u"],
                   np.column_stack([x1.ravel(), x2.ravel(), (x2 / (x1 + 2)).ravel()]))
        (run_dir / "run.json").write_text(json.dumps({
            "files": ["solution_000.csv"], "eps_values": [1.0], "lip_norms": [1.0],
            "m_bounds": [1.0], "sup_diffs": []}))
        out = tmp_path / "out"
        diagnose = {"run_dir": str(run_dir)}
        cfg = {"diagnose": diagnose, "output_dir": str(out)}
        proc = run_cli("diagnose", write_cfg(tmp_path / "c.json", cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: diagnose.budgets.window: a 9 x 9 grid"), proc.stderr
        assert not out.exists() or not any(out.iterdir())
        diagnose["budgets"] = {"window": [0.25, 0.5]}  # a window of its own is measured
        assert main(["diagnose", write_cfg(tmp_path / "c.json", cfg)]) == 0
        assert (out / "verdict.json").exists()


class TestExampleCommand:
    def test_pauls_table_and_flags(self, tmp_path):
        out = tmp_path / "ex"
        cfg = write_cfg(tmp_path / "c.json", {
            "example": {"name": "pauls"},
            "grid": {"x1": [2, 4], "x2": [0.2, 1.2], "n1": 17, "n2": 17},
            "output_dir": str(out),
        })
        assert main(["example", cfg]) == 0
        x1, x2, u = load_u_column(out / "example.csv")
        assert len(u) == 17 * 17
        assert np.allclose(u, x2 / (x1 - 1.0), atol=1e-13)
        j = json.loads((out / "example.json").read_text())
        assert j["flags"]["C1_smooth"] is False
        assert j["flags"]["minimal_H0"] is True

    def test_grid_outside_the_domain_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "example": {"name": "pauls"},
            "grid": {"x1": [0, 4], "x2": [0.2, 1.2], "n1": 9, "n2": 9},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["example", cfg]) == 1
        assert "undefined" in capsys.readouterr().err

    def test_unknown_name_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "example": {"name": "parabola"},
            "grid": {"x1": [0, 1], "x2": [0, 1], "n1": 9, "n2": 9},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["example", cfg]) == 1


class TestDistanceCommand:
    def test_gauge_comparison_table(self, fan_run_dir, tmp_path):
        out = tmp_path / "dist"
        cfg = write_cfg(tmp_path / "c.json", {
            "distance": {"run_dir": str(fan_run_dir), "x0": [0.5, 1.5], "n_points": 6,
                         "mesh": 0.04, "box": [0.2, 0.2, 0.2], "seed": 0},
            "output_dir": str(out),
        })
        assert main(["distance", cfg]) == 0
        j = json.loads((out / "distance.json").read_text())
        assert j["n_points"] == 6
        assert 0.2 <= j["ratio_min"] <= j["ratio_max"] <= 5.0
        rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
        assert rows.shape == (6, 7)
        assert np.all(np.isfinite(rows))

    @staticmethod
    def run_against_full_sweep(cfg, tmp_path, monkeypatch):
        """Run ``distance`` on the on-demand sweep and on a full sweep.

        Returns the two runs' ``distance.csv`` and ``distance.json`` bytes,
        the number of candidates the on-demand run found unreachable, and its
        number of surrogate evaluations, one per drawn candidate."""
        path = write_cfg(tmp_path / "c.json", cfg)
        surrogate = cli.dist_surrogate_eps
        unreachable, draws = [], []

        class Counted(OracleLattice):
            def distance(self, p):
                try:
                    return super().distance(p)
                except UnreachableError:
                    unreachable.append(p)
                    raise

        def counted_surrogate(ff, p):
            draws.append(p)
            return surrogate(ff, p)

        out = {}
        for name, lattice in (("on-demand", Counted), ("full", _swept_lattice)):
            monkeypatch.setattr(cli, "OracleLattice", lattice)
            monkeypatch.setattr(cli, "dist_surrogate_eps",
                                counted_surrogate if name == "on-demand" else surrogate)
            monkeypatch.setenv("HMINGRAPH_OUT", str(tmp_path / name))
            assert main(["distance", path]) == 0
            out[name] = [(tmp_path / name / f).read_bytes() for f in ("distance.csv", "distance.json")]
        return out["on-demand"], out["full"], len(unreachable), len(draws)

    @staticmethod
    def draws_through_last_row(cfg, csv: bytes):
        """The draws a one-candidate-at-a-time loop makes: up to and including
        the one that gives the table's last row."""
        sec = cfg["distance"]
        box = np.array(sec.get("box", (0.2, 0.2, 0.2)))
        last = [float(v) for v in csv.decode().splitlines()[-1].split(",")[:3]]
        rng = np.random.default_rng(sec["seed"])
        for k in range(1, 50 * sec.get("n_points", 20) + 1):
            off = rng.uniform(-0.45, 0.45, size=3) * box
            if [sec["x0"][0] + off[0], sec["x0"][1] + off[1], off[2]] == last:
                return k
        return None

    @pytest.mark.parametrize("seed", [3, 18, 1234])
    def test_targeted_sweep_writes_the_full_sweeps_bytes(self, fan_run_dir, tmp_path, monkeypatch,
                                                          seed):
        cfg = {"distance": {"run_dir": str(fan_run_dir), "x0": [0.5, 1.5], "seed": seed}}
        targeted, full, _, draws = self.run_against_full_sweep(cfg, tmp_path, monkeypatch)
        assert targeted == full
        assert draws == self.draws_through_last_row(cfg, targeted[0])

    def test_unreachable_candidates_are_skipped_as_by_the_full_sweep(self, tmp_path, monkeypatch):
        # on u = 0 the X1 moves of the 0.04 lattice never shift x2 (s^2 <=
        # 0.04 is below a quarter of eps), and X2 moves take two cells, so
        # half of the x2 rows are never reached
        assert main(["solve", write_cfg(tmp_path / "s.json",
                                        solve_cfg(tmp_path / "flat", boundary={"expr": "0"}))]) == 0
        cfg = {"distance": {"run_dir": str(tmp_path / "flat"), "x0": [0.5, 0.5], "mesh": 0.04,
                            "n_points": 8, "seed": 3}}
        targeted, full, unreachable, draws = self.run_against_full_sweep(cfg, tmp_path, monkeypatch)
        assert unreachable > 0
        assert targeted == full
        assert draws == self.draws_through_last_row(cfg, targeted[0])

    @pytest.mark.parametrize("n_points", [0, -3], ids=["zero", "negative"])
    def test_n_points_below_one_is_exit_1_before_any_artifact(self, fan_run_dir, tmp_path,
                                                              n_points):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "c.json", {
            "distance": {"run_dir": str(fan_run_dir), "x0": [0.5, 1.5], "n_points": n_points},
            "output_dir": str(out),
        })
        proc = run_cli("distance", cfg)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "distance.n_points" in proc.stderr
        assert not (out / "distance.csv").exists()

    def test_off_node_base_point_is_exit_1(self, fan_run_dir, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", {
            "distance": {"run_dir": str(fan_run_dir), "x0": [0.512, 1.5]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["distance", cfg]) == 1


def test_installed_entry_point_smoke(tmp_path):
    exe = shutil.which("hmingraph")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "c.json", solve_cfg(out))
    proc = subprocess.run([exe, "solve", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "report.json").exists()


def scipy_modules_after(code, *args):
    """The sorted names of the scipy modules loaded once ``code`` has run in a
    fresh interpreter (``sys.argv[1:]`` is ``args``), and its printed output."""
    src = str(Path(hmingraph.__file__).resolve().parents[1])
    code += ("\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.split("\n")[:-1]
    return last.split(), printed


def test_cli_import_loads_neither_scipy_optimize_nor_scipy_spatial():
    # every CLI process pays its imports; scipy (sparse matrices and SuperLU
    # only) loads where a Jacobian is factored, never at import
    loaded, _ = scipy_modules_after("import hmingraph.cli")
    assert not {"scipy.optimize", "scipy.spatial"} & set(loaded)
    assert loaded == []


@pytest.mark.parametrize("command", ["solve", "foliate", "diagnose", "distance", "example"])
def test_scipy_loads_only_where_a_jacobian_is_factored(fan_run_dir, tmp_path, command):
    sections = {
        # a non-affine boundary, so Newton has a Jacobian to factor
        "solve": solve_cfg(tmp_path / "out", boundary={"expr": "x2 / (x1 + 2)"}),
        "foliate": {"foliate": {"run_dir": str(fan_run_dir)}},
        "diagnose": {"diagnose": {"run_dir": str(fan_run_dir)}},
        "distance": {"distance": {"run_dir": str(fan_run_dir), "x0": [0.5, 1.5],
                                  "n_points": 4, "mesh": 0.04, "box": [0.2, 0.2, 0.2],
                                  "seed": 0}},
        "example": {"example": {"name": "pauls"},
                    "grid": {"x1": [2, 4], "x2": [0.2, 1.2], "n1": 17, "n2": 17}},
    }
    cfg = write_cfg(tmp_path / "c.json", {**sections[command], "output_dir": str(tmp_path / "out")})
    code = "import sys\nfrom hmingraph.cli import main\nprint(main(sys.argv[1:]))"
    loaded, printed = scipy_modules_after(code, command, cfg)
    assert printed[-1] == "0"
    if command == "solve":
        assert "scipy.sparse.linalg" in loaded
    else:
        assert loaded == []
