"""Malformed configs: every one ends in exit 1 naming its key, before any artifact."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmingraph import cli
from hmingraph.cli import main

GRID = {"x1": [0, 1], "x2": [1, 2], "n1": 17, "n2": 17}
SOLVER = {"newton_tol": 1e-10, "max_newton_iter": 30, "armijo_c": 1e-4, "armijo_shrink": 0.5,
          "min_step": 1e-6, "linear_tol": 1e-8}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A finished solve and continuation for the read-back commands, and a
    directory for the outputs of the configs under test."""
    base = tmp_path_factory.mktemp("configs")
    for command, cfg in (
        ("solve", {"grid": GRID, "boundary": {"expr": "x2 / (x1 + 2)"}, "eps": 0.5}),
        ("continuation", {"grid": GRID, "boundary": {"expr": "x2 / (x1 + 2)"},
                          "schedule": {"eps_start": 1.0, "factor": 0.5, "eps_min": 0.5}}),
    ):
        code, err = run(command, {**cfg, "output_dir": str(base / command)}, base)
        assert code == 0, err
    return base


def run(command, cfg, base):
    """``main`` in-process on ``cfg``: its exit code and its stderr."""
    path = Path(tempfile.mkdtemp(dir=base)) / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, err.getvalue()


def valid_configs(base):
    """One config per command, each section holding every key it reads."""
    solve_dir, run_dir = str(base / "solve"), str(base / "continuation")
    return {
        "solve": ("solve", {"grid": GRID, "boundary": {"expr": "x2 / (x1 + 2)"}, "eps": 0.5,
                            "solver": SOLVER}),
        "solve-catalog": ("solve", {"grid": GRID, "eps": 0.5, "boundary": {
            "catalog": "affine", "params": {"a": 2, "c": -1}}}),
        "continuation": ("continuation", {
            "grid": GRID, "boundary": {"expr": "x2 / (x1 + 2)"}, "solver": SOLVER,
            "schedule": {"eps_start": 1.0, "factor": 0.5, "eps_min": 0.5, "max_steps": 3}}),
        "foliate": ("foliate", {"foliate": {"run_dir": run_dir, "seed_spacing": 0.2}}),
        "diagnose": ("diagnose", {"diagnose": {"run_dir": run_dir, "budgets": {
            "alphas": [0.5], "holder_cap": 50.0, "x2u_cap": 0.5, "residual_cap": 0.5,
            "margin_fraction": 0.1, "window": [0.1, 0.3]}}}),
        "example": ("example", {"example": {"name": "affine", "params": {"a": 1, "c": 0}},
                                "grid": GRID}),
        "distance": ("distance", {"distance": {
            "run_dir": solve_dir, "x0": [0.5, 1.5], "n_points": 2, "mesh": 0.05,
            "box": [0.2, 0.2, 0.2], "seed": 1, "min_separation": 0.2}}),
    }


# (config, dotted path of a section; "" is the top level)
SECTIONS = [
    ("solve", ""), ("solve", "grid"), ("solve", "boundary"), ("solve", "solver"),
    ("solve-catalog", "boundary"), ("solve-catalog", "boundary.params"),
    ("continuation", ""), ("continuation", "grid"), ("continuation", "boundary"),
    ("continuation", "schedule"), ("continuation", "solver"),
    ("foliate", ""), ("foliate", "foliate"),
    ("diagnose", ""), ("diagnose", "diagnose"), ("diagnose", "diagnose.budgets"),
    ("example", ""), ("example", "grid"), ("example", "example"), ("example", "example.params"),
    ("distance", ""), ("distance", "distance"),
]
MUTATIONS = ("wrong type", "zero", "negative", "nan", "wrong length", "extra key")


def mutated(value, kind):
    return {
        "wrong type": 5 if isinstance(value, str) else "x",
        "zero": 0,
        "negative": -1,
        "nan": math.nan,
        "wrong length": value + value[:1] if isinstance(value, list) else [value],
    }[kind]


def section_of(cfg, path):
    for key in filter(None, path.split(".")):
        cfg = cfg[key]
    return cfg


def test_every_valid_config_runs(runs):
    for name, (command, cfg) in valid_configs(runs).items():
        out = Path(tempfile.mkdtemp(dir=runs))
        code, err = run(command, {**cfg, "output_dir": str(out)}, runs)
        assert code == 0, (name, err)
        assert any(out.iterdir())


@pytest.mark.parametrize("name, path", SECTIONS, ids=[f"{n}:{p or 'top'}" for n, p in SECTIONS])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_mutated_key_ends_in_0_1_or_2_and_1_names_it(runs, name, path, data):
    command, cfg = valid_configs(runs)[name]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    section = section_of(cfg, path)
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "extra key":
        key = "unread"
        section[key] = 1
    else:
        key = data.draw(st.sampled_from(sorted(section)), label="key")
        section[key] = mutated(section[key], kind)
    code, err = run(command, cfg, runs)
    assert code in (0, 1, 2), err
    if code == 1:
        assert f"error: {path + '.' if path else ''}{key}" in err, err
        assert not out.exists() or not any(out.iterdir())


# each case ended in a traceback before the one config reader
TRACEBACKS = [
    ("solve", "eps", 0),
    ("solve", "eps", -1),
    ("solve", "eps", "a"),
    ("solve", "solver.max_newton_iter", "x"),
    ("solve", "solver.newton_tol", "x"),
    ("solve", "grid.x1", [0]),
    ("solve", "boundary.expr", 5),
    ("solve-catalog", "boundary.params.a", "x"),
    ("foliate", "foliate.seed_spacing", 0),
    ("foliate", "foliate.seed_spacing", "x"),
    ("foliate", "foliate.run_dir", 5),
    ("diagnose", "diagnose.run_dir", 5),
    ("diagnose", "diagnose.budgets", 5),
    ("diagnose", "diagnose.budgets.alphas", [2.0]),
    ("diagnose", "diagnose.budgets.window", [0.5, 0.1]),
    ("diagnose", "diagnose.budgets.holder_cap", "x"),
    ("diagnose", "diagnose.budgets.margin_fraction", 0.6),
    ("example", "example.params.a", "x"),
    ("example", "example.params", [1]),
    ("distance", "distance.x0", [0.5]),
    ("distance", "distance.box", [0.2, 0.2]),
    ("distance", "distance.seed", -1),
]
# each case ran to exit 0 before, reading the value in some other way or ignoring the key
SILENT = [
    ("solve", "grid.n1", 3.9),
    ("solve", "eps", True),
    ("foliate", "foliate.spacing", 0.1),
    ("diagnose", "diagnose.holder_cap", 1.0),
    ("distance", "distance.n", 5),
    ("diagnose", "diagnose.budgets.alphas", []),
    ("continuation", "schedule.max_steps", 0),
]


@pytest.mark.parametrize("name, path, value", TRACEBACKS + SILENT,
                         ids=[f"{p}={json.dumps(v)}" for _, p, v in TRACEBACKS + SILENT])
def test_malformed_value_is_exit_1_naming_the_key(runs, name, path, value):
    command, cfg = valid_configs(runs)[name]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    parent, _, key = path.rpartition(".")
    section_of(cfg, parent)[key] = value
    code, err = run(command, cfg, runs)
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert not out.exists()


# integer fields of dataclasses: each message states the class's own bound
INTEGER_BOUNDS = [
    ("continuation", "schedule.max_steps", -1, "must be at least 1, got -1"),
    ("continuation", "schedule.max_steps", 0, "must be at least 1, got 0"),
    ("solve", "solver.max_newton_iter", -1, "must be at least 0, got -1"),
    ("solve", "solver.max_newton_iter", 0.5, "expected an integer, got 0.5"),
]


@pytest.mark.parametrize("name, path, value, message", INTEGER_BOUNDS,
                         ids=[f"{n}:{p}={v}" for n, p, v, _ in INTEGER_BOUNDS])
def test_an_integer_field_is_checked_against_its_own_bound(runs, name, path, value, message):
    # the field's reader checks only that it is an integer
    command, cfg = valid_configs(runs)[name]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    parent, _, key = path.rpartition(".")
    section_of(cfg, parent)[key] = value
    assert run(command, cfg, runs) == (1, f"error: {path}: {message}\n")
    assert not out.exists()


def test_window_without_a_node_pair_is_exit_1_before_the_verdict(runs):
    # well formed, so only the run's grid can reject it: the output directory
    # exists by then, and is removed again
    command, cfg = valid_configs(runs)["diagnose"]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    cfg["diagnose"]["budgets"]["window"] = [1e-6, 2e-6]
    code, err = run(command, cfg, runs)
    assert code == 1
    assert err.startswith("error: diagnose.budgets.window: no node pairs"), err
    assert not out.exists()


# finite values whose float index or count overflowed int(round(.)) into a traceback;
# the grid of the runs is 17^2 with spacing 1/16
OVERFLOWS = [
    ("distance", "distance.x0", [1e308, 1.5], "distance.x0: point (1e+308, 1.5) outside grid"),
    ("distance", "distance.mesh", 1e-320, "distance: oracle lattice would hold inf nodes"),
    ("distance", "distance.box", [1e308, 0.2, 0.2], "distance: oracle lattice would hold inf nodes"),
    ("diagnose", "diagnose.budgets.margin_fraction", -1e308,
     "diagnose.budgets.margin_fraction: must lie in [0, 0.5), got -1e+308"),
    ("foliate", "foliate.seed_spacing", 1e-300,
     "foliate.seed_spacing: seed spacing 1e-300 is below the grid's smaller spacing 0.0625"),
    ("foliate", "foliate.seed_spacing", 1 / 32,
     "foliate.seed_spacing: seed spacing 0.03125 is below the grid's smaller spacing 0.0625"),
]


@pytest.mark.parametrize("name, path, value, message", OVERFLOWS,
                         ids=[f"{p}={json.dumps(v)}" for _, p, v, _ in OVERFLOWS])
def test_a_value_out_of_index_range_is_exit_1_on_one_line(runs, name, path, value, message):
    # well formed, so only the run can reject it: the output directory exists
    # by then, and is removed again
    command, cfg = valid_configs(runs)[name]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    parent, _, key = path.rpartition(".")
    section_of(cfg, parent)[key] = value
    code, err = run(command, cfg, runs)
    assert code == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def test_a_rejected_seed_spacing_keeps_the_leaves_of_a_reused_directory(runs):
    command, cfg = valid_configs(runs)["foliate"]
    out = Path(tempfile.mkdtemp(dir=runs)) / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    assert run(command, cfg, runs)[0] == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "leaf_000.csv" in before
    cfg["foliate"]["seed_spacing"] = 1e-300
    code, err = run(command, cfg, runs)
    assert code == 1 and err.startswith("error: foliate.seed_spacing: "), err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_window_far_beyond_the_grid_is_measured(runs):
    # on a grid of more than PAIR_CAP node pairs the offsets are sampled on
    # separation shells up to the window's top; those past the grid are skipped
    base = Path(tempfile.mkdtemp(dir=runs))
    grid = {**GRID, "n1": 65, "n2": 65}
    code, err = run("continuation", {
        "grid": grid, "boundary": {"expr": "x2 / (x1 + 2)"}, "output_dir": str(base / "run"),
        "schedule": {"eps_start": 0.5, "factor": 0.5, "eps_min": 0.5}}, runs)
    assert code == 0, err
    code, err = run("diagnose", {"diagnose": {"run_dir": str(base / "run"),
                                              "budgets": {"window": [0, 1e308]}},
                                 "output_dir": str(base / "out")}, runs)
    assert (code, err) == (0, "")
    rows = json.loads((base / "out" / "verdict.json").read_text())["alpha_estimates"]
    assert all(math.isfinite(row["seminorm"]) for row in rows)


def test_run_dir_without_a_run_is_exit_1_leaving_no_output_directory(runs):
    command, cfg = valid_configs(runs)["diagnose"]
    base = Path(tempfile.mkdtemp(dir=runs))
    out = base / "nested" / "out"
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    cfg["diagnose"]["run_dir"] = str(base / "nope")
    code, err = run(command, cfg, runs)
    assert code == 1
    assert err.startswith(f"error: {base / 'nope' / 'run.json'}: missing run data"), err
    assert not (base / "nested").exists()


def test_exit_1_keeps_an_output_directory_it_did_not_make(runs):
    command, cfg = valid_configs(runs)["diagnose"]
    out = Path(tempfile.mkdtemp(dir=runs))
    cfg = json.loads(json.dumps({**cfg, "output_dir": str(out)}))
    cfg["diagnose"]["run_dir"] = str(out / "nope")
    assert run(command, cfg, runs)[0] == 1
    assert out.is_dir() and not any(out.iterdir())


def test_retired_solver_keys_stay_accepted(runs):
    command, cfg = valid_configs(runs)["solve"]
    cfg = {**cfg, "solver": {**SOLVER, "picard_fallback": True, "max_picard_iter": 5},
           "output_dir": str(Path(tempfile.mkdtemp(dir=runs)))}
    assert run(command, cfg, runs)[0] == 0


def test_integral_float_count_is_read_as_an_integer(runs):
    command, cfg = valid_configs(runs)["solve"]
    out = Path(tempfile.mkdtemp(dir=runs))
    cfg = {**cfg, "grid": {**GRID, "n1": 17.0}, "output_dir": str(out)}
    assert run(command, cfg, runs)[0] == 0
    assert len((out / "solution.csv").read_text().splitlines()) == 1 + 17 * 17


README = Path(__file__).parents[1] / "README.md"


def readme_tables():
    """The README's config tables: the name in each header's first cell (a
    section, or ``top level``) and the table's rows, as lists of cells."""
    tables, rows = {}, None
    for line in README.read_text().splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if rows is None:  # a header; other tables are read into a list that is dropped
            config = cells[1:4] == ["type", "range", "default"]
            rows = tables.setdefault(cells[0].strip("`"), []) if config else []
        elif set(cells[0]) - set("-"):
            rows.append(cells)
    return tables


def quoted(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_the_readme_config_tables_list_the_keys_the_readers_take():
    readers = {key: reader for _, section in cli._COMMANDS.values()
               for key, reader in section.table.items()}
    read_by = {key: [c for c, (_, section) in cli._COMMANDS.items() if key in section.table]
               for key in readers}
    nested = lambda section: {"": set(section.table)} | {
        key: set(sub.table) for key, sub in section.table.items() if isinstance(sub, cli._Section)}
    expected = {name: nested(r) for name, r in readers.items() if isinstance(r, cli._Section)}
    # the top level lists every key but the sections named after their command
    expected["top level"] = {"": set(readers) - set(cli._COMMANDS) | set(cli._OUTPUT.table)}

    documented = {}
    for name, rows in readme_tables().items():
        keys = documented[name] = {"": set()}
        for cells in rows:
            for key in quoted(cells[0]):
                head, _, sub = key.partition(".")
                if sub:  # a row of its own per key of a nested section
                    keys.setdefault(head, set()).add(sub)
                else:
                    keys[""].add(key)
                if cells[1].startswith("object:"):  # or the keys named in its type
                    keys[key] = set(quoted(cells[1]))
                if name == "top level" and key in read_by:
                    assert quoted(cells[4]) == read_by[key], key
    assert documented == expected
