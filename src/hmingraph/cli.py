"""Config-driven command line for solves, continuation runs, and diagnostics.

One declarative JSON config per run.  Subcommands: ``solve``, ``continuation``,
``foliate``, ``diagnose``, ``example``, ``distance``.  Artifacts are CSV
(header row, ``%.17g`` — doubles round-trip losslessly) and JSON (sorted keys,
no timestamps, config hash and package version stamped in), so identical
configs produce byte-identical outputs.  Exit codes: 0 success, 1 config or
missing-data error, 2 non-convergence (best iterate still written).

The output directory comes from the config, overridden by ``HMINGRAPH_OUT``;
a ``.lock`` file guards each directory against concurrent writers.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import DomainError, ShearRootError, make_entry
from .diagnostics import DiagnosticsBudgets, norm_ledger, verdict
from .foliation import coverage_fraction, fit_leaf, foliation_cover, leaf_table
from .geometry import (
    Frame,
    LiftedPoint,
    UnreachableError,
    _oracle_sweep,
    dist_surrogate_cc,
    dist_surrogate_eps,
    taylor_p1,
)
from .grid import Grid, GridFunction
from .solver import (
    BoundaryData,
    ContinuationError,
    EpsSchedule,
    NonConvergenceError,
    SolverConfig,
    VanishingViscosityRun,
    continuation,
    solve_eps,
)

__all__ = ["main", "ConfigError", "load_config", "canonical_json"]


class ConfigError(ValueError):
    """Bad or missing configuration / run data; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}:1: config root must be an object")
    return cfg


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def _provenance(cfg: dict) -> dict:
    return {"config_sha256": _config_hash(cfg), "version": __version__}


def _section(cfg: dict, key: str, required: bool = True) -> dict:
    if key not in cfg:
        if required:
            raise ConfigError(f"config key {key!r} is required for this command")
        return {}
    if not isinstance(cfg[key], dict):
        raise ConfigError(f"config key {key!r} must be an object")
    return cfg[key]


def _grid_from(cfg: dict) -> Grid:
    sec = _section(cfg, "grid")
    try:
        return Grid(tuple(sec["x1"]), tuple(sec["x2"]), int(sec["n1"]), int(sec["n2"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"grid: {e}") from e


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "arctan": np.arctan, "cosh": np.cosh, "sinh": np.sinh,
}
_EXPR_NAMES = {"pi": np.pi, "e": np.e}
_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
)


def boundary_expression(src: str):
    """Compile an arithmetic expression in x1, x2 into a vectorized callable.

    Only arithmetic operators, numeric literals, and a fixed function
    whitelist are admitted; anything else is a config error.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"boundary.expr: {e.msg} at column {e.offset}") from e
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise ConfigError(f"boundary.expr: {type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError("boundary.expr: only numeric literals allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS or node.keywords:
                raise ConfigError("boundary.expr: only whitelisted function calls allowed")
        if isinstance(node, ast.Name) and node.id not in ("x1", "x2", *_EXPR_FUNCS, *_EXPR_NAMES):
            raise ConfigError(f"boundary.expr: unknown name {node.id!r}")
    code = compile(tree, "<boundary>", "eval")
    env = {**_EXPR_FUNCS, **_EXPR_NAMES}

    def f(x1, x2):
        return eval(code, {"__builtins__": {}}, {**env, "x1": x1, "x2": x2})

    return f


def _boundary_from(cfg: dict, grid: Grid) -> BoundaryData:
    sec = _section(cfg, "boundary")
    if "expr" in sec:
        f = boundary_expression(sec["expr"])
    elif "catalog" in sec:
        try:
            entry = make_entry(sec["catalog"], sec.get("params"))
        except KeyError as e:
            raise ConfigError(f"boundary.catalog: {e.args[0]}") from e
        f = entry.eval
    else:
        raise ConfigError("boundary needs either 'expr' or 'catalog'")
    try:
        return BoundaryData.from_callable(grid, lambda a, b: np.asarray(f(a, b), dtype=float))
    except (DomainError, ShearRootError, ValueError) as e:
        raise ConfigError(f"boundary evaluation failed: {e}") from e


def _solver_from(cfg: dict) -> SolverConfig:
    sec = _section(cfg, "solver", required=False)
    base = SolverConfig()
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    bad = set(sec) - known
    if bad:
        raise ConfigError(f"solver: unknown keys {sorted(bad)}; valid keys {sorted(known)}")
    return dataclasses.replace(base, **sec)


def _schedule_from(cfg: dict) -> EpsSchedule:
    sec = _section(cfg, "schedule")
    try:
        kwargs = {k: sec[j] for k, j in (("eps_start", "eps_start"), ("factor", "factor"),
                                         ("eps_min", "eps_min")) if j in sec}
        if "max_steps" in sec:
            kwargs["max_steps"] = int(sec["max_steps"])
        return EpsSchedule(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"schedule: {e}") from e


def _out_dir(cfg: dict) -> Path:
    d = os.environ.get("HMINGRAPH_OUT") or cfg.get("output_dir")
    if not d:
        raise ConfigError("output_dir missing (set it in the config or via HMINGRAPH_OUT)")
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


class _RunLock:
    """Exclusive .lock file in the output directory, holding the writer's PID.

    The lock is removed on exit but never broken automatically: a stale lock
    is reported with the PID read back from it, for the user to remove.
    """

    def __init__(self, directory: Path):
        self.path = directory / ".lock"

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                holder = f" by PID {int(self.path.read_text())}"
            except (OSError, ValueError):
                holder = "; no PID could be read from the lock"
            raise ConfigError(
                f"{self.path}: output directory already in use{holder} "
                "(remove stale lock to proceed)")
        os.write(self._fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc):
        os.close(self._fd)
        os.unlink(self.path)
        return False


# ---------------------------------------------------------------------------
# artifact IO
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _replacing(path: Path):
    """Open a sibling temporary file that replaces ``path`` once written.

    ``os.replace`` moves it into place only after the block completes, so an
    interrupted write leaves the previous artifact (or none), never a
    truncated one; on an exception the temporary file is removed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CSV_BLOCK = 4096  # rows formatted per string operation


def _write_csv(path: Path, header: list, rows) -> None:
    """Write ``rows`` (a 2-D float array, or an iterable of equal rows) as %.17g CSV.

    Each block of rows is formatted by one ``%`` operation on a repeated
    line template, which gives the same bytes as formatting value by value.
    """
    with _replacing(path) as f:
        f.write(",".join(header) + "\n")
        data = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
        for start in range(0, len(data), _CSV_BLOCK):
            block = data[start:start + _CSV_BLOCK]
            line = ",".join(["%.17g"] * block.shape[1]) + "\n"
            f.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: Path, obj: dict) -> None:
    with _replacing(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _solution_rows(sol: GridFunction) -> np.ndarray:
    """Rows (x1, x2, u), one per node in C order."""
    x1, x2 = sol.grid.nodes()
    return np.column_stack([x1.ravel(), x2.ravel(), sol.values.ravel()])


def _read_solution_csv(path: Path) -> GridFunction:
    if not path.exists():
        raise ConfigError(f"{path}: missing run data")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        raise ConfigError(f"{path}: unreadable ({e})") from e
    if data.shape[1] != 3:
        raise ConfigError(f"{path}: expected columns x1,x2,u")
    x1s = np.unique(data[:, 0])
    x2s = np.unique(data[:, 1])
    n1, n2 = len(x1s), len(x2s)
    i = np.searchsorted(x1s, data[:, 0])
    j = np.searchsorted(x2s, data[:, 1])
    # every node exactly once: a repeated row can hide a missing one
    if n1 * n2 != len(data) or np.unique(i * n2 + j).size != len(data):
        raise ConfigError(f"{path}: rows do not form a full lattice")
    try:
        grid = Grid((float(x1s[0]), float(x1s[-1])), (float(x2s[0]), float(x2s[-1])), n1, n2)
        vals = np.empty((n1, n2))
        vals[i, j] = data[:, 2]
        return GridFunction(grid, vals)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _read_json(path: Path, keys: tuple) -> dict:
    """The ``keys`` of a JSON artifact; ConfigError if it cannot supply them."""
    try:
        obj = json.loads(path.read_text())
        return {k: obj[k] for k in keys}
    except (ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: unreadable run data ({type(e).__name__}: {e})") from e


def _report_dict(report) -> dict:
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "residual_history": list(report.residual_history),
        "step_lengths": list(report.step_lengths),
        "used_picard": report.used_picard,
        "message": report.message,
    }


def _load_run(run_dir: Path) -> VanishingViscosityRun:
    """Rebuild a continuation run from its artifact directory."""
    meta_path = run_dir / "run.json"
    if not meta_path.exists():
        raise ConfigError(f"{meta_path}: missing run data")
    meta = _read_json(meta_path, ("files", "eps_values", "lip_norms", "m_bounds", "sup_diffs"))
    sols = [_read_solution_csv(run_dir / name) for name in meta["files"]]
    if not sols:
        raise ConfigError(f"{run_dir}: run contains no solutions")
    grid = sols[0].grid
    boundary = BoundaryData(grid, sols[-1].values.copy())
    return VanishingViscosityRun(
        grid=grid,
        boundary=boundary,
        eps_values=list(meta["eps_values"]),
        solutions=sols,
        reports=[],
        lip_norms=list(meta["lip_norms"]),
        m_bounds=list(meta["m_bounds"]),
        sup_diffs=list(meta["sup_diffs"]),
    )


def _load_state(run_dir: Path) -> tuple[GridFunction, float]:
    """Final solution and epsilon from either a solve or a continuation dir."""
    meta_path = run_dir / "run.json"
    if meta_path.exists():
        meta = _read_json(meta_path, ("files", "eps_values"))
        if not meta["files"] or not meta["eps_values"]:
            raise ConfigError(f"{run_dir}: run contains no solutions")
        sol = _read_solution_csv(run_dir / meta["files"][-1])
        return sol, float(meta["eps_values"][-1])
    report_path = run_dir / "report.json"
    if report_path.exists():
        eps = _read_json(report_path, ("eps",))["eps"]
        return _read_solution_csv(run_dir / "solution.csv"), float(eps)
    raise ConfigError(f"{run_dir}: no run.json or report.json found")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict, out: Path) -> int:
    grid = _grid_from(cfg)
    boundary = _boundary_from(cfg, grid)
    if "eps" not in cfg:
        raise ConfigError("config key 'eps' is required for solve")
    eps = float(cfg["eps"])
    config = _solver_from(cfg)
    code = 0
    try:
        sol, report = solve_eps(grid, boundary, eps, config=config)
    except NonConvergenceError as e:
        sol, report = e.best, e.report
        code = 2
    _write_csv(out / "solution.csv", ["x1", "x2", "u"], _solution_rows(sol))
    _write_json(out / "report.json", {**_provenance(cfg), "eps": eps, **_report_dict(report)})
    return code


def _write_run(cfg: dict, out: Path, run: VanishingViscosityRun) -> None:
    files = []
    for k, sol in enumerate(run.solutions):
        name = f"solution_{k:03d}.csv"
        _write_csv(out / name, ["x1", "x2", "u"], _solution_rows(sol))
        files.append(name)
    _write_json(out / "run.json", {
        **_provenance(cfg),
        "eps_values": list(run.eps_values),
        "lip_norms": list(run.lip_norms),
        "m_bounds": list(run.m_bounds),
        "sup_diffs": list(run.sup_diffs),
        "files": files,
    })
    if run.solutions:
        ledger = norm_ledger(run)
        _write_json(out / "ledger.json", {**_provenance(cfg), **ledger.as_dict()})


def cmd_continuation(cfg: dict, out: Path) -> int:
    grid = _grid_from(cfg)
    boundary = _boundary_from(cfg, grid)
    schedule = _schedule_from(cfg)
    config = _solver_from(cfg)
    try:
        run = continuation(grid, boundary, schedule, config=config)
    except ContinuationError as e:
        _write_run(cfg, out, e.partial_run)
        print(f"continuation stalled at eps={e.eps:g}: {e}", file=sys.stderr)
        return 2
    _write_run(cfg, out, run)
    return 0


def cmd_foliate(cfg: dict, out: Path) -> int:
    sec = _section(cfg, "foliate")
    if "run_dir" not in sec:
        raise ConfigError("foliate.run_dir is required")
    sol, _eps = _load_state(Path(sec["run_dir"]))
    spacing = float(sec.get("seed_spacing", 2 * max(sol.grid.h1, sol.grid.h2)))
    leaves = foliation_cover(sol, spacing)
    summary = []
    for k, leaf in enumerate(leaves):
        name = f"leaf_{k:03d}.csv"
        _write_csv(out / name, ["t", "x1", "x2", "u", "first", "second"], leaf_table(leaf))
        row = {"file": name, "seed": list(leaf.start), "samples": len(leaf)}
        if len(leaf) >= 8:
            fitted = fit_leaf(leaf)
            row.update({
                "c3": fitted.cubic_coefficient,
                "gamma2_quad_rel_residual": fitted.gamma2_quad_rel_residual,
                "u_quad_coefficient": abs(float(fitted.u_fit[2])),
            })
        summary.append(row)
    _write_json(out / "leaves.json", {
        **_provenance(cfg),
        "seed_spacing": spacing,
        "coverage": coverage_fraction(sol, leaves),
        "leaves": summary,
    })
    return 0


def _budgets_from(sec: dict) -> DiagnosticsBudgets:
    known = {f.name for f in dataclasses.fields(DiagnosticsBudgets)}
    raw = sec.get("budgets", {})
    bad = set(raw) - known
    if bad:
        raise ConfigError(f"diagnose.budgets: unknown keys {sorted(bad)}")
    kwargs = dict(raw)
    if "alphas" in kwargs:
        kwargs["alphas"] = tuple(kwargs["alphas"])
    if "window" in kwargs and kwargs["window"] is not None:
        kwargs["window"] = tuple(kwargs["window"])
    return DiagnosticsBudgets(**kwargs)


def cmd_diagnose(cfg: dict, out: Path) -> int:
    sec = _section(cfg, "diagnose")
    if "run_dir" not in sec:
        raise ConfigError("diagnose.run_dir is required")
    run = _load_run(Path(sec["run_dir"]))
    vd = verdict(run, _budgets_from(sec))
    _write_json(out / "verdict.json", {**_provenance(cfg), **vd.as_dict()})
    return 0


def cmd_example(cfg: dict, out: Path) -> int:
    sec = _section(cfg, "example")
    if "name" not in sec:
        raise ConfigError("example.name is required")
    try:
        entry = make_entry(sec["name"], sec.get("params"))
    except KeyError as e:
        raise ConfigError(f"example.name: {e.args[0]}") from e
    grid = _grid_from(cfg)
    x1, x2 = grid.nodes()
    try:
        vals = np.asarray(entry.eval(x1, x2), dtype=float)
    except (DomainError, ShearRootError) as e:
        raise ConfigError(f"example {entry.name!r} undefined on this grid: {e}") from e
    _write_csv(out / "example.csv", ["x1", "x2", "u"],
               _solution_rows(GridFunction(grid, vals)))
    _write_json(out / "example.json", {
        **_provenance(cfg),
        "name": entry.name,
        "flags": {
            "minimal_H0": entry.minimal_H0,
            "vanishing_viscosity_candidate": entry.vanishing_viscosity_candidate,
            "C1_smooth": entry.C1_smooth,
            "leafwise_affine": entry.leafwise_affine,
        },
    })
    return 0


def cmd_distance(cfg: dict, out: Path) -> int:
    sec = _section(cfg, "distance")
    if "run_dir" not in sec:
        raise ConfigError("distance.run_dir is required")
    sol, eps = _load_state(Path(sec["run_dir"]))
    if "x0" not in sec:
        raise ConfigError("distance.x0 is required")
    x0 = (float(sec["x0"][0]), float(sec["x0"][1]))
    n_points = int(sec.get("n_points", 20))
    mesh = float(sec.get("mesh", 0.01))
    box = tuple(sec.get("box", (0.2, 0.2, 0.2)))
    seed = int(sec.get("seed", 0))
    # the lattice cannot resolve separations of a few cells; stay above them
    min_sep = float(sec.get("min_separation", 4.0 * mesh))
    try:
        ff = taylor_p1(Frame(sol, eps), x0)
    except ValueError as e:
        raise ConfigError(f"distance.x0: {e}") from e
    rng = np.random.default_rng(seed)

    def candidates():
        for _ in range(50 * n_points):
            off = rng.uniform(-0.45, 0.45, size=3) * np.array(box)
            p = LiftedPoint(x0[0] + off[0], x0[1] + off[1], off[2])
            d_eps = dist_surrogate_eps(ff, p)
            if not d_eps < min_sep:
                yield p, d_eps

    # the sweep stops at the farthest of the first n_points candidates; it
    # runs to the end when one of them is unreachable, the only case in which
    # more candidates are drawn
    draws = candidates()
    first = list(itertools.islice(draws, n_points))
    try:
        oracle = _oracle_sweep(ff, mesh, box, targets=[p for p, _ in first])
    except ValueError as e:
        raise ConfigError(f"distance: {e}") from e
    rows = []
    ratios = []
    for p, d_eps in itertools.chain(first, draws):
        try:
            d_orc = oracle(p)
        except UnreachableError:
            continue
        d_cc = dist_surrogate_cc(ff, p)
        rows.append((p.x1, p.x2, p.s, d_eps, d_cc, d_orc, d_orc / d_eps))
        ratios.append(d_orc / d_eps)
        if len(rows) == n_points:
            break
    if len(rows) < n_points:
        raise ConfigError("distance: could not sample the requested number of points")
    _write_csv(out / "distance.csv",
               ["x1", "x2", "s", "surrogate_eps", "surrogate_cc", "oracle", "ratio"], rows)
    _write_json(out / "distance.json", {
        **_provenance(cfg),
        "eps": eps,
        "mesh": mesh,
        "n_points": len(rows),
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    })
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "continuation": cmd_continuation,
    "foliate": cmd_foliate,
    "diagnose": cmd_diagnose,
    "example": cmd_example,
    "distance": cmd_distance,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmingraph",
        description="Minimal intrinsic graph solves, continuation runs, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline from a JSON config")
        p.add_argument("config", help="path to the declarative JSON config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = _out_dir(cfg)
        with _RunLock(out):
            return _COMMANDS[args.command](cfg, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
