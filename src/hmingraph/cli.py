"""Config-driven command line for solves, continuation runs, and diagnostics.

One declarative JSON config per run.  Subcommands: ``solve``, ``continuation``,
``foliate``, ``diagnose``, ``example``, ``distance``.  Artifacts are CSV
(header row, ``%.17g`` — doubles round-trip losslessly) and JSON (sorted keys,
no timestamps, config hash and package version stamped in), so identical
configs produce byte-identical outputs.  Exit codes: 0 success, 1 config,
missing-data or OS error (``error: <file>: <reason>``, say a directory where
an artifact goes), 2 non-convergence: the best iterate is still written as
``solution.csv`` and ``report.json`` (after the converged steps of a stalled
continuation), and the reason goes to stderr once.

The output directory comes from the config, overridden by ``HMINGRAPH_OUT``.
:func:`_output_dir` makes it, holds its ``.lock`` for the command, and after
an exit 1 removes the directories it made.  A lock held by another writer
is exit 1.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import catalog, make_entry
from .diagnostics import DiagnosticsBudgets, holder_window, norm_ledger, verdict
from .foliation import coverage_fraction, fit_leaf, foliation_cover, leaf_table
from .geometry import (
    Frame,
    LiftedPoint,
    OracleLattice,
    UnreachableError,
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
    _solvable,
    continuation,
    solve_eps,
)

__all__ = ["main", "ConfigError", "load_config", "canonical_json"]


class ConfigError(ValueError):
    """Bad or missing configuration / run data; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _os_errors_naming(path):
    """Turn an OSError in the block into a :class:`ConfigError` naming ``path``."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8: {e.reason} at byte {e.start}") from e
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


# Config readers.  A value reader returns the value it reads, or raises
# ValueError saying what it expected; _read reads a section by a table of them.


def _finite(v) -> bool:  # a boolean is not a number
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


def _numbers(v, n=None) -> bool:  # a list of n finite numbers, of any length if n is None
    return isinstance(v, list) and n in (None, len(v)) and all(map(_finite, v))


def _reader(ok, expected: str, convert=lambda v: v):
    def read(v):
        if not ok(v):
            raise ValueError(f"expected {expected}, got {v!r}")
        return convert(v)
    return read


def _integer(lo: int):
    return _reader(lambda v: _finite(v) and int(v) == v >= lo, f"an integer of at least {lo}", int)


_number = _reader(_finite, "a finite number")  # as given: an integer stays one in artifacts
_positive = _reader(lambda v: _finite(v) and v > 0, "a positive number", float)
_string = _reader(lambda v: isinstance(v, str), "a string")
_path = _reader(lambda v: isinstance(v, str), "a string", Path)
_interval = _reader(lambda v: _numbers(v, 2) and v[0] < v[1], "[lo, hi] with lo < hi", tuple)
_entry = _reader(lambda v: v in sorted(catalog()), f"one of {sorted(catalog())}")
_BY_ANNOTATION = {  # the readers of dataclass fields; each class checks its own ranges
    "float": _number, "int": _reader(lambda v: _finite(v) and int(v) == v, "an integer", int),
    "tuple": _reader(_numbers, "a list of numbers", tuple),
    "tuple[float, float] | None": _reader(lambda v: v is None or _numbers(v, 2), "null or a pair",
                                          lambda v: v and tuple(v))}

# ``table`` maps each key to a value reader, to a nested _Section, or to None
# for a retired key (accepted and ignored); ``required`` keys must be present;
# ``into``, if given, is called with the keys read
_Section = collections.namedtuple("_Section", "table required into", defaults=((), None))


def _fields(cls, **retired) -> _Section:
    """The section of dataclass ``cls``: one key per field, read by its annotation."""
    return _Section({f.name: _BY_ANNOTATION[f.type] for f in dataclasses.fields(cls)} | retired,
                    into=cls)


def _read(obj, section: _Section, name: str = ""):
    """Read the config object ``obj``, at dotted path ``name``, by ``section``.

    Returns the keys present, as read, or ``section.into`` called with them.
    An unknown key, a missing required key, or a value rejected by its reader
    or by ``into`` (whose ValueError must begin with the key) is a
    :class:`ConfigError` naming ``<name>.<key>``.  The top level (``name``
    empty) admits other keys: one file may carry several commands' sections.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object, got {obj!r}")
    at = lambda key: f"{name}.{key}" if name else key
    for key in section.required:
        if key not in obj:
            raise ConfigError(f"{at(key)}: required for this command")
    out = {}
    for key, value in obj.items():
        reader = section.table.get(key)
        if key not in section.table:
            if name:
                raise ConfigError(f"{at(key)}: unknown key; valid keys {sorted(section.table)}")
        elif isinstance(reader, _Section):
            out[key] = _read(value, reader, at(key))
        elif reader:
            try:
                out[key] = reader(value)
            except ValueError as e:
                raise ConfigError(f"{at(key)}: {e}") from e
    try:
        return out if section.into is None else section.into(**out)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{name}.{e}") from e


def _measurable(grid: Grid, key: str, window: tuple[float, float] | None) -> Grid:
    """``grid``, if the Holder seminorms' ``window`` (the default if None) holds a node pair."""
    try:
        holder_window(grid, window)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e
    return grid


_OUTPUT = _Section({"output_dir": _string})
_GRID = _Section({"x1": _interval, "x2": _interval, "n1": _integer(3), "n2": _integer(3)},
                 ("x1", "x2", "n1", "n2"), lambda x1, x2, n1, n2: Grid(x1, x2, n1, n2))
_SOLVE_GRID = _GRID._replace(into=lambda **keys: _solvable(_GRID.into(**keys)))
# a continuation's ledger measures on the default window
_RUN_GRID = _GRID._replace(into=lambda **keys: _measurable(_SOLVE_GRID.into(**keys), "grid", None))


def _affine_params(keys: dict, entry: str) -> dict:
    """``keys``, unless they give ``params`` to an entry other than ``affine``."""
    if "params" in keys and keys.get(entry) != "affine":
        raise ValueError("params: only the affine entry takes params")
    return keys


def _boundary_keys(**keys) -> dict:
    """The boundary section's keys: exactly one of ``expr`` and ``catalog``."""
    if "expr" in keys and "catalog" in keys:
        raise ValueError("catalog: not allowed together with boundary.expr")
    if "expr" not in keys and "catalog" not in keys:
        raise ValueError("expr: required unless boundary.catalog is given")
    return _affine_params(keys, "catalog")


_PARAMS = _Section({"a": _number, "c": _number})  # the affine entry's; others take none
_BOUNDARY = _Section({"expr": _string, "catalog": _entry, "params": _PARAMS}, into=_boundary_keys)
_EXAMPLE = _Section({"name": _entry, "params": _PARAMS}, ("name",),
                    lambda **keys: _affine_params(keys, "name"))
# the retired Picard fallback's keys are accepted and ignored, so older configs still run
_SOLVER = _fields(SolverConfig, picard_fallback=None, max_picard_iter=None)


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
    whitelist are admitted; anything else is a config error.  Literals are
    floats, so no power of literals runs as a big-integer power.
    """
    names = ("x1", "x2", *_EXPR_FUNCS, *_EXPR_NAMES)
    try:
        tree = ast.parse(src, mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _EXPR_NODES):
                raise ConfigError(f"boundary.expr: {type(node).__name__} not allowed")
            if isinstance(node, ast.Constant):
                if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                    raise ConfigError("boundary.expr: only numeric literals allowed")
                node.value = float(node.value)
            if isinstance(node, ast.Call) and (getattr(node.func, "id", None) not in _EXPR_FUNCS
                                               or node.keywords):  # only a Name has an id
                raise ConfigError("boundary.expr: only whitelisted function calls allowed")
            if isinstance(node, ast.Name) and node.id not in names:
                raise ConfigError(f"boundary.expr: unknown name {node.id!r}")
        code = compile(tree, "<boundary>", "eval")
    except SyntaxError as e:
        raise ConfigError(f"boundary.expr: {e.msg} at column {e.offset}") from e
    except OverflowError as e:  # an integer literal beyond float range
        raise ConfigError(f"boundary.expr: {e}") from e
    except (MemoryError, RecursionError) as e:  # the parser's and the compiler's depth limits
        raise ConfigError("boundary.expr: nested too deeply") from e
    env = {**_EXPR_FUNCS, **_EXPR_NAMES}

    def f(x1, x2):
        return eval(code, {"__builtins__": {}}, {**env, "x1": x1, "x2": x2})

    return f


def _on_grid(grid: Grid, f, what: str) -> GridFunction:
    """The closed form ``f(x1, x2)`` on ``grid``; a ConfigError ``<what>: <why>``
    where it divides by zero, overflows, turns complex or leaves its domain
    (the catalog's DomainError and ShearRootError are ValueErrors)."""
    try:
        with np.errstate(all="ignore"):
            return GridFunction.from_callable(grid, f)
    except (ArithmeticError, TypeError, ValueError) as e:
        raise ConfigError(f"{what}: {e}") from e


def _boundary_from(sec: dict, grid: Grid) -> BoundaryData:
    if "expr" in sec:
        f = boundary_expression(sec["expr"])
    else:
        f = make_entry(sec["catalog"], sec.get("params")).eval
    return BoundaryData(grid, _on_grid(grid, f, "boundary evaluation failed").values)


@contextlib.contextmanager
def _output_dir(cfg: dict):
    """The output directory, ``HMINGRAPH_OUT`` or ``output_dir``, made if
    missing and locked while the block runs by a ``.lock`` file holding the
    writer's PID; a held lock is reported with its PID, never broken.  An
    OSError writing the PID, which names no file, is a ConfigError naming
    the lock.  After a ConfigError or an OSError in the making, the locking
    or the block, the lock, if held, is released first; then the directories
    this call made are removed, innermost first, while they are empty.
    """
    d = os.environ.get("HMINGRAPH_OUT") or _read(cfg, _OUTPUT).get("output_dir")
    if not d:
        raise ConfigError("output_dir missing (set it in the config or via HMINGRAPH_OUT)")
    path = Path(d)
    made = [p for p in (path, *path.parents) if not p.exists()]
    lock = path / ".lock"
    try:
        # outside the lock's try: mkdir on a file raises FileExistsError
        path.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                holder = f" by PID {int(lock.read_text())}"
            except (OSError, ValueError):
                holder = "; no PID could be read from the lock"
            raise ConfigError(f"{lock}: output directory already in use{holder} "
                              "(remove stale lock to proceed)") from None
        try:
            with _os_errors_naming(lock):
                os.write(fd, f"{os.getpid()}\n".encode())
            yield path
        finally:
            os.close(fd)
            lock.unlink()
    except (ConfigError, OSError):
        for p in filter(os.path.isdir, made):  # a failed mkdir can leave some unmade
            try:
                p.rmdir()
            except OSError:  # it holds an artifact, so it and its parents stay
                break
        raise


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


def _solution_writer(grid: Grid):
    """A writer ``write(path, sol)`` of the ``x1,x2,u`` CSV of a field ``sol``
    on ``grid``, one row per node in C order.

    Each coordinate of the grid is formatted once, into line templates of
    ``_CSV_BLOCK`` rows that leave a ``%.17g`` slot for u, so a file formats
    only its values.  The bytes are those of :func:`_write_csv` on the rows
    (x1, x2, u).
    """
    x2s = ["%.17g" % b for b in grid.x2_coords.tolist()]
    lines = [f"{a},{b},%.17g\n" for a in ["%.17g" % a for a in grid.x1_coords.tolist()]
             for b in x2s]
    blocks = ["".join(lines[k:k + _CSV_BLOCK]) for k in range(0, len(lines), _CSV_BLOCK)]

    def write(path: Path, sol: GridFunction) -> None:
        values = sol.values.ravel().tolist()
        with _replacing(path) as f:
            f.write("x1,x2,u\n")
            for k, block in enumerate(blocks):
                f.write(block % tuple(values[k * _CSV_BLOCK:(k + 1) * _CSV_BLOCK]))

    return write


def _read_solution_csv(path: Path) -> GridFunction:
    if not path.exists():
        raise ConfigError(f"{path}: missing run data")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:  # a directory, say, or text that is not numbers
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
        # the grid's nodes, to within the 1e-9 spacings of Grid.node_index; NaN fails
        if not (np.abs(x1s - grid.x1_coords).max() <= 1e-9 * grid.h1
                and np.abs(x2s - grid.x2_coords).max() <= 1e-9 * grid.h2):
            raise ValueError("coordinates are not evenly spaced")
        vals = np.empty((n1, n2))
        vals[i, j] = data[:, 2]
        return GridFunction(grid, vals)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _read_json(path: Path, readers: dict) -> dict:
    """The keys of a JSON artifact, each read by its value reader in ``readers``;
    ConfigError naming the file if it cannot supply them."""
    try:
        obj = json.loads(path.read_text())
        values = {k: obj[k] for k in readers}
    except (ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: unreadable run data ({type(e).__name__}: {e})") from e
    for key, read in readers.items():
        try:
            values[key] = read(values[key])
        except ValueError as e:
            raise ConfigError(f"{path}: {key}: {e}") from e
    return values


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


_RUN_JSON = {  # the keys of run.json a command reads
    "files": _reader(lambda v: isinstance(v, list) and v and all(isinstance(f, str) for f in v),
                     "a non-empty list of file names"),
    "eps_values": _reader(lambda v: _numbers(v) and all(e > 0 for e in v),
                          "a list of positive numbers"),
    "lip_norms": _reader(lambda v: _numbers(v) and all(x >= 0 for x in v),
                         "a list of non-negative numbers"),
}


def _load_run(run_dir: Path) -> tuple[GridFunction, float, list]:
    """A continuation directory's final solution and epsilon, and its recorded
    Lipschitz norms: ``run.json`` and the last solution file it names."""
    path = run_dir / "run.json"
    if not path.exists():
        raise ConfigError(f"{path}: missing run data")
    meta = _read_json(path, _RUN_JSON)
    if not len(meta["files"]) == len(meta["eps_values"]) == len(meta["lip_norms"]):
        raise ConfigError(f"{path}: files, eps_values and lip_norms differ in length")
    return (_read_solution_csv(run_dir / meta["files"][-1]), float(meta["eps_values"][-1]),
            meta["lip_norms"])


def _load_state(run_dir: Path) -> tuple[GridFunction, float]:
    """Final solution and epsilon from either a solve or a continuation dir."""
    if (run_dir / "run.json").exists():
        return _load_run(run_dir)[:2]
    report_path = run_dir / "report.json"
    if report_path.exists():
        eps = _read_json(report_path, {"eps": _positive})["eps"]
        return _read_solution_csv(run_dir / "solution.csv"), eps
    raise ConfigError(f"{run_dir}: no run.json or report.json found")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


# The state files of solve and continuation, and of foliate.  A command
# removes its kind's files just before it writes, so that a reused directory
# holds one run's state; the files of other commands stay.
_RUN_STATE = re.compile(r"solution(_\d{3,})?\.csv|(report|run|ledger)\.json")
_LEAF_STATE = re.compile(r"leaf_\d{3,}\.csv|leaves\.json")


def _clear(out: Path, state: re.Pattern) -> None:
    """Remove the files in ``out`` whose names ``state`` matches."""
    for path in out.iterdir():
        if state.fullmatch(path.name):
            path.unlink()


def _write_solve(out: Path, prov: dict, eps: float, sol: GridFunction, report) -> None:
    """A solve's ``solution.csv`` and its ``report.json`` at ``eps``."""
    _solution_writer(sol.grid)(out / "solution.csv", sol)
    _write_json(out / "report.json", {**prov, "eps": eps, **_report_dict(report)})


def _stalled(out: Path, prov: dict, eps: float, failure: NonConvergenceError) -> int:
    """Exit code 2: write the failed solve's best iterate at ``eps``; say why on stderr."""
    _write_solve(out, prov, eps, failure.best, failure.report)
    print(failure, file=sys.stderr)
    return 2


def cmd_solve(c: dict, out: Path, prov: dict) -> int:
    boundary = _boundary_from(c["boundary"], c["grid"])
    try:
        sol, report = solve_eps(c["grid"], boundary, c["eps"], c.get("solver", SolverConfig()))
    except NonConvergenceError as e:
        _clear(out, _RUN_STATE)
        return _stalled(out, prov, c["eps"], e)
    _clear(out, _RUN_STATE)
    _write_solve(out, prov, c["eps"], sol, report)
    return 0


def _write_run(prov: dict, out: Path, run: VanishingViscosityRun) -> None:
    """``run.json``, ``ledger.json`` and one CSV per solution, in place of the
    earlier run state in ``out``; nothing for an empty run.  The ledger is
    measured first: ``run.json``'s ``m_bounds`` are its rows' M, and its
    ``lip_norms`` and ``sup_diffs`` are measured from the solutions.

    A continuation that stalls at its first eps leaves only the stalled
    step's ``solution.csv`` and ``report.json``, which read back as a solve.
    """
    _clear(out, _RUN_STATE)
    if not run.solutions:
        return
    ledger = norm_ledger(run)
    files = []
    write = _solution_writer(run.solutions[0].grid)  # a continuation's steps share its grid
    for k, sol in enumerate(run.solutions):
        name = f"solution_{k:03d}.csv"
        write(out / name, sol)
        files.append(name)
    _write_json(out / "run.json", {
        **prov,
        "eps_values": list(run.eps_values),
        "lip_norms": [sol.lip_norm for sol in run.solutions],
        "m_bounds": [row["M"] for row in ledger["rows"]],
        "sup_diffs": [float(np.max(np.abs(new.values - prev.values)))
                      for prev, new in zip(run.solutions, run.solutions[1:])],
        "files": files,
    })
    _write_json(out / "ledger.json", {**prov, **ledger})


def cmd_continuation(c: dict, out: Path, prov: dict) -> int:
    boundary = _boundary_from(c["boundary"], c["grid"])
    try:
        run = continuation(c["grid"], boundary, c["schedule"], c.get("solver", SolverConfig()))
    except ContinuationError as e:  # the converged prefix, then the stalled step
        _write_run(prov, out, e.partial_run)
        return _stalled(out, prov, e.eps, e)
    _write_run(prov, out, run)
    return 0


def cmd_foliate(c: dict, out: Path, prov: dict) -> int:
    sec = c["foliate"]
    sol, _eps = _load_state(sec["run_dir"])
    spacing = sec.get("seed_spacing", 2 * max(sol.grid.h1, sol.grid.h2))
    try:
        leaves = foliation_cover(sol, spacing)
    except ValueError as e:  # a spacing below the run's grid spacing
        raise ConfigError(f"foliate.seed_spacing: {e}") from e
    _clear(out, _LEAF_STATE)
    summary = []
    for k, leaf in enumerate(leaves):
        name = f"leaf_{k:03d}.csv"
        _write_csv(out / name, ["t", "x1", "x2", "u", "first", "second"], leaf_table(leaf))
        row = {"file": name, "seed": list(leaf.start), "samples": len(leaf)}
        if len(leaf) >= 8:
            row.update(fit_leaf(leaf))
        summary.append(row)
    _write_json(out / "leaves.json", {
        **prov,
        "seed_spacing": spacing,
        "coverage": coverage_fraction(sol, leaves),
        "leaves": summary,
    })
    return 0


def cmd_diagnose(c: dict, out: Path, prov: dict) -> int:
    sec = c["diagnose"]
    final, eps, lip_norms = _load_run(sec["run_dir"])
    budgets = sec.get("budgets", DiagnosticsBudgets())
    _measurable(final.grid, "diagnose.budgets.window", budgets.window)
    vd = verdict(final, eps, lip_norms, budgets)
    _write_json(out / "verdict.json", {**prov, **vd})
    return 0


def cmd_example(c: dict, out: Path, prov: dict) -> int:
    grid = c["grid"]
    entry = make_entry(c["example"]["name"], c["example"].get("params"))
    vals = _on_grid(grid, entry.eval, f"example {entry.name!r} undefined on this grid")
    _solution_writer(grid)(out / "example.csv", vals)
    _write_json(out / "example.json", {**prov, "name": entry.name, "flags": entry.flags})
    return 0


def cmd_distance(c: dict, out: Path, prov: dict) -> int:
    sec = c["distance"]
    sol, eps = _load_state(sec["run_dir"])
    x0 = sec["x0"]
    n_points = sec.get("n_points", 20)
    mesh = sec.get("mesh", 0.01)
    box = sec.get("box", (0.2, 0.2, 0.2))
    # the lattice cannot resolve separations of a few cells; stay above them
    min_sep = sec.get("min_separation", 4.0 * mesh)
    try:
        ff = taylor_p1(Frame(sol, eps), x0)
    except ValueError as e:
        raise ConfigError(f"distance.x0: {e}") from e
    try:
        sweep = OracleLattice(ff, mesh, box)
    except ValueError as e:
        raise ConfigError(f"distance: {e}") from e
    rng = np.random.default_rng(sec.get("seed", 0))
    rows = []
    ratios = []
    # each query sweeps on until its node has a level, so the sweep stops at
    # the farthest accepted point unless a candidate is unreachable
    for _ in range(50 * n_points):
        off = rng.uniform(-0.45, 0.45, size=3) * np.array(box)
        p = LiftedPoint(x0[0] + off[0], x0[1] + off[1], off[2])
        d_eps = dist_surrogate_eps(ff, p)
        if d_eps < min_sep:
            continue
        try:
            d_orc = sweep.distance(p)
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
        **prov,
        "eps": eps,
        "mesh": mesh,
        "n_points": len(rows),
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    })
    return 0


_COMMANDS = {  # each command and the config sections it reads
    "solve": (cmd_solve, _Section(
        {"grid": _SOLVE_GRID, "boundary": _BOUNDARY, "eps": _positive, "solver": _SOLVER},
        ("grid", "boundary", "eps"))),
    "continuation": (cmd_continuation, _Section(
        {"grid": _RUN_GRID, "boundary": _BOUNDARY, "schedule": _fields(EpsSchedule),
         "solver": _SOLVER},
        ("grid", "boundary", "schedule"))),
    "foliate": (cmd_foliate, _Section({"foliate": _Section(
        {"run_dir": _path, "seed_spacing": _positive}, ("run_dir",))}, ("foliate",))),
    "diagnose": (cmd_diagnose, _Section({"diagnose": _Section(
        {"run_dir": _path, "budgets": _fields(DiagnosticsBudgets)}, ("run_dir",))}, ("diagnose",))),
    "example": (cmd_example, _Section(
        {"grid": _GRID, "example": _EXAMPLE},
        ("grid", "example"))),
    "distance": (cmd_distance, _Section({"distance": _Section({
        "run_dir": _path, "x0": _reader(lambda v: _numbers(v, 2), "[x1, x2]", tuple),
        "n_points": _integer(1), "mesh": _positive, "seed": _integer(0), "min_separation": _number,
        "box": _reader(lambda v: _numbers(v, 3) and min(v) > 0, "3 positive numbers", tuple),
    }, ("run_dir", "x0"))}, ("distance",))),
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
    command, section = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        c = _read(cfg, section)  # the whole config, before a run is loaded or a file written
        with _output_dir(cfg) as out:
            return command(c, out, _provenance(cfg))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # a file the command could not open, read, write or remove
        # of os.replace's two paths, the artifact, not its temporary file
        name = e.filename2 or e.filename
        print(f"error: {name}: {e.strerror}" if name else f"error: {e.strerror or e}",
              file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
