"""Run one benchmark workload in this process: set up, time operations, check.

Invoked by ``run.py`` in a fresh interpreter per workload (so the peak
resident memory belongs to that workload alone) from the root of a checkout:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  With ``--trace 0`` it
carries the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced set-up and traced operations, and the tracing overhead against
untraced operations interleaved with them.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hmingraph.cli  # noqa: E402,F401  (first import of the package: timed)

IMPORT_S = time.perf_counter() - _T_IMPORT

import numpy as np  # noqa: E402

import hmingraph.diagnostics as hdiag  # noqa: E402
import hmingraph.geometry as hgeo  # noqa: E402
import hmingraph.solver as hsol  # noqa: E402
from hmingraph.grid import Grid, GridFunction  # noqa: E402

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, subtree_totals  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBES = 2  # fresh interpreters that time the import besides this one
BASE = (0.5, 1.5)  # base node of every frozen frame, the centre of [0,1]x[1,2]
UNIT_BOX = ((0.0, 1.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# continuation129: the vanishing-viscosity limit process
# ---------------------------------------------------------------------------


@dataclass
class ContinuationState:
    grid: Grid
    boundary: hsol.BoundaryData
    schedule: hsol.EpsSchedule
    config: hsol.SolverConfig
    ring: np.ndarray


def continuation_setup(n: int) -> ContinuationState:
    grid = Grid(UNIT_BOX[0], UNIT_BOX[1], n, n)
    X1, X2 = ref.nodes(*UNIT_BOX, n, n)
    return ContinuationState(
        grid=grid,
        boundary=hsol.BoundaryData.from_callable(grid, ref.fan_bump),
        schedule=hsol.EpsSchedule(),
        config=hsol.SolverConfig(),
        ring=ref.ring(ref.fan_bump(X1, X2)),
    )


def check_continuation(st: ContinuationState, run) -> list:
    """Failed properties of a continuation run (empty when all hold)."""
    bad = []
    h1, h2 = st.grid.h1, st.grid.h2
    if list(run.eps_values) != ref.geometric_schedule():
        bad.append(f"eps values {run.eps_values} are not the geometric schedule")
    vals = [sol.values for sol in run.solutions]
    if len(vals) != len(run.eps_values):
        bad.append("one solution per eps expected")
    if any(np.max(np.abs(ref.ring(v) - st.ring)) > 1e-13 for v in vals):
        bad.append("a boundary ring differs from fan_bump")
    tol = st.config.newton_tol
    if not all(r.converged and r.final_residual <= tol for r in run.reports):
        bad.append(f"a stored residual exceeds newton_tol {tol:g}")
    lips = [ref.lip_norm(v, h1, h2) for v in vals]
    if max(lips) / min(lips) > 2.0:
        bad.append(f"Lipschitz ratio {max(lips) / min(lips):.3f} > 2")
    sd = [float(np.max(np.abs(b - a))) for a, b in zip(vals, vals[1:])]
    if not all(sd[k + 1] <= 1.1 * sd[k] for k in range(len(sd) - 1)):
        bad.append("sup-differences are not monotone")
    first = ref.x1x1_interior_sup(vals[0], h1, h2)
    final = ref.x1x1_interior_sup(vals[-1], h1, h2)
    if not final <= 0.25 * first:
        bad.append(f"X1X1u interior sup {final:.3e} > 0.25 * {first:.3e}")
    return bad


def oracle_faults(oracle, surrogate) -> list:
    """Acceptance 8's properties of oracle distances against the surrogate:
    every point lies above the minimum separation, so its oracle distance is
    positive, and oracle/surrogate lies in [0.2, 5]."""
    oracle, surrogate = np.asarray(oracle), np.asarray(surrogate)
    ratio = oracle / surrogate
    bad = []
    if np.any(oracle <= 0.0):
        bad.append(f"{int(np.sum(oracle <= 0.0))} of {oracle.size} oracle distances are 0")
    if not (ratio.min() >= 0.2 and ratio.max() <= 5.0):
        bad.append(f"oracle/surrogate ratios span [{ratio.min():.3f}, {ratio.max():.3f}],"
                   " outside [0.2, 5]")
    return bad


def note_seeded_faults(faults: list) -> None:
    """Print acceptance 8's faults on seeded points.

    They appear on some seeds only, so they cannot count as failed
    operations without making the failed share depend on the seed; the
    workload's probe reproduces them on fixed inputs instead.
    """
    for f in faults:
        print(f"not counted, seeded points: {f}", file=sys.stderr)


class Workload:
    """``setup`` builds the inputs, ``op`` is one timed operation, ``check``
    lists the properties its output fails (empty when all hold).

    A workload may also have a ``probe``: an untimed operation on fixed
    inputs, made once after every timed one, that reproduces a known fault
    of the program.  It returns its failed checks like ``check``.
    """

    setup_problems: tuple = ()  # failed checks on what set-up computed
    probe = None

    def reset(self, st) -> None:
        """Untimed preparation before each operation."""

    def bytes_written(self, st) -> int:
        return 0


class Continuation(Workload):
    """``continuation`` on fan_bump at n x n with the default schedule."""

    def __init__(self, n: int = 129):
        self.n = n

    def setup(self, seed: int, workdir: Path) -> ContinuationState:
        return continuation_setup(self.n)

    def op(self, st: ContinuationState, tracer: Tracer):
        return hsol.continuation(st.grid, st.boundary, st.schedule, st.config)

    def check(self, st, out) -> list:
        return check_continuation(st, out)


# ---------------------------------------------------------------------------
# pipeline65: the CLI chain solve -> continuation -> foliate -> diagnose ->
# distance -> example, writing artifacts and reading them back
# ---------------------------------------------------------------------------

PIPELINE = ("solve", "continuation", "foliate", "diagnose", "distance", "example")
SHEAR_BOX = ((2.0, 4.0), (-1.0, 1.0))
# a point-sampling seed at which ``hmingraph distance`` on the 65^2 chain
# gives an oracle/surrogate ratio of 8.7, outside acceptance 8's [0.2, 5]
PIPELINE_PROBE_SEED = 18


@dataclass
class PipelineState:
    tree: Path
    configs: dict
    n: int
    probe_dir: Path
    reference_digest: str | None = None


class Pipeline(Workload):
    """The six CLI commands on n x n grids into one freshly cleared tree."""

    def __init__(self, n: int = 65, mesh: float = 0.01, n_points: int = 20):
        self.n, self.mesh, self.n_points = n, mesh, n_points

    def setup(self, seed: int, workdir: Path) -> PipelineState:
        tree = workdir / "tree"
        conf = workdir / "configs"
        shutil.rmtree(conf, ignore_errors=True)
        conf.mkdir(parents=True)
        grid = {"x1": list(UNIT_BOX[0]), "x2": list(UNIT_BOX[1]), "n1": self.n, "n2": self.n}
        data = {"grid": grid, "boundary": {"expr": ref.FAN_BUMP_EXPR}}
        cfgs = {
            "solve": {**data, "eps": 0.1},
            "continuation": {**data, "schedule": {}},
            "foliate": {"foliate": {"run_dir": str(tree / "continuation")}},
            "diagnose": {"diagnose": {"run_dir": str(tree / "continuation")}},
            "distance": {"distance": {"run_dir": str(tree / "solve"), "x0": list(BASE),
                                      "mesh": self.mesh, "n_points": self.n_points,
                                      "seed": seed}},
            "probe": {"distance": {"run_dir": str(tree / "solve"), "x0": list(BASE),
                                   "mesh": self.mesh, "n_points": self.n_points,
                                   "seed": PIPELINE_PROBE_SEED}},
            "example": {"example": {"name": "shear-abs"},
                        "grid": {"x1": list(SHEAR_BOX[0]), "x2": list(SHEAR_BOX[1]),
                                 "n1": self.n, "n2": self.n}},
        }
        paths = {}
        for cmd, cfg in cfgs.items():
            cfg["output_dir"] = str(workdir / "probe" if cmd == "probe" else tree / cmd)
            paths[cmd] = conf / f"{cmd}.json"
            paths[cmd].write_text(json.dumps(cfg, indent=1))
        return PipelineState(tree=tree, configs=paths, n=self.n, probe_dir=workdir / "probe")

    def reset(self, st: PipelineState) -> None:
        shutil.rmtree(st.tree, ignore_errors=True)

    def op(self, st: PipelineState, tracer: Tracer):
        codes = {}
        for cmd in PIPELINE:
            with tracer.span(f"cli.{cmd}"):
                codes[cmd] = hmingraph.cli.main([cmd, str(st.configs[cmd])])
        return codes

    def bytes_written(self, st: PipelineState) -> int:
        return sum(p.stat().st_size for p in st.tree.rglob("*") if p.is_file())

    def check(self, st: PipelineState, codes) -> list:
        bad = [f"{cmd} exited {c}" for cmd, c in codes.items() if c != 0]
        if bad:
            return bad
        digest = _tree_digest(st.tree)
        if st.reference_digest is None:
            st.reference_digest = digest
        elif digest != st.reference_digest:
            bad.append("artifacts differ from the first operation's")
        bad += _check_leaves(st.tree / "foliate")
        bad += _check_verdict(st.tree / "diagnose" / "verdict.json")
        bad += _check_distance(st.tree, st.n)
        bad += _check_example(st.tree / "example" / "example.csv")
        return bad

    def probe(self, st: PipelineState) -> list:
        """``hmingraph distance`` at the fixed probe seed on the chain's
        ε=0.1 solve, held to acceptance 8's properties."""
        code = hmingraph.cli.main(["distance", str(st.configs["probe"])])
        if code != 0:
            return [f"probe distance exited {code}"]
        rows = _read_csv(st.probe_dir / "distance.csv")
        return oracle_faults(rows[:, 5], rows[:, 3])


def _tree_digest(tree: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in tree.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(tree)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_leaves(folder: Path) -> list:
    bad = []
    meta = json.loads((folder / "leaves.json").read_text())
    if meta["coverage"] < 0.9:
        bad.append(f"coverage {meta['coverage']:.3f} < 0.9")
    if not meta["leaves"]:
        return bad + ["no leaves"]
    for row in meta["leaves"]:
        table = _read_csv(folder / row["file"])
        if not np.array_equal(table[:, 1], row["seed"][0] + table[:, 0]):
            bad.append(f"{row['file']}: x1 column is not seed + t")
        if row.get("gamma2_quad_rel_residual", 0.0) > 1e-3:
            bad.append(f"{row['file']}: quadratic residual "
                       f"{row['gamma2_quad_rel_residual']:.2e} > 1e-3")
    return bad


def _check_verdict(path: Path) -> list:
    vd = json.loads(path.read_text())
    bad = [f"Holder row alpha={r['alpha']} failed" for r in vd["alpha_estimates"] if not r["pass"]]
    if not vd["x2u_sup"] <= 0.5:
        bad.append(f"x2u_sup {vd['x2u_sup']:.3e} > 0.5")
    if not vd["lip_ratio"] <= 2.0:
        bad.append(f"lip_ratio {vd['lip_ratio']:.3f} > 2")
    return bad


def _check_distance(tree: Path, n: int) -> list:
    """Surrogates against the closed form; oracle rows finite and consistent."""
    meta = json.loads((tree / "distance" / "distance.json").read_text())
    rows = _read_csv(tree / "distance" / "distance.csv")
    sol = _read_csv(tree / "solve" / "solution.csv")[:, 2].reshape(n, n)
    i = j = (n - 1) // 2
    eps = meta["eps"]
    model = ref.frozen_model(sol, *UNIT_BOX, i, j, eps)
    e = ref.frozen_coords(model, BASE, eps, rows[:, 0], rows[:, 1], rows[:, 2])
    bad = []
    if ref.relative_error(rows[:, 3], ref.gauge_eps(*e, eps)) > 1e-8:
        bad.append("surrogate_eps disagrees with the closed-form frozen flow")
    if ref.relative_error(rows[:, 4], ref.gauge_cc(*e, eps)) > 1e-8:
        bad.append("surrogate_cc disagrees with the closed-form frozen flow")
    if not (np.all(np.isfinite(rows[:, 5])) and np.array_equal(rows[:, 6], rows[:, 5] / rows[:, 3])):
        bad.append("oracle column not finite or ratio column inconsistent")
    if np.any(rows[:, 3] < 4.0 * meta["mesh"]):
        bad.append("a sampled point lies below the minimum separation")
    note_seeded_faults(oracle_faults(rows[:, 5], rows[:, 3]))
    return bad


def _check_example(path: Path) -> list:
    tab = _read_csv(path)
    err = float(np.max(np.abs(tab[:, 2] - ref.shear_abs_table(tab[:, 0], tab[:, 1]))))
    return [] if err <= 1e-12 else [f"shear-abs table off by {err:.2e}"]


# ---------------------------------------------------------------------------
# expansion129: acceptance 9's pointwise expansion and acceptance 8's oracle
# table on the final state of the 129^2 continuation
# ---------------------------------------------------------------------------


@dataclass
class ExpansionState:
    u: GridFunction
    eps: float
    sampled: GridFunction
    seed: int
    probe_frame: hgeo.FrozenFrame


def draw_points(ff, seed: int, n_points: int, box: float, min_sep: float):
    """Acceptance 8's sampling: uniform in ±0.45·box around the base, kept
    once ``dist_surrogate_eps`` reaches ``min_sep``.  Returns the kept points,
    every draw as (x1, x2, s) rows and the surrogate of every draw."""
    rng = np.random.default_rng(seed)
    drawn, d_eps, pts = [], [], []
    while len(pts) < n_points:
        d = rng.uniform(-0.45, 0.45, size=3) * box
        p = hgeo.LiftedPoint(BASE[0] + d[0], BASE[1] + d[1], d[2])
        de = hgeo.dist_surrogate_eps(ff, p)
        drawn.append((p.x1, p.x2, p.s))
        d_eps.append(de)
        if de >= min_sep:
            pts.append(p)
    return pts, np.array(drawn), np.array(d_eps)


class Expansion(Workload):
    """Hölder exponents, the remainder exponent and the oracle/surrogate table."""

    FROZEN_EPS = 0.25
    BOX = 0.2
    MIN_SEP = 0.04
    # acceptance 8's exact setting at a seed where one kept point gets
    # oracle distance 0: the 0.04 sweep snaps it onto the lattice centre
    PROBE_SEED = 83
    PROBE_N, PROBE_MESH, PROBE_POINTS = 65, 0.01, 20

    def __init__(self, n: int = 129, n_frozen: int = 65, radii=(0.05, 0.2),
                 meshes=(0.04, 0.02, 0.01), n_points: int = 20):
        self.n, self.n_frozen, self.radii = n, n_frozen, tuple(radii)
        self.meshes, self.n_points = tuple(meshes), n_points

    def setup(self, seed: int, workdir: Path) -> ExpansionState:
        cst = continuation_setup(self.n)
        run = hsol.continuation(cst.grid, cst.boundary, cst.schedule, cst.config)
        self.setup_problems = check_continuation(cst, run)
        g = Grid(UNIT_BOX[0], UNIT_BOX[1], self.n_frozen, self.n_frozen)
        gp = Grid(UNIT_BOX[0], UNIT_BOX[1], self.PROBE_N, self.PROBE_N)
        probe_frame = hgeo.taylor_p1(
            hgeo.Frame(GridFunction.from_callable(gp, ref.fan_bump), self.FROZEN_EPS), BASE)
        return ExpansionState(u=run.final, eps=run.final_eps,
                              sampled=GridFunction.from_callable(g, ref.fan_bump), seed=seed,
                              probe_frame=probe_frame)

    def op(self, st: ExpansionState, tracer: Tracer) -> dict:
        u, g = st.u, st.u.grid
        fr = hgeo.Frame(u, st.eps)
        window = (2 * max(g.h1, g.h2),
                  0.25 * min(g.x1_range[1] - g.x1_range[0], g.x2_range[1] - g.x2_range[0]))
        alpha = max(hdiag.holder_exponent_estimate(hgeo.apply_x1(fr, u), window),
                    hdiag.holder_exponent_estimate(GridFunction(g, u.d2()), window))
        exponent = hgeo.taylor_remainder_exponent(fr, BASE, self.radii)

        ff = hgeo.taylor_p1(hgeo.Frame(st.sampled, self.FROZEN_EPS), BASE)
        pts, drawn, d_eps = draw_points(ff, st.seed, self.n_points, self.BOX, self.MIN_SEP)
        tables = {m: hgeo.dist_oracle_many(ff, pts, m) for m in self.meshes}
        d_cc = [hgeo.dist_surrogate_cc(ff, p) for p in pts]
        return {"alpha": alpha, "exponent": exponent, "drawn": drawn,
                "d_eps": d_eps, "d_cc": np.array(d_cc), "tables": tables}

    def probe(self, st: ExpansionState) -> list:
        """Acceptance 8's oracle table at the fixed probe seed, held to its
        properties."""
        pts, _, d_eps = draw_points(st.probe_frame, self.PROBE_SEED, self.PROBE_POINTS,
                                    self.BOX, self.MIN_SEP)
        oracle = hgeo.dist_oracle_many(st.probe_frame, pts, self.PROBE_MESH)
        return oracle_faults(oracle, d_eps[d_eps >= self.MIN_SEP])

    def check(self, st: ExpansionState, out: dict) -> list:
        bad = []
        if not out["exponent"] >= 1.0 + out["alpha"] - 0.1:
            bad.append(f"exponent {out['exponent']:.3f} < 1 + {out['alpha']:.3f} - 0.1")
        vals = st.u.values
        want, n_used = ref.remainder_exponent(vals, *UNIT_BOX, BASE, st.eps, self.radii)
        if not abs(out["exponent"] - want) <= 1e-6:
            bad.append(f"exponent {out['exponent']:.9f} differs from the closed-form "
                       f"gauge fit {want:.9f} ({n_used} samples)")
        eps = self.FROZEN_EPS
        X1, X2 = ref.nodes(*UNIT_BOX, self.n_frozen, self.n_frozen)
        c = (self.n_frozen - 1) // 2
        model = ref.frozen_model(ref.fan_bump(X1, X2), *UNIT_BOX, c, c, eps)
        drawn = out["drawn"]
        e = ref.frozen_coords(model, BASE, eps, drawn[:, 0], drawn[:, 1], drawn[:, 2])
        if ref.relative_error(out["d_eps"], ref.gauge_eps(*e, eps)) > 1e-8:
            bad.append("dist_surrogate_eps disagrees with the closed-form frozen flow")
        kept = out["d_eps"] >= self.MIN_SEP
        e_kept = tuple(x[kept] for x in e)
        if ref.relative_error(out["d_cc"], ref.gauge_cc(*e_kept, eps)) > 1e-8:
            bad.append("dist_surrogate_cc disagrees with the closed-form frozen flow")
        meshes = sorted(self.meshes, reverse=True)
        for coarse, fine in zip(meshes, meshes[1:]):
            a, b = np.array(out["tables"][coarse]), np.array(out["tables"][fine])
            if not np.all(a >= b * (1 - 1e-12)):
                bad.append(f"oracle distance grows from mesh {coarse:g} to {fine:g}")
        if not all(np.all(np.isfinite(t)) for t in out["tables"].values()):
            bad.append("oracle distance not finite")
        note_seeded_faults(oracle_faults(out["tables"][meshes[-1]], out["d_eps"][kept]))
        return bad


WORKLOADS = {
    "continuation129": Continuation,
    "pipeline65": Pipeline,
    "expansion129": Expansion,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class OpRunner:
    """Runs operations of one workload and keeps the tallies."""

    def __init__(self, wl, st):
        self.wl, self.st = wl, st
        self.attempted = 0
        self.failed = 0
        self.probe_failed = 0

    def run_op(self, tracer: Tracer | None = None):
        """One round: a timed operation, traced into ``tracer`` if given, its
        checks, then the untimed, untraced probe if the workload has one;
        returns the operation's (seconds, output)."""
        self.wl.reset(self.st)
        self.attempted += 1
        out = None
        spans = tracer or Tracer()
        t0 = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext(), spans.span("op"):
                out = self.wl.op(self.st, spans)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
        dt = time.perf_counter() - t0
        problems = ["operation raised"] if out is None else self.wl.check(self.st, out)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        if self.wl.probe is not None:
            self.attempted += 1
            try:
                problems = self.wl.probe(self.st)
            except Exception:
                traceback.print_exc()
                problems = ["probe raised"]
            if problems:
                self.failed += 1
                self.probe_failed += 1
                for p in problems:
                    print(f"probe check failed: {p}", file=sys.stderr)
        return dt, out


def import_seconds() -> list:
    """First-import times of ``hmingraph.cli``: this process's, then those of
    ``IMPORT_PROBES`` fresh interpreters run one after another."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hmingraph.cli; print(time.perf_counter() - t)")
    times = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(out.stdout))
    return times


def measure(wl, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics: set-up time, median operation time, peak memory.

    Both times are reported at the host's nominal speed (``hostspeed``).  The
    reference kernel is timed before the imports, before every set-up and
    after the last, and again before every operation and after the last; the
    set-up and the operations are each scaled by their own kernel times.
    """
    with hostspeed.KernelServer() as server:
        setup_gauge, op_gauge = hostspeed.Gauge(server), hostspeed.Gauge(server)
        setup_gauge.sample()
        imports = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_gauge.sample()
            t0 = time.perf_counter()
            st = wl.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
        setup_gauge.sample()
        sess = OpRunner(wl, st)
        times = []
        deadline = time.perf_counter() + seconds
        while True:  # whole operations while the next one is expected to fit
            op_gauge.sample()
            dt, _ = sess.run_op()
            times.append(dt)
            if time.perf_counter() + statistics.median(times) > deadline:
                break
        op_gauge.sample()
    problems = wl.setup_problems
    for p in problems:
        print(f"set-up check failed: {p}", file=sys.stderr)
    print(f"operations: {len(times)}, op_s samples: " + ", ".join(f"{t:.3f}" for t in times))
    print("import samples (s): " + ", ".join(f"{t:.3f}" for t in imports)
          + "; set-up samples (s): " + ", ".join(f"{t:.3f}" for t in setups))
    setup_wall = statistics.median(imports) + statistics.median(setups)
    op_wall = statistics.median(times)
    print(f"wall medians: setup {setup_wall:.4f} s, op {op_wall:.4f} s; reference kernel "
          f"medians: {statistics.median(setup_gauge.times):.4f} s in set-up, "
          f"{statistics.median(op_gauge.times):.4f} s among operations "
          f"(nominal {hostspeed.NOMINAL_S} s)")
    if sess.probe_failed:
        print(f"probe: {sess.probe_failed} of {len(times)} probe operations failed"
              " on their fixed inputs")
    return {
        "correct": sess.failed == sess.probe_failed and not problems,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {
            "setup_s": {"value": setup_wall * setup_gauge.scale(), "unit": "s"},
            "op_s": {"value": op_wall * op_gauge.scale(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        },
    }


def measure_traced(wl, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer metrics from a traced set-up and traced operations.

    Untraced and traced operations alternate while the next pair is expected
    to end within ``seconds`` (at least one pair); the difference of their
    medians is the tracing overhead.
    """
    tracer = Tracer()
    with tracer.installed(), tracer.span("setup"):
        st = wl.setup(seed, workdir)
    setup_totals = subtree_totals(tracer.spans, 0)
    sess = OpRunner(wl, st)
    plain, traced, op_totals, cli_io, roots = [], [], [], [], []
    bytes_written = None
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(sess.run_op()[0])
        roots.append(len(tracer.spans))
        traced.append(sess.run_op(tracer)[0])
        op_totals.append(subtree_totals(tracer.spans, roots[-1]))
        selfs = self_times(tracer.spans, roots[-1])
        cli_io.append(sum((v for k, v in selfs.items() if k.startswith("cli.")), 0.0))
        if bytes_written is None:
            bytes_written = wl.bytes_written(st)
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    problems = wl.setup_problems
    for p in problems:
        print(f"set-up check failed: {p}", file=sys.stderr)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.dump(workdir / f"trace-seed{seed}.jsonl")
    _print_shares(tracer.spans, roots, traced)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead: {overhead:+.3f} s on a {statistics.median(plain):.3f} s operation")
    return {
        "correct": sess.failed == sess.probe_failed and not problems,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": layer_metrics(setup_totals, op_totals, cli_io, bytes_written, overhead),
    }


def _print_shares(spans, roots, traced) -> None:
    """Self and inclusive time per layer and per span name in the median traced op."""
    k = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    selfs = self_times(spans, roots[k])
    totals = subtree_totals(spans, roots[k])
    total = traced[k]
    layers: dict = {}
    for name, v in selfs.items():
        layer = "bench" if name == "op" else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    print(f"self time by layer (traced op of {total:.3f} s):")
    for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {v:9.3f} s  {100 * v / total:5.1f} %")
    print(f"{'span':<40} {'calls':>8} {'inclusive':>10} {'share':>6} {'self':>9} {'share':>6}")
    for name, v in sorted(selfs.items(), key=lambda kv: -totals[kv[0] + ".s"]):
        inc = totals[name + ".s"]
        print(f"{name:<40} {int(totals[name + '.calls']):8d} {inc:9.3f}s {100 * inc / total:5.1f}%"
              f" {v:8.3f}s {100 * v / total:5.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", default=".perfbench_runs")
    args = ap.parse_args(argv)
    workdir = (ROOT / args.workdir / args.workload).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    fn = measure_traced if args.trace else measure
    result = fn(wl, args.seed, args.seconds, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
