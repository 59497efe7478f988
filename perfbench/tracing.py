"""Span tracing by rebinding the names hmingraph's modules look up.

Each traced callee is replaced, inside a :meth:`Tracer.installed` block, by
a wrapper that records one span ``[name, start, end, parent, info]`` per
call.  Wrapping happens at the name each caller module resolves at
call time (``hmingraph.solver.spsolve``, ``hmingraph.cli.fit_leaf``, the
``GridFunction.interp`` method, ...), so the program itself is unchanged.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

import hmingraph.cli as hcli
import hmingraph.diagnostics as hdiag
import hmingraph.foliation as hfol
import hmingraph.geometry as hgeo
import hmingraph.grid as hgrid
import hmingraph.solver as hsol

# the package re-exports the function ``catalog`` under the submodule's name
hcat = importlib.import_module("hmingraph.catalog")

# (owner, attribute, span name).  Private attributes are traced only so that
# their time is not booked as CLI I/O; they are skipped if they disappear.
REBINDS = [
    (hgrid.GridFunction, "interp", "grid.interp"),
    (hsol, "residual_div", "operators.residual_div"),
    (hsol, "jacobian_assemble", "operators.jacobian_assemble"),
    (hsol, "spsolve", "solver.linear_solve"),
    (hsol, "solve_eps", "solver.solve_eps"),
    (hcli, "solve_eps", "solver.solve_eps"),
    (hsol, "continuation", "solver.continuation"),
    (hcli, "continuation", "solver.continuation"),
    (hfol, "trace_leaf", "foliation.trace_leaf"),
    (hcli, "foliation_cover", "foliation.foliation_cover"),
    (hcli, "fit_leaf", "foliation.fit_leaf"),
    (hcli, "leaf_table", "foliation.leaf_table"),
    (hcli, "coverage_fraction", "foliation.coverage_fraction"),
    (hcli, "norm_ledger", "diagnostics.norm_ledger"),
    (hcli, "verdict", "diagnostics.verdict"),
    (hdiag, "holder_seminorm", "diagnostics.holder_seminorm"),
    (hdiag, "holder_exponent_estimate", "diagnostics.holder_exponent_estimate"),
    (hgeo, "taylor_remainder_exponent", "geometry.taylor_remainder_exponent"),
    (hgeo, "dist_surrogate_eps", "geometry.dist_surrogate_eps"),
    (hcli, "dist_surrogate_eps", "geometry.dist_surrogate_eps"),
    (hgeo, "dist_surrogate_cc", "geometry.dist_surrogate_cc"),
    (hcli, "dist_surrogate_cc", "geometry.dist_surrogate_cc"),
    (hgeo, "dist_oracle_many", "geometry.dist_oracle_many"),
    (hgeo, "_oracle_sweep", "geometry.oracle_sweep"),
    (hcli, "_oracle_sweep", "geometry.oracle_sweep"),
    (hcat, "shear_graph", "catalog.shear_graph"),
]

# name, unit, better; the per-layer metrics a traced run reports
PER_LAYER = [
    ("grid.interp.calls", "count", "lower"),
    ("grid.interp.s", "s", "lower"),
    ("operators.residual_div.calls", "count", "lower"),
    ("operators.residual_div.s", "s", "lower"),
    ("operators.jacobian_assemble.calls", "count", "lower"),
    ("operators.jacobian_assemble.s", "s", "lower"),
    ("solver.solve_eps.s", "s", "lower"),
    ("solver.newton_iterations", "count", "lower"),
    ("solver.linear_solve.calls", "count", "lower"),
    ("solver.linear_solve.s", "s", "lower"),
    ("solver.armijo.trials", "count", "lower"),
    ("solver.armijo.accept_ratio", "ratio", "higher"),
    ("solver.picard.runs", "count", "lower"),
    ("foliation.foliation_cover.s", "s", "lower"),
    ("foliation.trace_leaf.calls", "count", "lower"),
    ("foliation.leaves", "count", "higher"),
    ("foliation.seed_yield", "ratio", "higher"),
    ("foliation.leaf_samples", "count", "lower"),
    ("foliation.fit_leaf.s", "s", "lower"),
    ("diagnostics.norm_ledger.s", "s", "lower"),
    ("diagnostics.verdict.s", "s", "lower"),
    ("diagnostics.holder_seminorm.calls", "count", "lower"),
    ("diagnostics.holder_seminorm.s", "s", "lower"),
    ("diagnostics.holder_exponent_estimate.s", "s", "lower"),
    ("geometry.taylor_remainder_exponent.s", "s", "lower"),
    ("geometry.dist_surrogate_eps.calls", "count", "lower"),
    ("geometry.dist_surrogate_eps.s", "s", "lower"),
    ("geometry.dist_surrogate_cc.s", "s", "lower"),
    ("geometry.dist_oracle_many.s", "s", "lower"),
    ("catalog.shear_graph.calls", "count", "lower"),
    ("catalog.shear_graph.s", "s", "lower"),
    ("cli.solve.s", "s", "lower"),
    ("cli.continuation.s", "s", "lower"),
    ("cli.foliate.s", "s", "lower"),
    ("cli.diagnose.s", "s", "lower"),
    ("cli.distance.s", "s", "lower"),
    ("cli.example.s", "s", "lower"),
    ("cli.io.s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

NAME, START, END, PARENT, INFO = range(5)


def _solve_info(result):
    report = result[1]
    return {"iterations": report.iterations, "accepted": len(report.step_lengths),
            "picard": bool(report.used_picard)}


def _leaves_info(leaves):
    return {"leaves": len(leaves), "samples": sum(len(leaf) for leaf in leaves)}


_INFO = {"solver.solve_eps": _solve_info, "foliation.foliation_cover": _leaves_info}


class Tracer:
    """Spans recorded while :meth:`installed` is active; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list = []

    def wrap(self, name, fn):
        info_of = _INFO.get(name)

        def traced_call(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if info_of is not None:
                rec[INFO] = info_of(out)
            return out

        return traced_call

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block; yields its record (None when off)."""
        if not self.enabled:
            yield None
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name and record spans for the block's duration."""
        saved = []
        self.enabled = True
        try:
            for owner, attr, name in REBINDS:
                if attr.startswith("_") and attr not in vars(owner):
                    continue
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            self.enabled = False
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for k, (name, start, end, parent, info) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                    "parent": parent, "info": info}) + "\n")


def _subtree(spans, root: int) -> list:
    """Indices of ``root`` and its descendants (children follow parents)."""
    inside = {root}
    for k in range(root + 1, len(spans)):
        if spans[k][PARENT] in inside:
            inside.add(k)
    return sorted(inside)


def self_times(spans, root: int) -> dict:
    """Self time per span name inside the subtree of span ``root``.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is sequential.
    """
    members = _subtree(spans, root)
    child = defaultdict(float)
    for k in members[1:]:
        child[spans[k][PARENT]] += spans[k][END] - spans[k][START]
    out = defaultdict(float)
    for k in members:
        out[spans[k][NAME]] += spans[k][END] - spans[k][START] - child[k]
    return dict(out)


def subtree_totals(spans, root: int) -> dict:
    """Per-name inclusive time and calls, plus derived counts, under ``root``."""
    tot: dict = defaultdict(float)
    residuals = Counter()  # residual evaluations made directly by each solve
    solves = []
    for k in _subtree(spans, root):
        name, start, end, parent, info = spans[k]
        tot[name + ".s"] += end - start
        tot[name + ".calls"] += 1
        if name == "operators.residual_div" and parent >= 0 \
                and spans[parent][NAME] == "solver.solve_eps":
            residuals[parent] += 1
        if info and name == "solver.solve_eps":
            solves.append(k)
            tot["solver.newton_iterations"] += info["iterations"]
            tot["solver.armijo.accepted"] += info["accepted"]
            tot["solver.picard.runs"] += info["picard"]
        if info and name == "foliation.foliation_cover":
            tot["foliation.leaves"] += info["leaves"]
            tot["foliation.leaf_samples"] += info["samples"]
    for k in solves:
        # a converged solve evaluates the residual once per Newton iteration
        # plus once more at the solution; every other evaluation is a trial
        # step of the Armijo line search
        tot["solver.armijo.trials"] += residuals[k] - (spans[k][INFO]["iterations"] + 1)
    return dict(tot)


def layer_metrics(setup_totals: dict, op_totals: list, cli_io: list,
                  bytes_written: int, overhead_s: float) -> dict:
    """Per-layer metric values: set-up totals plus the median operation."""

    def value(key):
        return setup_totals.get(key, 0.0) + statistics.median([t.get(key, 0.0) for t in op_totals])

    def ratio(num, den):
        return value(num) / value(den) if value(den) else 0.0

    derived = {
        "solver.armijo.accept_ratio": lambda: ratio("solver.armijo.accepted",
                                                    "solver.armijo.trials"),
        "foliation.seed_yield": lambda: ratio("foliation.leaves", "foliation.trace_leaf.calls"),
        "cli.io.s": lambda: statistics.median(cli_io),
        "cli.bytes_written": lambda: bytes_written,
        "trace.overhead_s": lambda: overhead_s,
    }
    out = {}
    for name, unit, _better in PER_LAYER:
        v = derived[name]() if name in derived else value(name)
        out[name] = {"value": int(round(v)) if unit in ("count", "bytes") else v, "unit": unit}
    return out
