"""Benchmark runner for hmingraph: one fresh process per workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it finds the sources under
``src/hmingraph`` next to this directory and refuses to run without them.
Each workload runs in its own interpreter (``workload.py``) with BLAS and
OpenMP pinned to one thread, so its peak resident memory is its own.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (for ``all``, metric names are prefixed with the
workload name).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("continuation129", "pipeline65", "expansion129")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env.pop("HMINGRAPH_OUT", None)  # it would redirect every CLI artifact
    env.pop("PYTHONPATH", None)  # only the checkout's own sources are measured
    return env


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "hmingraph").glob("*.py")))


def child_timeout(seconds: float) -> float:
    """Time a workload child may take: set-up and one or two operations beyond
    the run length (a traced expansion129 run needs 90-110 s at 20 s)."""
    return max(150.0, 110.0 + 3.0 * seconds)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a child interpreter; its result, or None on failure."""
    timeout = child_timeout(seconds)
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # its own process group, so a timeout also ends the child's import probes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{name}: no result within {timeout:g} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    if proc.returncode != 0 or not lines:
        print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hmingraph benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hmingraph" / "__init__.py").is_file():
        print(f"{ROOT}: no src/hmingraph to benchmark", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    print(f"reference figure, not a metric: src/hmingraph has {src_line_count()} lines")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name}: {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
