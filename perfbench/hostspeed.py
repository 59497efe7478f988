"""Gauge the host's speed with a fixed reference kernel.

On a shared virtual machine the same code on the same inputs runs up to
1.5 times as fast in one minute as in the next: the host slows the vCPU as a
whole, and CPU time follows wall time.  A wall time measured in one run then
says as much about the host as about the program.  So the benchmark times a
fixed kernel next to its own work, and reports ``setup_s`` and ``op_s`` at
the host speed where that kernel takes ``NOMINAL_S``: each median wall time
is multiplied by ``NOMINAL_S`` over the median kernel time of the same run.

The kernel mixes the kinds of work hmingraph does (interpreted scalar code,
Python objects, a SuperLU factorisation, small array passes, passes over an
array larger than the caches) and uses only Python, numpy and scipy.  It
never calls hmingraph, so a change to the program moves the scaled times
exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.13  # the kernel's median time on the 2-vCPU host of the README
RUNS_PER_SAMPLE = 4
STREAM_DOUBLES = 4_000_000  # 32 MB: past the caches, below every workload's peak


def _laplacian(n: int) -> sp.csc_matrix:
    e = np.ones(n)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    eye = sp.identity(n)
    return (sp.kron(eye, t) + sp.kron(t, eye) + 0.1 * sp.identity(n * n)).tocsc()


def kernel_inputs() -> tuple:
    a = _laplacian(96)
    return a, np.linspace(0.0, 1.0, a.shape[0]), np.random.default_rng(0).standard_normal((128, 128))


def kernel(a, b, x) -> float:
    """The reference work; returns a checksum so that nothing is skipped."""
    s = 0.0
    for k in range(250_000):  # interpreted scalar work, as in leaf marching
        s += (k % 7) * 0.5
    table = {k: (k, 0.5 * k) for k in range(75_000)}  # objects, as in the CLI
    s += sum(v[1] for v in table.values())
    s += float(spla.splu(a).solve(b)[0])  # sparse LU, as in the solver
    for _ in range(150):  # small dense passes, as in the grid operators
        s += float(np.exp(np.sort(x, axis=0)).sum())
    big = np.ones(STREAM_DOUBLES)  # memory-bound passes, as in the oracle lattice
    for _ in range(3):
        np.multiply(big, 1.0001, out=big)
        s += float(big.sum())
    return s


class KernelServer:
    """The kernel in an interpreter of its own, started once per run.

    It idles, blocked on its input, except while it times the kernel between
    a workload's steps, so it never runs alongside the program, and its
    memory never counts in the workload's peak resident memory.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def time_kernel(self, runs: int) -> list:
        self.proc.stdin.write(f"{runs}\n")
        self.proc.stdin.flush()
        return [float(t) for t in self.proc.stdout.readline().split()]

    def close(self) -> None:
        self.proc.stdin.close()  # the server ends at the end of its input
        self.proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Gauge:
    """Kernel times taken at chosen points of a run."""

    def __init__(self, server: KernelServer):
        self.server = server
        self.times: list = []

    def sample(self) -> None:
        self.times += self.server.time_kernel(RUNS_PER_SAMPLE)

    def scale(self) -> float:
        """Factor from this run's wall times to times at the nominal speed."""
        return NOMINAL_S / statistics.median(self.times)


def serve() -> None:
    """Answer each input line ``n`` with the times of ``n`` kernel runs."""
    inputs = kernel_inputs()
    kernel(*inputs)  # warm-up: first-call costs are not the host's speed
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            kernel(*inputs)
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    serve()
