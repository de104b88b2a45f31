"""Cost of one ledger row against the stack size B of a ``measure`` call,
of the normal-form symbol table, of one time step and of one shell
projection.

    python3 tools/ledger_probe.py

It prints four tables in turn.  For every N in 128, 256, 512, 1024 and B
in 1, 2, 4, 8, 16, 32 it times one ``diagnostics.measure`` call on a stack
of B small states in this process (the median of five calls, after a
warm-up call that builds the grid's and the symbol table's caches) and
prints the milliseconds per ledger row, that is the call's time over B,
with the ``tracemalloc`` peak of one more call.
B N is the block's sample count: ``cli._block_size`` takes 4096 of them,
so a ledger block is the row of the table where B N = 4096.  For every N it
then prints the bytes of the normal-form symbol table and the
``tracemalloc`` peak of one cold ``normalform._holo_symbol_grids`` call,
which builds it.

The step table times one ``integrator.step_rk4`` call, ``rk4`` and
``ifrk4``, for every N in 128, 256, 512, 1024 on one member and on a block
of 4096 samples (B = 4096 / N members), in process CPU time, the median of
seven rounds of a few calls each.  It counts the ``numpy.fft.fft`` and
``numpy.fft.ifft`` calls of one step and times the same calls made bare
(forward-normalized, on arrays of the shapes each call took) in the same
rounds, alternating with the steps, so the step's time outside the FFT
calls shows without the tracer: the last column is 1 - FFT time / step
time.

The projection table does the same for one
``integrator._project_to_invariant_shell`` call, as ``simulate`` makes it:
after one ``ifrk4`` step, onto the shells of the states before it, for
every N in 128, 256, 512, 1024 on one member and on a 4096-sample block.
It also counts the Newton steps of each member's polynomial solve, as the
``integrator._solve_2x2`` calls of the call over B: each step solves one
2x2 system (a refused system ends the member's iteration without a step).

BLAS runs on one thread, as in the benchmark, unless the thread variables
say otherwise.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from unittest import mock

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from wavestrip.cli import _drift_profile  # noqa: E402
from wavestrip.diagnostics import measure  # noqa: E402
from wavestrip.dynamics import energy, momentum, stack_states  # noqa: E402
from wavestrip.grid import dealias_band, make_grid  # noqa: E402
from wavestrip.integrator import step_rk4, suggest_dt  # noqa: E402
from wavestrip import integrator, normalform  # noqa: E402

NS = (128, 256, 512, 1024)
BS = (1, 2, 4, 8, 16, 32)
REPEATS = 5
BLOCK = 4096
ROUNDS = 7


def probe(N: int, B: int) -> tuple[float, float]:
    """(milliseconds per row, tracemalloc peak in MB) of one measure call on
    a stack of B states at N."""
    grid = make_grid(2 * np.pi, N, 1.0)
    state = stack_states([_drift_profile(0.02 * (1.0 + j / B), grid, 1.0)
                          for j in range(B)])
    measure(state)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        measure(state)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        measure(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * float(np.median(times)) / B, peak / 2 ** 20


def table_probe(N: int) -> tuple[float, float]:
    """(table MiB, tracemalloc peak in MiB) of building the symbol table of
    the unit cell at N from an empty cache."""
    grid = make_grid(2 * np.pi, N, 1.0)
    normalform._symbol_cache.clear()
    tracemalloc.start()
    try:
        sym = normalform._holo_symbol_grids(dealias_band(grid),
                                            normalform._kappa(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(a.nbytes for a in sym.values()) / 2 ** 20, peak / 2 ** 20


def _interleaved_us(runs) -> list:
    """Median over ROUNDS rounds of each (fn, calls) of ``runs``, in us of
    process CPU time per call; every round times each of them once, so all
    see the same host load."""
    times = [[] for _ in runs]
    for _ in range(ROUNDS):
        for (fn, calls), t in zip(runs, times):
            start = time.process_time()
            for _ in range(calls):
                fn()
            t.append((time.process_time() - start) / calls)
    return [1e6 * float(np.median(t)) for t in times]


def _against_ffts(fn, x, solves=False) -> tuple:
    """(us per call, FFT calls per call, us of the same FFT calls made bare,
    and the call's 2x2 solves if ``solves``) of ``fn``: each ``numpy.fft``
    call of one ``fn`` call is recorded with its input's shape and replayed,
    forward-normalized, on an array of that shape."""
    fn()
    made = []

    def recording(transform):
        def call(a, *args, **kwargs):
            made.append((transform, np.shape(a)))
            return transform(a, *args, **kwargs)
        return call

    with mock.patch.object(np.fft, "fft", recording(np.fft.fft)), \
            mock.patch.object(np.fft, "ifft", recording(np.fft.ifft)), \
            mock.patch.object(integrator, "_solve_2x2",
                              wraps=integrator._solve_2x2) as solve:
        fn()
    inputs = [(transform, np.ones(shape, np.complex128))
              for transform, shape in made]
    calls = max(1, 20000 // x.size)

    def bare():
        for transform, a in inputs:
            transform(a, norm="forward")

    bare()
    us, fft_us = _interleaved_us([(fn, calls), (bare, calls)])
    return (us, len(made), fft_us) + ((solve.call_count,) * solves)


def _states(N: int, B: int):
    grid = make_grid(2 * np.pi, N, 1.0)
    return grid, stack_states([_drift_profile(0.02 * (1.0 + j / B), grid,
                                              1.0) for j in range(B)])


def step_probe(N: int, B: int, method: str) -> tuple[float, int, float]:
    """(us per step, FFT calls per step, us of the same FFT calls bare) of
    one ``method`` step on a stack of B states at N (B = 1: one state)."""
    grid, state = _states(N, B)
    dt = suggest_dt(grid, 1.0, 0.5)
    return _against_ffts(lambda: step_rk4(state, dt, method), state.W)


def projection_probe(N: int, B: int) -> tuple[float, int, float, float]:
    """(us per call, FFT calls, us of the same FFT calls bare, Newton steps
    per member) of one shell projection after an ``ifrk4`` step on B
    states at N."""
    grid, state = _states(N, B)
    E, I = energy(state)[0], momentum(state)
    moved = step_rk4(state, suggest_dt(grid, 1.0, 0.5), "ifrk4")
    us, ffts, fft_us, solves = _against_ffts(
        lambda: integrator._project_to_invariant_shell(moved, E, I),
        moved.W, solves=True)
    return us, ffts, fft_us, solves / B


def main() -> int:
    print(f"{'N':>5} {'B':>3} {'B N':>6} {'ms/row':>8} {'peak MB':>8}")
    for N in NS:
        for B in BS:
            ms, peak = probe(N, B)
            print(f"{N:>5} {B:>3} {B * N:>6} {ms:>8.2f} {peak:>8.2f}",
                  flush=True)
    print(f"\n{'N':>5} {'table MiB':>10} {'build peak MiB':>15}")
    for N in NS:
        table, peak = table_probe(N)
        print(f"{N:>5} {table:>10.2f} {peak:>15.2f}", flush=True)
    print(f"\n{'method':>6} {'N':>5} {'B':>3} {'us/step':>9} "
          f"{'ffts':>5} {'fft us':>9} {'non-FFT':>8}")
    for method in ("rk4", "ifrk4"):
        for N in NS:
            for B in (1, BLOCK // N):
                us, ffts, fft_us = step_probe(N, B, method)
                print(f"{method:>6} {N:>5} {B:>3} {us:>9.0f} {ffts:>5} "
                      f"{fft_us:>9.0f} {1.0 - fft_us / us:>8.1%}",
                      flush=True)
    print(f"\n{'N':>5} {'B':>3} {'us/call':>9} {'newton':>6} {'ffts':>5} "
          f"{'fft us':>9} {'non-FFT':>8}")
    for N in NS:
        for B in (1, BLOCK // N):
            us, ffts, fft_us, steps = projection_probe(N, B)
            print(f"{N:>5} {B:>3} {us:>9.0f} {steps:>6.2f} {ffts:>5} "
                  f"{fft_us:>9.0f} {1.0 - fft_us / us:>8.1%}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
