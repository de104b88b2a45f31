"""Cost of one ledger row against the stack size B of a ``measure`` call.

    python3 tools/ledger_probe.py

For every N in 128, 256, 512, 1024 and B in 1, 2, 4, 8, 16, 32 it times one
``diagnostics.measure`` call on a stack of B small states in this process
(the median of five calls, after a warm-up call that builds the grid's and
the symbol table's caches) and prints the milliseconds per ledger row, that
is the call's time over B, with the ``tracemalloc`` peak of one more call.
B N is the block's sample count: ``cli._block_size`` takes 4096 of them,
so a ledger block is the row of the table where B N = 4096.  For every N it
then prints the bytes of the normal-form symbol table and the
``tracemalloc`` peak of one cold ``normalform._holo_symbol_grids`` call,
which builds it.  BLAS runs on one thread, as in the benchmark, unless the
thread variables say otherwise.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from wavestrip.cli import _drift_profile  # noqa: E402
from wavestrip.diagnostics import measure  # noqa: E402
from wavestrip.dynamics import stack_states  # noqa: E402
from wavestrip.grid import dealias_band, make_grid  # noqa: E402
from wavestrip import normalform  # noqa: E402

NS = (128, 256, 512, 1024)
BS = (1, 2, 4, 8, 16, 32)
REPEATS = 5


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
