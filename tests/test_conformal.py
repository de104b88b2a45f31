import tracemalloc

import numpy as np
import pytest

from wavestrip.grid import make_grid, to_spectrum
from wavestrip.holo import holomorphy_residual
from wavestrip.conformal import (
    SurfaceGraph,
    graph_to_holo,
    trig_interp,
    holo_to_graph,
    norm_comparability,
)

from conftest import same_bits


def test_surface_graph_validation(grid):
    with pytest.raises(ValueError):
        SurfaceGraph(grid, np.zeros(grid.N - 1))
    with pytest.raises(ValueError):
        SurfaceGraph(grid, -grid.h * np.ones(grid.N))


def test_trig_interp_exact_on_modes(grid, rng):
    x = rng.uniform(0, grid.L, 37)
    f = np.cos(3 * grid.nodes + 0.4)
    assert np.allclose(trig_interp(f, grid, x), np.cos(3 * x + 0.4),
                       atol=1e-12)
    # nodes reproduce the samples
    assert np.allclose(trig_interp(f, grid, grid.nodes), f, atol=1e-12)


def test_trig_interp_memory_is_blocked():
    # the phase matrix is built a block of rows at a time: at N = 2048 the
    # whole N x N matrix alone would take 64 MiB
    grid = make_grid(2 * np.pi, 2048, 1.0)
    f = np.cos(3 * grid.nodes + 0.4)
    x = grid.nodes + 0.1
    tracemalloc.start()
    try:
        y = trig_interp(f, grid, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.allclose(y, np.cos(3 * x + 0.4), atol=1e-12)


def _direct_mode_sum(values, grid, x):
    # the interpolant as one phase per point and mode, the Nyquist mode
    # split symmetrically between -N/2 and +N/2
    c = to_spectrum(values)
    nyq = grid.N // 2
    c[..., nyq] *= 0.5
    phases = np.exp(1j * np.outer(x, grid.xi))
    out = c @ phases.T + c[..., nyq, None] * np.conj(phases[:, nyq])
    return out.real if np.isrealobj(values) else out


@pytest.mark.parametrize("N", [8, 10, 94, 100, 256, 1024])
def test_trig_interp_matches_the_direct_mode_sum(N):
    # 94 = 2 * 47 pads its spectrum (m = 10, P = 10), as do 8 and 10; the
    # points reach two cells to either side.  Both sums round each phase
    # x xi_k, so the gap grows with N and |x|: measured at most 2.9 eps
    # sqrt(N) (1 + max|x| / L) sum|c_k| over 20 seeds and both cells
    rng = np.random.default_rng(N)
    for L in (2 * np.pi, 3.0):
        grid = make_grid(L, N, 1.0)
        x = rng.uniform(-2 * L, 3 * L, 64)
        scale = 8 * np.finfo(float).eps * np.sqrt(N) * (1 + np.abs(x).max() / L)
        for values in (rng.standard_normal(N),
                       rng.standard_normal(N) + 1j * rng.standard_normal(N),
                       rng.standard_normal((3, N))):
            got = trig_interp(values, grid, x)
            assert got.dtype == (complex if np.iscomplexobj(values) else float)
            assert got.shape == values.shape[:-1] + x.shape
            err = np.abs(got - _direct_mode_sum(values, grid, x)).max(-1)
            assert np.all(err <= scale * np.abs(to_spectrum(values)).sum(-1))


@pytest.mark.parametrize("N", [94, 256])
def test_trig_interp_stack_rows_are_single_calls(N, rng):
    grid = make_grid(2 * np.pi, N, 1.0)
    x = rng.uniform(-grid.L, 2 * grid.L, 50)
    for stack in (rng.standard_normal((3, N)),
                  rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))):
        got = trig_interp(stack, grid, x)
        for row, values in zip(got, stack):
            assert same_bits(row, trig_interp(values, grid, x))


def test_trig_interp_keeps_its_bits_under_dyadic_scaling(rng):
    # the phases depend on x and L only through x (2 pi / L)
    f = rng.standard_normal((2, 94))
    x = rng.uniform(-3.0, 9.0, 40)
    want = trig_interp(f, make_grid(3.0, 94, 1.0), x)
    for lam in (2.0, 0.5):
        assert same_bits(trig_interp(f, make_grid(3.0 * lam, 94, 1.0), lam * x),
                         want)


def test_round_trip_at_4096_in_bounded_memory():
    # the phases take O(M sqrt(N)) memory: the N x N phase matrix alone
    # would take 256 MiB here; measured peak 16.9 MiB
    grid = make_grid(2 * np.pi, 4096, 1.0)
    x = grid.nodes
    eta = 0.05 * np.cos(x) + 0.02 * np.cos(2 * x + 0.3)
    tracemalloc.start()
    try:
        res = graph_to_holo(SurfaceGraph(grid, eta))
        back = holo_to_graph(res.W, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    assert res.residual < 1e-11
    assert holomorphy_residual(res.W, grid) < 1e-10
    assert np.max(np.abs(back - eta)) < 1e-10


def test_flat_surface(grid):
    c = 0.3
    res = graph_to_holo(SurfaceGraph(grid, c * np.ones(grid.N)))
    assert res.residual < 1e-13
    assert np.max(np.abs(res.W.real)) < 1e-13
    assert np.allclose(res.W.imag, c, atol=1e-13)


def test_round_trip(grid):
    x = grid.nodes
    eta = 0.05 * np.cos(x) + 0.02 * np.cos(2 * x + 0.3)
    graph = SurfaceGraph(grid, eta)
    res = graph_to_holo(graph)
    assert res.residual < 1e-11
    # the trace is holomorphic modulo its (second-order small) Im mean
    assert holomorphy_residual(res.W, grid) < 1e-10
    back = holo_to_graph(res.W, grid)
    assert np.max(np.abs(back - eta)) < 1e-10


def test_steep_surface_rejected(grid):
    eta = 1.5 * np.cos(grid.nodes)
    with pytest.raises(ValueError):
        graph_to_holo(SurfaceGraph(grid, eta))


def test_surface_curve_monotone(grid):
    eta = 0.05 * np.cos(grid.nodes)
    res = graph_to_holo(SurfaceGraph(grid, eta))
    # spacing of the sampled curve X(alpha) = alpha + Re W(alpha), periodic
    X = grid.nodes + res.W.real
    min_dx = np.min(np.diff(np.append(X, X[0] + grid.L)))
    assert min_dx > 0
    assert min_dx > 0.5 * grid.L / grid.N


def test_norm_comparability_small_amplitude(grid):
    eta = 0.01 * np.cos(grid.nodes)
    graph = SurfaceGraph(grid, eta)
    res = graph_to_holo(graph)
    rows = norm_comparability(graph, res.W)
    assert [r.order for r in rows] == [0, 1, 2]
    for row in rows:
        assert 0.25 <= row.ratio <= 4.0
