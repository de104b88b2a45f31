import tracemalloc

import numpy as np
import pytest

from wavestrip.grid import make_grid
from wavestrip.holo import holomorphy_residual
from wavestrip.conformal import (
    SurfaceGraph,
    graph_to_holo,
    trig_interp,
    surface_curve,
    holo_to_graph,
    norm_comparability,
)


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
    curve = surface_curve(res.W, grid)
    assert curve.monotone
    assert curve.min_dx > 0.5 * grid.L / grid.N


def test_norm_comparability_small_amplitude(grid):
    eta = 0.01 * np.cos(grid.nodes)
    graph = SurfaceGraph(grid, eta)
    res = graph_to_holo(graph)
    rows = norm_comparability(graph, res.W)
    assert [r.order for r in rows] == [0, 1, 2]
    for row in rows:
        assert 0.25 <= row.ratio <= 4.0
