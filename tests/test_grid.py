import warnings

import numpy as np
import pytest

from wavestrip.grid import (
    SpectralGrid,
    make_grid,
    to_spectrum,
    from_spectrum,
    apply_multiplier,
    deriv,
    tilbert,
    inv_tilbert,
    lh_apply,
    lh_symbol,
    smooth_one_plus_T2,
    dealias,
    dealias_band,
    product,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 7, 1.0)      # odd N
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 4, 1.0)      # too small
    with pytest.raises(ValueError):
        make_grid(-1.0, 16, 1.0)
    with pytest.raises(ValueError):
        make_grid(2 * np.pi, 16, 0.0)


def test_grid_arrays(grid):
    assert grid.nodes[0] == 0.0
    assert np.isclose(grid.nodes[1], grid.L / grid.N)
    assert grid.k[0] == 0 and grid.k[1] == 1 and grid.k[-1] == -1
    assert np.allclose(grid.xi, 2 * np.pi * grid.k / grid.L)
    assert grid.dealias_mask.sum() == 2 * (grid.N // 3) + 1


def test_spectrum_round_trip(grid, rng):
    f = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    assert np.allclose(from_spectrum(to_spectrum(f)), f, atol=1e-13)
    # pure mode has a single coefficient
    c = to_spectrum(np.exp(3j * grid.nodes))
    assert abs(c[3] - 1.0) < 1e-13
    assert np.max(np.abs(np.delete(c, 3))) < 1e-13


def test_deriv_exact_on_modes(grid):
    x = grid.nodes
    for k in (1, 4, 11):
        assert np.allclose(deriv(np.cos(k * x), grid), -k * np.sin(k * x),
                           atol=1e-10)
    assert np.allclose(deriv(np.cos(2 * x), grid, order=2),
                       -4.0 * np.cos(2 * x), atol=1e-10)


def test_tilbert_on_modes(grid):
    # -i tanh(h xi) sends cos(kx) to tanh(hk) sin(kx)
    x = grid.nodes
    for k in (1, 3, 9):
        want = np.tanh(grid.h * k) * np.sin(k * x)
        assert np.allclose(tilbert(np.cos(k * x), grid), want, atol=1e-12)
    # constants are annihilated
    assert np.max(np.abs(tilbert(np.ones(grid.N), grid))) < 1e-14


def test_tilbert_real_to_real(grid, rng):
    f = rng.standard_normal(grid.N)
    assert np.isrealobj(tilbert(f, grid))
    assert np.isrealobj(inv_tilbert(f, grid))


def test_inv_tilbert_inverts_on_fluctuations(grid, rng):
    f = dealias(rng.standard_normal(grid.N), grid)
    f -= f.mean()
    assert np.allclose(inv_tilbert(tilbert(f, grid), grid), f, atol=1e-11)
    # the mean is gauge: mapped to zero
    g = inv_tilbert(np.ones(grid.N) * 5.0 + f, grid)
    assert np.allclose(g, inv_tilbert(f, grid), atol=1e-12)


def test_lh_symbol_zero_mode():
    assert np.isclose(lh_symbol(np.array([0.0]), 0.5)[0], np.sqrt(2.0))
    xi = np.array([1.0, -3.0])
    assert np.allclose(lh_symbol(xi, 1.0), np.sqrt(xi / np.tanh(xi)))


def test_lh_squares_to_inv_tilbert_deriv(grid, rng):
    f = dealias(rng.standard_normal(grid.N), grid)
    f -= f.mean()
    lhs = lh_apply(lh_apply(f, grid), grid)
    rhs = -inv_tilbert(deriv(f, grid), grid)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_smooth_one_plus_T2(grid, rng):
    f = dealias(rng.standard_normal(grid.N), grid)
    want = f + tilbert(tilbert(f, grid), grid)
    assert np.allclose(smooth_one_plus_T2(f, grid), want, atol=1e-11)


def test_sech2_symbol_without_overflow():
    # at N = 1024, h xi reaches 512 and cosh(h xi)^2 overflows
    from wavestrip.dynamics import WaveState, coefficients
    from wavestrip.holo import holo_from_real
    big = make_grid(2 * np.pi, 1024, 1.0)
    x = big.nodes
    state = WaveState(holo_from_real(0.01 * np.cos(x), big),
                      holo_from_real(0.005 * np.sin(x), big), 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smoothed = smooth_one_plus_T2(np.cos(x), big)
        coefficients(state)
    assert np.allclose(smoothed, np.cos(x) / np.cosh(1.0) ** 2, atol=1e-14)
    s = big.sech2
    assert s[0] == 1.0 and np.all(np.isfinite(s)) and np.all(s >= 0.0)
    low = np.abs(big.xi) < 300
    assert np.allclose(s[low], 1.0 / np.cosh(big.xi[low]) ** 2,
                       rtol=1e-14, atol=0.0)


def test_apply_multiplier_rejects_nonfinite(grid):
    m = np.ones(grid.N)
    m[3] = np.inf
    with pytest.raises(ValueError):
        apply_multiplier(np.ones(grid.N), m, grid)


def test_dealias(grid, rng):
    f = rng.standard_normal(grid.N)
    d = dealias(f, grid)
    c = to_spectrum(d)
    band = dealias_band(grid)
    assert band == grid.N // 3
    assert np.max(np.abs(c[~grid.dealias_mask])) < 1e-14
    assert np.allclose(dealias(d, grid), d, atol=1e-14)


def test_product_is_dealiased_pointwise(grid, rng):
    f = rng.standard_normal(grid.N)
    g = rng.standard_normal(grid.N)
    assert np.allclose(product(f, g, grid), dealias(f * g, grid), atol=1e-14)


def test_require_same():
    a = make_grid(2 * np.pi, 16, 1.0)
    b = make_grid(2 * np.pi, 32, 1.0)
    with pytest.raises(ValueError):
        a.require_same(b)
    a.require_same(SpectralGrid(a.L, a.N, a.h))
