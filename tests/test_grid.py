import warnings

import numpy as np
import pytest

from wavestrip.grid import (
    make_grid,
    to_spectrum,
    from_spectrum,
    deriv,
    tilbert,
    inv_tilbert,
    antideriv,
    lh_apply,
    lh_symbol,
    smooth_one_plus_T2,
    dealias,
    dealias_band,
    _frozen,
    _transform,
)
from conftest import count_ffts, same_bits

# (N,) and (B, N) shapes of the in-place tests, up to B N = 16384, the
# stack size below which a stacked row is bit for bit its own call
SHAPES = [(8,), (100,), (128,), (512,), (2, 64), (7, 100), (32, 128),
          (128, 128), (32, 512)]


def _samples(rng, shape, complex_=True):
    f = rng.standard_normal(shape)
    return f + 1j * rng.standard_normal(shape) if complex_ else f


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
    assert np.allclose(deriv(deriv(np.cos(2 * x), grid), grid),
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
    from wavestrip.dynamics import WaveState, taylor_field
    from wavestrip.holo import holo_from_real
    big = make_grid(2 * np.pi, 1024, 1.0)
    x = big.nodes
    state = WaveState(big, holo_from_real(0.01 * np.cos(x), big),
                      holo_from_real(0.005 * np.sin(x), big), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smoothed = smooth_one_plus_T2(np.cos(x), big)
        taylor_field(state)   # the coefficients at the state
    assert np.allclose(smoothed, np.cos(x) / np.cosh(1.0) ** 2, atol=1e-14)
    s = big.sech2
    assert s[0] == 1.0 and np.all(np.isfinite(s)) and np.all(s >= 0.0)
    low = np.abs(big.xi) < 300
    assert np.allclose(s[low], 1.0 / np.cosh(big.xi[low]) ** 2,
                       rtol=1e-14, atol=0.0)


def test_apply_multiplier_rejects_nonfinite(grid):
    # a cached multiplier that is not finite at some wavenumber is refused
    # once, when the grid builds it, not on every apply_multiplier call
    m = np.ones(grid.N)
    m[3] = np.inf
    with pytest.raises(ValueError):
        _frozen(m)
    assert m.flags.writeable


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
    want = np.where(grid.dealias_mask, to_spectrum(f * g), 0.0)
    assert np.allclose(to_spectrum(dealias(f * g, grid)), want, atol=1e-14)


def test_antideriv_inverts_deriv_on_fluctuations(grid):
    x = grid.nodes
    f = 0.3 + np.cos(x + 0.2) - 0.5 * np.sin(7 * x) + 0.1 * np.cos(20 * x)
    a = antideriv(deriv(f, grid), grid)
    assert np.allclose(a, f - np.mean(f), rtol=0.0, atol=1e-14)
    assert abs(np.mean(antideriv(f, grid))) < 1e-15


def test_symbols_built_once_per_grid(grid):
    assert grid.tilbert_symbol is grid.tilbert_symbol
    for name in ("tanh", "neg_index", "tilbert_symbol", "inv_tilbert_symbol",
                 "lh", "sech2", "dealias_mask", "dealias_symbol", "interior",
                 "tanh2"):
        assert not getattr(grid, name).flags.writeable, name
    assert grid.tilbert_symbol[grid.nyquist_index] == 0.0
    assert grid.inv_tilbert_symbol[0] == 0.0
    assert np.all(grid.k[grid.neg_index] == np.where(
        np.abs(grid.k) == grid.N // 2, grid.k, -grid.k))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["bool", "float", "complex"])
@pytest.mark.parametrize("complex_input", [False, True])
def test_transform_equals_the_expression(shape, kind, complex_input,
                                         monkeypatch):
    # the one transform path: fft into a new buffer, c *= m in place and
    # ifft back into that buffer, bit for bit the allocating expression,
    # in exactly one fft and one ifft
    rng = np.random.default_rng(sum(shape) + len(kind))
    N = shape[-1]
    m = {"bool": rng.random(N) < 0.6,
         "float": rng.standard_normal(N),
         "complex": _samples(rng, N)}[kind]
    f = _samples(rng, shape, complex_input)
    want = from_spectrum(to_spectrum(f) * m)
    got, ffts = count_ffts(monkeypatch, lambda: _transform(f, m))
    assert ffts == 2
    assert same_bits(got, want)


@pytest.mark.parametrize("shape", SHAPES)
def test_grid_symbols_through_the_transform_path(shape, monkeypatch):
    # every cached symbol the operators multiply by, real input and complex
    grid = make_grid(2 * np.pi, shape[-1], 0.7)
    rng = np.random.default_rng(shape[-1])
    for complex_input in (False, True):
        f = _samples(rng, shape, complex_input)
        for op, m in ((deriv, grid.ixi), (tilbert, grid.tilbert_symbol),
                      (inv_tilbert, grid.inv_tilbert_symbol),
                      (lh_apply, grid.lh), (smooth_one_plus_T2, grid.sech2),
                      (dealias, grid.dealias_mask)):
            want = from_spectrum(to_spectrum(f) * m)
            got, ffts = count_ffts(monkeypatch, lambda: op(f, grid))
            if np.isrealobj(got):   # real input, real-preserving symbol
                want = want.real
            assert ffts == 2, op.__name__
            assert same_bits(got, want), op.__name__


@pytest.mark.parametrize("shape", SHAPES)
def test_in_place_product_forms(shape):
    # the in-place and cast-free forms the operators and the step use, each
    # against the expression it replaces
    grid = make_grid(2 * np.pi, shape[-1], 0.7)
    rng = np.random.default_rng(3 * shape[-1])
    c, d = _samples(rng, shape), _samples(rng, shape)
    # a real symbol held as complex128 multiplies as the real one does
    pa, pb = grid.project_coeffs
    for held, real in ((grid.dealias_symbol, grid.dealias_mask),
                       (pa, pa.real.copy()), (pb, pb.real.copy())):
        assert not held.imag.any()
        assert same_bits(held * c, real * c)
        out = c.copy()
        np.multiply(held, out, out=out)   # output aliases the 2nd operand
        assert same_bits(out, real * c)
    # a spectrum times a complex symbol, out aliasing the 2nd operand
    out = d.copy()
    np.multiply(grid.tilbert_symbol, out, out=out)
    assert same_bits(out, grid.tilbert_symbol * d)
    # (Qa - conj Qa) / J and |Qa|^2 / J of rhs_full
    J = np.abs(1.0 + d)
    np.square(J, out=J)
    assert same_bits(J, np.abs(1.0 + d) ** 2)
    u = np.conj(c)
    np.subtract(c, u, out=u)
    u /= J
    assert same_bits(u, (c - np.conj(c)) / J)
    u = np.abs(c)
    np.square(u, out=u)
    u /= J
    assert same_bits(u, np.abs(c) ** 2 / J)
    # the least J of require_valid
    assert same_bits(np.square(np.abs(1.0 + d).min(axis=-1)),
                      (np.abs(1.0 + d) ** 2).min(axis=-1))
    # a mean as np.mean takes it: the complex sum divided by N
    assert same_bits(c.sum(axis=-1, keepdims=True) / shape[-1],
                      np.mean(c, axis=-1, keepdims=True))
