import numpy as np
import pytest

from wavestrip.grid import make_grid, from_spectrum, lh_apply, to_spectrum
from wavestrip.holo import (
    holo_from_real,
    project,
    project_spectrum,
    inner_h,
    pair_form,
    sobolev_weight,
    sobolev_norm,
    holomorphy_residual,
)
from conftest import random_trace
from reference import check_identities, holo_from_spectrum


def test_holo_from_real_satisfies_constraint(grid, rng):
    u = holo_from_real(rng.standard_normal(grid.N), grid)
    assert holomorphy_residual(u, grid) < 1e-12


def test_holo_from_spectrum_coefficients(grid):
    u = holo_from_spectrum([0.5, 0.0, 0.25j], grid)
    c = to_spectrum(u.real)
    assert abs(c[1] - 0.5) < 1e-13
    assert abs(c[3] - 0.25j) < 1e-13
    assert abs(c[-3] - np.conj(0.25j)) < 1e-13
    assert holomorphy_residual(u, grid) <= 1e-11 * max(1.0, np.max(np.abs(u)))


def test_validate_rejects_nonholomorphic(grid):
    bad = np.cos(grid.nodes) + 1j * np.cos(grid.nodes)
    assert holomorphy_residual(bad, grid) > 1e-11 * max(1.0, np.max(np.abs(bad)))


def test_projection_partition_of_identity(grid, rng):
    f = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    total = project(f, grid, "holo") + project(f, grid, "anti")
    assert np.allclose(total, f, atol=1e-11)


def test_projection_idempotent_and_fixes_traces(grid, rng):
    u = random_trace(grid, rng)
    v = u - np.mean(u)
    Pv = project(v, grid, "holo")
    assert np.allclose(Pv, v, atol=1e-10)
    # idempotency and mutual annihilation hold on the fluctuation modes;
    # the zero and Nyquist gauge modes split evenly on every application
    f = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    P1 = project(f, grid, "holo")
    gauge = (grid.k == 0) | (np.abs(grid.k) == grid.N // 2)
    d1 = to_spectrum(project(P1, grid, "holo") - P1)
    assert np.max(np.abs(d1[~gauge])) < 1e-12
    d2 = to_spectrum(project(P1, grid, "anti"))
    assert np.max(np.abs(d2[~gauge])) < 1e-12


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("h", [0.25, 1.0, 4.0])
def test_projection_equals_per_mode_formula(N, h):
    # project's full-length coefficient arrays reproduce the docstring's
    # per-mode formula bit for bit, the mean and Nyquist modes included
    grid = make_grid(2 * np.pi, N, h)
    rng = np.random.default_rng(N + int(8 * h))
    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    c = to_spectrum(f)
    want = np.empty(N, dtype=complex)
    for i, k in enumerate(grid.k):
        cneg = np.conj(c[(-k) % N])
        if k == 0 or abs(k) == N // 2:
            want[i] = 0.5 * c[i]
        else:
            t = np.tanh(h * grid.xi[i])
            want[i] = 0.25 * ((2.0 - t - 1.0 / t) * c[i] + (1.0 / t - t) * cneg)
    assert np.array_equal(project_spectrum(c, grid), want)
    assert np.array_equal(project(f, grid, "holo"), from_spectrum(want))
    assert np.array_equal(project(f, grid, "anti"), from_spectrum(c - want))


def test_projection_kills_conjugate_trace(grid, rng):
    u = random_trace(grid, rng)
    v = np.conj(u - np.mean(u))
    assert np.max(np.abs(project(v, grid, "holo"))) < 1e-10


def test_flip_relation(grid, rng):
    # the flip relation conj(u_hat(-xi)) = exp(2 h xi) u_hat(xi) is the
    # constraint Im u = -T_h Re u mode by mode
    u = random_trace(grid, rng)
    assert holomorphy_residual(u, grid) < 1e-9
    # a conjugated trace violates it badly
    assert holomorphy_residual(np.conj(u), grid) > 1e-2


def test_inner_h_single_mode(grid):
    # u = cos(kx) - i tanh(hk) sin... : <u, u> = L tanh(hk)^2
    for k in (1, 2, 5):
        u = holo_from_real(np.cos(k * grid.nodes), grid)
        want = grid.L * np.tanh(grid.h * k) ** 2
        assert np.isclose(inner_h(u, u, grid), want, rtol=1e-12)


def test_inner_h_blind_to_constants(grid, rng):
    u = random_trace(grid, rng)
    shifted = u + 7.0
    assert np.isclose(inner_h(u, u, grid), inner_h(shifted, shifted, grid),
                      rtol=1e-10)


def test_weighted_inner(grid, rng):
    u = random_trace(grid, rng)
    v = random_trace(grid, rng)
    ones = np.ones(grid.N)
    assert inner_h(u, v, grid, ones) == inner_h(u, v, grid)
    w = 1.0 + 0.5 * np.cos(grid.nodes)
    assert np.isclose(inner_h(u, v, grid, 2.0 * w),
                      2.0 * inner_h(u, v, grid, w), rtol=1e-12)
    with pytest.raises(ValueError, match="weight must be real"):
        inner_h(u, v, grid, 1j * ones)


def test_norm_calH(grid, rng):
    # the squared energy norm ||(W, Q)||_H^2 is twice pair_form
    u = random_trace(grid, rng)
    v = random_trace(grid, rng)
    n = 2.0 * pair_form((u, v), (u, v), 2.0, grid)
    assert n > 0
    # quadratic homogeneity
    n4 = 2.0 * pair_form((2 * u, 2 * v), (2 * u, 2 * v), 2.0, grid)
    assert np.isclose(n4, 4.0 * n, rtol=1e-12)


def test_norm_calH_is_twice_pair_form(grid, rng):
    p = (random_trace(grid, rng), random_trace(grid, rng))
    p2 = (random_trace(grid, rng), random_trace(grid, rng))
    LQ = lh_apply(p[1], grid)
    direct = 2.0 * inner_h(p[0], p[0], grid) + inner_h(LQ, LQ, grid)
    assert np.isclose(2.0 * pair_form(p, p, 2.0, grid), direct,
                      rtol=1e-14, atol=0.0)
    assert np.isclose(pair_form(p, p2, 2.0, grid), pair_form(p2, p, 2.0, grid),
                      rtol=1e-12, atol=0.0)


def test_sobolev_norm_s0_is_l2(grid, rng):
    f = rng.standard_normal(grid.N)
    want = np.linalg.norm(f) * np.sqrt(grid.L / grid.N)
    assert np.isclose(sobolev_norm(f, 0.0, grid), want, rtol=1e-12)
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.0, grid)
    with pytest.raises(ValueError):
        sobolev_norm(f, 1.0, grid, base="junk")


def test_sobolev_weight_depth_uniform():
    xi = np.array([0.0, 1.0, 10.0])
    w = sobolev_weight(xi, 2.0, 1.0)
    assert np.allclose(w, np.sqrt(1 + 4 * xi ** 2) / 2.0)


def test_product_identities(grid, rng):
    for _ in range(10):
        product_formula, projected_formula = check_identities(
            random_trace(grid, rng), random_trace(grid, rng), grid)
        assert product_formula < 1e-10
        assert projected_formula < 1e-10
