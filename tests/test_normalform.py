import numpy as np
import pytest

from wavestrip.grid import make_grid, deriv
from wavestrip.holo import holo_from_real, weighted_inner
from wavestrip.dynamics import WaveState, diag_of
from wavestrip.integrator import step_rk4
from wavestrip.normalform import (
    LINE_TOL,
    SingularLineError,
    PlanePoint,
    dispersion_kit,
    omega_resonance,
    symbols_holo,
    symbols_mixed,
    system_residuals,
    nf_transform,
    tilde_symbols,
    TrilinearForm,
    trilinear_eval,
    nf_energy,
    high_forms,
    cubic_energy_high,
    _E0,
    _band_coeffs,
    _conj_flip,
    _holo_symbol_grids,
    _preflip_cubic,
)
from conftest import small_state, random_trace


def test_dispersion_kit_values():
    J, Jp, omega, Lam = dispersion_kit(2.0)
    assert np.isclose(J, 2.0 * np.tanh(2.0))
    assert np.isclose(Jp, np.tanh(2.0) + 2.0 / np.cosh(2.0) ** 2)
    assert np.isclose(omega, -np.sqrt(J))
    assert np.isclose(Lam, Jp ** 2 - 4.0 * J)
    assert Lam < 0
    # omega is odd
    assert np.isclose(dispersion_kit(-2.0)[2], -omega)


def test_resonance_function_properties(rng):
    xi, eta = rng.uniform(-20, 20, (2, 200))
    Om = omega_resonance(xi, eta)
    assert np.all(Om <= 1e-12)
    assert np.allclose(Om, omega_resonance(eta, xi), rtol=1e-12)
    # frozen reference value at (1, 1, -2), cross-checked against the
    # factored form (Jz - (sqrt(Jx) + sqrt(Je))^2)(Jz - (sqrt(Jx) - sqrt(Je))^2)
    assert np.isclose(float(omega_resonance(1.0, 1.0)), -2.15618546874002,
                      atol=1e-11)


def test_resonance_vanishes_on_lines():
    for xi in (0.5, 3.0, 17.0):
        assert abs(float(omega_resonance(xi, 0.0))) < 1e-12
        assert abs(float(omega_resonance(0.0, xi))) < 1e-12
        assert abs(float(omega_resonance(xi, -xi))) < 1e-12


def test_symbol_systems_interior(rng):
    count = 0
    while count < 60:
        xi, eta = rng.uniform(-25, 25, 2)
        p = PlanePoint(xi, eta)
        if min(abs(p.xi), abs(p.eta), abs(p.zeta)) < 0.5:
            continue
        r3, r4 = system_residuals(xi, eta)
        assert np.max(r3) < 1e-10, (xi, eta)
        assert np.max(r4) < 1e-10, (xi, eta)
        count += 1


def test_symbols_near_line_continuity():
    # values on both sides of the Taylor switchover agree to many digits
    for d in (2e-4, 5e-5):
        a = symbols_holo(1.7, d)
        b = symbols_holo(1.7, -d)
        mid = symbols_holo(1.7, 0.0)
        for va, vb, vm in zip(a, b, mid):
            assert abs(0.5 * (va + vb) - vm) < 1e-5 * max(abs(vm), 1.0)


def test_symbols_singular_output_line():
    with pytest.raises(SingularLineError):
        symbols_holo(1.2, -1.2)
    with pytest.raises(SingularLineError):
        symbols_mixed(1.2, -1.2)
    # off the line by any finite amount the values exist
    symbols_holo(1.2, -1.2 + 1e-9)
    symbols_mixed(1.2, -1.2 + 1e-9)


def test_tilde_symbols_properties():
    for n in (1, 2):
        # exact zero on the resonance lines
        for p in (PlanePoint(1.5, 0.0), PlanePoint(0.0, 2.5),
                  PlanePoint(2.0, -2.0)):
            A, B = tilde_symbols(n, p)
            assert A == 0.0 and B == 0.0
        # off the lines: purely imaginary and odd under reflection
        p = PlanePoint(1.3, 0.9)
        A, B = tilde_symbols(n, p)
        assert abs(A.real) < 1e-12 * max(abs(A), 1e-30)
        assert abs(B.real) < 1e-12 * max(abs(B), 1e-30)
        Am, Bm = tilde_symbols(n, PlanePoint(-1.3, -0.9))
        assert abs(Am + A) < 1e-10 * max(abs(A), 1e-30)
        assert abs(Bm + B) < 1e-10 * max(abs(B), 1e-30)
    with pytest.raises(ValueError):
        tilde_symbols(0, PlanePoint(1.0, 1.0))


def test_tilde_symbols_vanish_linearly():
    # approaching a line the symmetrized symbols go to zero linearly
    p1 = tilde_symbols(1, PlanePoint(2.0, 1e-2))
    p2 = tilde_symbols(1, PlanePoint(2.0, 5e-3))
    for a, b in zip(p1, p2):
        assert 1.6 < abs(a) / abs(b) < 2.4


def test_trilinear_constant_symbol_is_quadrature(grid, rng):
    # symbol 1 on real fields reproduces the plain product integral
    def one(xi, eta, zeta):
        return np.ones_like(xi)

    form = TrilinearForm(one)
    fs = []
    for _ in range(3):
        c = np.zeros(grid.N)
        for k in range(1, 8):
            c += rng.uniform(-1, 1) * np.cos(k * grid.nodes + rng.uniform(0, 7))
        fs.append(c)
    got = trilinear_eval(form, fs[0], fs[1], fs[2], grid)
    want = float(np.sum(fs[0] * fs[1] * fs[2]) * grid.L / grid.N)
    assert np.isclose(got, want, rtol=1e-12)


def test_trilinear_homogeneity(grid):
    def sym(xi, eta, zeta):
        return np.tanh(xi) * np.tanh(eta) + 0.3 * zeta ** 2

    form = TrilinearForm(sym)
    f = np.cos(grid.nodes + 0.4) + 0.5 * np.cos(3 * grid.nodes)
    v1 = trilinear_eval(form, f, f, f, grid)
    v2 = trilinear_eval(form, 2 * f, 2 * f, 2 * f, grid)
    assert np.isclose(v2, 8.0 * v1, rtol=1e-12)
    assert form.symmetry_defect([(0.7, 1.9), (3.0, -1.2)]) < 1e-14


def test_trilinear_rejects_unresolved_mass(grid, rng):
    def one(xi, eta, zeta):
        return np.ones_like(xi)

    # white spectrum: pairwise sums leave the dealias band with real weight
    f = rng.standard_normal(grid.N)
    with pytest.raises(ValueError):
        trilinear_eval(TrilinearForm(one), f, f, f, grid)


def test_weighted_form_matches_trilinear_route(grid):
    # <u, u>_{m(D) Re u} evaluated two ways: pointwise quadrature of the
    # weighted inner product vs the trilinear mode sum with the symbol
    # -2 tanh(xi) tanh(eta) m(zeta)
    state = small_state(grid, eps=0.07)
    d = diag_of(state)
    bW = d.bW.values
    n = 1
    from wavestrip.grid import smooth_one_plus_T2
    wplus = -4.0 * n * bW.real + 0.5 * smooth_one_plus_T2(bW.real, grid)
    direct = weighted_inner(bW, bW, wplus, grid)

    def sym(xi, eta, zeta):
        m = -4.0 * n + 0.5 / np.cosh(zeta) ** 2
        return -2.0 * np.tanh(xi) * np.tanh(eta) * m

    via_modes = trilinear_eval(TrilinearForm(sym, n=n), bW.real, bW.real,
                               bW.real, grid)
    assert np.isclose(direct, via_modes, rtol=1e-10)
    # and the packaged high-frequency form uses exactly this weight
    B_high, _ = high_forms(n, d)
    assert np.isclose(B_high, direct, rtol=1e-12)


def _linear_residual(state, transformed, dt=1e-4):
    """Residual of W_t + Q_alpha after (optionally) the quadratic change of
    variables, via a central time difference of full-system steps."""
    grid = state.grid
    plus = step_rk4(state, dt, "rk4")
    minus = step_rk4(state, -dt, "rk4")
    if transformed:
        Wp, Qp = nf_transform(plus)
        Wm, Qm = nf_transform(minus)
        Q0 = nf_transform(state)[1]
    else:
        Wp, Qp = plus.W, plus.Q
        Wm, Qm = minus.W, minus.Q
        Q0 = state.Q
    Wt = (Wp.values - Wm.values) / (2 * dt)
    r = Wt + deriv(Q0.values, grid)
    r = r - np.mean(r)
    return float(np.max(np.abs(r)))


def test_transform_removes_quadratic_terms():
    grid = make_grid(2 * np.pi, 64, 1.0)
    r_raw = []
    r_nf = []
    for eps in (0.02, 0.01):
        state = small_state(grid, eps=eps)
        r_raw.append(_linear_residual(state, transformed=False))
        r_nf.append(_linear_residual(state, transformed=True))
    # raw residual is quadratic in the amplitude, transformed one cubic
    assert 3.2 < r_raw[0] / r_raw[1] < 4.8
    assert 6.4 < r_nf[0] / r_nf[1] < 9.6


def test_nf_transform_requires_unit_cell():
    grid = make_grid(4 * np.pi, 64, 1.0)
    with pytest.raises(ValueError):
        nf_transform(small_state(grid, eps=0.01))


def _preflip_cubic_loop(n, w, q, g, grid):
    """The seven pre-flip double sums, term by term over the lattice."""
    band = grid.N // 3
    sym = _holo_symbol_grids(band)
    cw = _band_coeffs(w - np.mean(w), grid, band)
    cq = _band_coeffs(q - np.mean(q), grid, band)
    cwb, cqb = _conj_flip(cw), _conj_flip(cq)
    B = A = 0.0
    for j in range(-band, band + 1):
        for k in range(-band, band + 1):
            z = -(j + k)
            if abs(z) > band:
                continue
            a, b, c = j + band, k + band, z + band
            s = {name: sym[name][a, b] for name in
                 ("Ah", "Bh", "Ch", "Aa", "Ba", "Ca", "Da")}
            ww = z ** (2 * n) * (cwb[c] - cw[c])
            coth_z = 1.0 / np.tanh(z) if z else 0.0
            wq = coth_z * z ** (2 * n + 1) * (cqb[c] - cq[c])
            B += ww * (s["Bh"] * cw[a] * cw[b] + s["Ba"] * cw[a] * cwb[b])
            A += (ww * (s["Ch"] * cq[a] * cq[b] + s["Ca"] * cq[a] * cqb[b])
                  + wq * (s["Ah"] * cw[a] * cq[b] + s["Aa"] * cw[a] * cqb[b]
                          + s["Da"] * cq[a] * cwb[b]))
    return 2.0 * grid.L * (g * np.real(B) + np.real(A))


@pytest.mark.parametrize("n", [1, 2])
def test_preflip_cubic_matches_double_loop(n, rng):
    grid = make_grid(2 * np.pi, 24, 1.0)
    w = random_trace(grid, rng, scale=0.3, decay=1.0).values
    q = random_trace(grid, rng, scale=0.3, decay=1.0).values
    want = _preflip_cubic_loop(n, w, q, 1.3, grid)
    assert abs(want) > 1e-6
    assert np.isclose(_preflip_cubic(n, w, q, 1.3, grid), want,
                      rtol=1e-12, atol=0.0)


def test_nf_energy_quadratic_dominance(grid):
    for n in (1, 2):
        gaps = []
        for eps in (0.04, 0.02, 0.01):
            d = diag_of(small_state(grid, eps=eps))
            e0 = _E0(deriv(d.bW.values, grid, n - 1) if n > 1 else d.bW.values,
                     deriv(d.R.values, grid, n - 1) if n > 1 else d.R.values,
                     d.g, grid)
            gaps.append(abs(nf_energy(n, d) - e0))
        # the correction is cubic: halving eps divides the gap by ~8
        assert 7.0 < gaps[0] / gaps[1] < 14.0
        assert 7.0 < gaps[1] / gaps[2] < 14.0


def test_nf_energy_validation(grid):
    d = diag_of(small_state(grid, eps=0.01))
    with pytest.raises(ValueError):
        nf_energy(0, d)
    with pytest.raises(ValueError):
        nf_energy(3, d)
    with pytest.raises(ValueError):
        high_forms(0, d)
    with pytest.raises(ValueError):
        cubic_energy_high(3, d)


def test_modified_energy_is_cubically_close_to_quadratic(grid):
    gaps = []
    for eps in (0.04, 0.02):
        d = diag_of(small_state(grid, eps=eps))
        e0 = _E0(d.bW.values, d.R.values, d.g, grid)
        gaps.append(abs(cubic_energy_high(1, d) - e0))
    assert 6.0 < gaps[0] / gaps[1] < 12.0


def test_high_forms_are_cubic(grid):
    vals = []
    # A carries a relatively large quartic correction, so probe it at
    # smaller amplitude than B to see the cubic leading order
    for eps in (0.04, 0.02, 0.005, 0.0025):
        d = diag_of(small_state(grid, eps=eps))
        B, A = high_forms(1, d)
        vals.append((abs(B), abs(A)))
    assert 6.0 < vals[0][0] / vals[1][0] < 12.0
    assert 6.0 < vals[2][1] / vals[3][1] < 12.0
