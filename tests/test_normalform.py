import tracemalloc

import mpmath
import numpy as np
import pytest

from wavestrip import normalform
from wavestrip.grid import dealias_band, make_grid, deriv, to_spectrum
from wavestrip.holo import inner_h
from wavestrip.dynamics import WaveState, diag_of, scale_state
from wavestrip.integrator import step_rk4
from wavestrip.normalform import (
    SingularLineError,
    dispersion_kit,
    omega_resonance,
    symbols_holo,
    symbols_mixed,
    system_residuals,
    nf_transform,
    nf_energy,
    cubic_energy_high,
    _E0,
    _band_coeffs,
    _conj_flip,
    _holo_symbol_grids,
    _preflip_cubic,
)
from conftest import same_bits, small_state, random_trace
from reference import high_forms, tilde_pair, tilde_symbols, trilinear_eval


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
        if min(abs(xi), abs(eta), abs(xi + eta)) < 0.5:
            continue
        r3, r4 = system_residuals(xi, eta)
        assert np.max(r3) < 1e-10, (xi, eta)
        assert np.max(r4) < 1e-10, (xi, eta)
        count += 1


def test_symbols_near_line_continuity():
    # the closed forms on both sides of eta = 0 average to the closed limit
    # on the line
    for d in (2e-4, 5e-5):
        a = symbols_holo(1.7, d)
        b = symbols_holo(1.7, -d)
        mid = symbols_holo(1.7, 0.0)
        for va, vb, vm in zip(a, b, mid):
            assert abs(0.5 * (va + vb) - vm) < 1e-5 * max(abs(vm), 1.0)


def _mp_symbols(xi, eta):
    """The raw closed forms of the seven symbols at the working precision.

    The expressions of ``_symbols_holo_raw`` and ``_symbols_mixed_raw``
    with the numerators written out, evaluated directly in mpmath: the
    Omega cancellation near a line costs about twice as many digits as the
    distance to the line has, which the working precision absorbs.
    """
    x, e = mpmath.mpf(xi), mpmath.mpf(eta)
    z = -(x + e)
    Jx, Je, Jz = (s * mpmath.tanh(s) for s in (x, e, z))
    Om = Jx ** 2 + Je ** 2 + Jz ** 2 - 2 * (Jx * Je + Je * Jz + Jz * Jx)
    Ah = 2j * e * Jx * (Jz - Jx + Je) / Om
    Bh = -2j * z * Jx * Je / Om
    Ch = -1j * x * e * z * (Jz - Jx - Je) / Om
    tx, te = mpmath.tanh(x), mpmath.tanh(e)
    sig = 1 / (1 + mpmath.exp(-2 * z))
    pol = 1 / (1 - mpmath.exp(-2 * z))
    Aa = -sig * ((Je + e) * Bh / (z * te) + (Jx - x) * Ch / (x * z))
    Ba = pol * ((Jz - (x - e)) * Bh / z
                + (e * Jx - x * Je) * Ch / (x * e * z))
    Ca = pol * ((e * Jx - x * Je) * Bh / (z * tx * te)
                + (Jz - (x - e)) * Ch / z)
    Da = -sig * ((Jx - x) * Bh / (z * tx) + (Je + e) * Ch / (e * z))
    return (Ah, Bh, Ch), (Aa, Ba, Ca, Da)


def _assert_close_to_mp(xi, eta, want_h, want_m, tol):
    # error relative to the largest component of each symbol set
    for got, want in ((symbols_holo(xi, eta), want_h),
                      (symbols_mixed(xi, eta), want_m)):
        want = [complex(v) for v in want]
        err = np.max(np.abs(np.subtract(got, want)))
        assert err <= tol * np.max(np.abs(want)), (xi, eta, err)


def test_symbols_near_lines_match_high_precision():
    # the closed forms carry no cancellation near xi = 0 or eta = 0: all
    # seven symbols stay within 1e-12 of 60 digits down to distance 1e-14,
    # on both lines and in all four sign quadrants
    for t in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        for base in (0.3, 1.3, 4.0, 20.0):
            for sb, st in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                for xi, eta in ((sb * base, st * t), (st * t, sb * base)):
                    with mpmath.workdps(60):
                        want_h, want_m = _mp_symbols(xi, eta)
                    _assert_close_to_mp(xi, eta, want_h, want_m, 1e-12)


def test_line_limits_match_high_precision():
    # on xi = 0 and eta = 0 the symbols are the twelve closed limits; the
    # reference is the raw forms at 120 digits a distance 1e-30 off the
    # line (at 60 digits and 1e-25 the Omega cancellation would leave
    # about 10 digits); at |base| 400 nothing may overflow
    for base in (0.3, 1.3, 4.0, 20.0, 400.0, -0.3, -1.3, -4.0, -20.0, -400.0):
        for xi, eta in ((base, 0.0), (0.0, base)):
            with mpmath.workdps(120):
                off = mpmath.mpf("1e-30")
                want_h, want_m = _mp_symbols(xi or off, eta or off)
            _assert_close_to_mp(xi, eta, want_h, want_m, 1e-13)


def _tilde_symbols_mp(n, xi, eta):
    """``tilde_symbols`` at 60 digits: the same symmetrization of the
    seven symbols at the exact plane point (xi, eta)."""
    with mpmath.workdps(60):
        At, Bt = tilde_pair(n, mpmath.mpf(xi), mpmath.mpf(eta),
                            lambda u, v: sum(_mp_symbols(u, v), ()),
                            mpmath.exp)
        return complex(At), complex(Bt)


def test_tilde_symbols_near_lines_match_high_precision():
    # direct evaluation near each of the three lines
    for t in (1e-3, 1e-4, 1e-6):
        for xi, eta in ((1.3, t), (t, 1.3), (1.3, -1.3 + t)):
            for n in (1, 2):
                got = tilde_symbols(n, xi, eta)
                want = _tilde_symbols_mp(n, xi, eta)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-9 * abs(w), (t, xi, eta, n)


def test_system_residuals_near_output_line():
    # two points near zeta = 0 (zeta = -2.2e-3 and -5.2e-4), drawn by the
    # symbols kind's sampler at seeds 101 and 103 when d_min is not
    # enforced: the 4x4 residuals, 2.8e-11 and 1.3e-8 (the mixed forms'
    # cancellation near zeta = 0), stay below the near-line tolerance
    for xi, eta in ((-3.2767258187644153, 3.278962751805082),
                    (28.187681385000403, -28.187161388887702)):
        r3, r4 = system_residuals(xi, eta)
        assert max(np.max(r3), np.max(r4)) < 1e-6, (xi, eta)


def test_symbols_singular_output_line():
    with pytest.raises(SingularLineError):
        symbols_holo(1.2, -1.2)
    with pytest.raises(SingularLineError):
        symbols_mixed(1.2, -1.2)
    # off the line by any finite amount the values are finite; the mixed
    # ones are not accurate this close (a factor of several hundred at
    # zeta = -1e-9, ROADMAP item 3)
    assert all(np.isfinite(v) for v in symbols_holo(1.2, -1.2 + 1e-9))
    assert all(np.isfinite(v) for v in symbols_mixed(1.2, -1.2 + 1e-9))


def test_symbols_array_with_one_pole_raises():
    xi = np.array([0.7, 1.2, -3.0])
    eta = np.array([2.0, -1.2, 0.5])
    for f in (symbols_holo, symbols_mixed, system_residuals):
        with pytest.raises(SingularLineError):
            f(xi, eta)
        # broadcasting a scalar onto the pole as well
        with pytest.raises(SingularLineError):
            f(1.2, eta)


def test_symbols_arrays_equal_scalar_calls(rng):
    # points off the lines, on eta = 0 and on xi = 0, in one array; every
    # entry equals the scalar call at its point bit for bit
    xi, eta = rng.uniform(-25, 25, (2, 60))
    eta[:10] = 0.0
    xi[10:20] = 0.0
    arrays = symbols_holo(xi, eta) + symbols_mixed(xi, eta)
    r3, r4 = system_residuals(xi, eta)
    assert all(a.shape == (60,) for a in arrays)
    assert r3.shape == (3, 60) and r4.shape == (4, 60)
    for i, (x, e) in enumerate(zip(xi, eta)):
        scalars = symbols_holo(x, e) + symbols_mixed(x, e)
        assert [a[i] for a in arrays] == list(scalars), (x, e)
        s3, s4 = system_residuals(x, e)
        assert np.array_equal(r3[:, i], s3)
        # the 4x4 products may sum in another order; the residuals are
        # relative, so 1e-24 is far below the round-off they measure
        assert np.allclose(r4[:, i], s4, rtol=0.0, atol=1e-24)
    # a scalar broadcasts against an array
    row = symbols_holo(1.5, eta[20:25])
    assert all(np.array_equal(a, b) for a, b in
               zip(row, symbols_holo(np.full(5, 1.5), eta[20:25])))


@pytest.mark.parametrize("kappa", [1.0, 0.125])
def test_symbol_point_equals_table_entry(kappa):
    # the table is built through the pointwise rule and holds Im S: a point
    # returns 1j times its table entry bit for bit
    band = 85
    sym = _holo_symbol_grids(band, kappa)
    names = ("Ah", "Bh", "Ch", "Aa", "Ba", "Ca", "Da")
    idx = np.random.default_rng(5).integers(-band, band + 1, (400, 2))
    for j, k in idx:
        if j == 0 or k == 0 or j + k == 0:
            continue
        xi, eta = kappa * float(j), kappa * float(k)
        got = symbols_holo(xi, eta) + symbols_mixed(xi, eta)
        want = [1j * sym[name][j + band, k + band] for name in names]
        assert list(got) == want, (j, k)


def test_tilde_symbols_properties():
    for n in (1, 2):
        # exact zero on the resonance lines
        for xi, eta in ((1.5, 0.0), (0.0, 2.5), (2.0, -2.0)):
            A, B = tilde_symbols(n, xi, eta)
            assert A == 0.0 and B == 0.0
        # off the lines: purely imaginary and odd under reflection
        A, B = tilde_symbols(n, 1.3, 0.9)
        assert abs(A.real) < 1e-12 * max(abs(A), 1e-30)
        assert abs(B.real) < 1e-12 * max(abs(B), 1e-30)
        Am, Bm = tilde_symbols(n, -1.3, -0.9)
        assert abs(Am + A) < 1e-10 * max(abs(A), 1e-30)
        assert abs(Bm + B) < 1e-10 * max(abs(B), 1e-30)
    with pytest.raises(ValueError):
        tilde_symbols(0, 1.0, 1.0)


def test_tilde_symbols_vanish_linearly():
    # approaching a line the symmetrized symbols go to zero linearly
    p1 = tilde_symbols(1, 2.0, 1e-2)
    p2 = tilde_symbols(1, 2.0, 5e-3)
    for a, b in zip(p1, p2):
        assert 1.6 < abs(a) / abs(b) < 2.4


def test_tilde_symbols_arrays_equal_scalar_calls(rng):
    # random points, and points on and within 1e-6 of each of the three
    # lines, in one array: every entry equals the scalar call bit for bit
    xi, eta = rng.uniform(-6, 6, (2, 40))
    for t in (0.0, 1e-13, 1e-9, 1e-6):
        for a in (1.3, -2.1):
            xi = np.append(xi, [a, t, a, a])
            eta = np.append(eta, [t, a, -a + t, -a - t])
    for n in (1, 2):
        A, B = tilde_symbols(n, xi, eta)
        assert A.shape == B.shape == xi.shape
        for i, (x, e) in enumerate(zip(xi, eta)):
            a, b = tilde_symbols(n, x, e)
            assert np.ndim(a) == 0 and A[i] == a and B[i] == b, (n, x, e)
    # a scalar broadcasts against an array
    row = tilde_symbols(1, 1.5, eta[:5])
    assert all(np.array_equal(r, c) for r, c in
               zip(row, tilde_symbols(1, np.full(5, 1.5), eta[:5])))


def test_trilinear_constant_symbol_is_quadrature(grid, rng):
    # symbol 1 on real fields reproduces the plain product integral
    def one(xi, eta, zeta):
        return np.ones_like(xi)

    fs = []
    for _ in range(3):
        c = np.zeros(grid.N)
        for k in range(1, 8):
            c += rng.uniform(-1, 1) * np.cos(k * grid.nodes + rng.uniform(0, 7))
        fs.append(c)
    got = trilinear_eval(one, fs[0], fs[1], fs[2], grid)
    want = float(np.sum(fs[0] * fs[1] * fs[2]) * grid.L / grid.N)
    assert np.isclose(got, want, rtol=1e-12)


def test_trilinear_homogeneity(grid):
    def sym(xi, eta, zeta):
        return np.tanh(xi) * np.tanh(eta) + 0.3 * zeta ** 2

    f = np.cos(grid.nodes + 0.4) + 0.5 * np.cos(3 * grid.nodes)
    v1 = trilinear_eval(sym, f, f, f, grid)
    v2 = trilinear_eval(sym, 2 * f, 2 * f, 2 * f, grid)
    assert np.isclose(v2, 8.0 * v1, rtol=1e-12)
    # the symbol is symmetric under swapping (xi, eta)
    for xi, eta in ((0.7, 1.9), (3.0, -1.2)):
        zeta = -(xi + eta)
        assert abs(sym(xi, eta, zeta) - sym(eta, xi, zeta)) < 1e-14


def test_trilinear_rejects_unresolved_mass(grid, rng):
    def one(xi, eta, zeta):
        return np.ones_like(xi)

    # white spectrum: pairwise sums leave the dealias band with real weight
    f = rng.standard_normal(grid.N)
    with pytest.raises(ValueError):
        trilinear_eval(one, f, f, f, grid)


def test_weighted_form_matches_trilinear_route(grid):
    # <u, u>_{m(D) Re u} evaluated two ways: pointwise quadrature of the
    # weighted inner product vs the trilinear mode sum with the symbol
    # -2 tanh(xi) tanh(eta) m(zeta)
    state = small_state(grid, eps=0.07)
    d = diag_of(state)
    bW = d.bW
    n = 1
    from wavestrip.grid import smooth_one_plus_T2
    wplus = -4.0 * n * bW.real + 0.5 * smooth_one_plus_T2(bW.real, grid)
    direct = inner_h(bW, bW, grid, wplus)

    def sym(xi, eta, zeta):
        m = -4.0 * n + 0.5 / np.cosh(zeta) ** 2
        return -2.0 * np.tanh(xi) * np.tanh(eta) * m

    via_modes = trilinear_eval(sym, bW.real, bW.real, bW.real, grid)
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
    Wt = (Wp - Wm) / (2 * dt)
    r = Wt + deriv(Q0, grid)
    r = r - np.mean(r)
    return float(np.max(np.abs(r)))


def test_transform_removes_quadratic_terms():
    # on the unit cell and on cells of other depth and period
    for L, h in ((2 * np.pi, 1.0), (2 * np.pi, 0.5), (2 * np.pi, 2.0),
                 (4 * np.pi, 1.0)):
        grid = make_grid(L, 64, h)
        r_raw = []
        r_nf = []
        for eps in (0.02, 0.01):
            state = small_state(grid, eps=eps)
            r_raw.append(_linear_residual(state, transformed=False))
            r_nf.append(_linear_residual(state, transformed=True))
        # raw residual is quadratic in the amplitude, transformed one cubic
        assert 3.2 < r_raw[0] / r_raw[1] < 4.8, (L, h)
        assert 6.4 < r_nf[0] / r_nf[1] < 9.6, (L, h)


def _nf_transform_loop(state):
    """Spectra of nf_transform's corrections, term by term over the lattice."""
    grid = state.grid
    band = grid.N // 3
    sym = _holo_symbol_grids(band, 1.0)
    w = _band_coeffs(state.W - np.mean(state.W), grid)
    q = _band_coeffs(state.Q - np.mean(state.Q), grid)
    wb, qb = _conj_flip(w), _conj_flip(q)
    g = state.g
    dW = np.zeros(grid.N, dtype=complex)
    dQ = np.zeros(grid.N, dtype=complex)
    for j in range(-band, band + 1):
        for k in range(-band, band + 1):
            m = j + k
            if m == 0 or abs(m) > band:
                continue
            a, b = j + band, k + band
            s = {name: 1j * sym[name][a, b] for name in
                 ("Ah", "Bh", "Ch", "Aa", "Ba", "Ca", "Da")}
            dW[m % grid.N] += (s["Bh"] * w[a] * w[b]
                               + s["Ch"] * q[a] * q[b] / g
                               + s["Ba"] * w[a] * wb[b]
                               + s["Ca"] * q[a] * qb[b] / g)
            dQ[m % grid.N] += (s["Ah"] * w[a] * q[b] + s["Aa"] * w[a] * qb[b]
                               + s["Da"] * q[a] * wb[b])
    return dW, dQ


def test_nf_transform_matches_double_loop(rng):
    grid = make_grid(2 * np.pi, 24, 1.0)
    state = WaveState(grid, random_trace(grid, rng, scale=0.05, decay=1.0),
                      random_trace(grid, rng, scale=0.05, decay=1.0), 1.3)
    Wt, Qt = nf_transform(state)
    dW, dQ = _nf_transform_loop(state)
    for got, want in ((Wt - state.W, dW), (Qt - state.Q, dQ)):
        scale = np.max(np.abs(want))
        assert scale > 1e-6
        assert np.allclose(to_spectrum(got), want, rtol=1e-12,
                           atol=1e-12 * scale)


def test_symbol_cache_holds_one_band():
    for N in (24, 64, 128):
        grid = make_grid(2 * np.pi, N, 1.0)
        nf_energy(1, diag_of(small_state(grid, eps=0.01)))
    assert list(normalform._symbol_cache) == [(128 // 3, 1.0)]


def _preflip_cubic_loop(n, w, q, g, grid):
    """The seven pre-flip double sums, term by term over the lattice."""
    band = grid.N // 3
    sym = _holo_symbol_grids(band, 1.0)
    cw = _band_coeffs(w - np.mean(w), grid)
    cq = _band_coeffs(q - np.mean(q), grid)
    cwb, cqb = _conj_flip(cw), _conj_flip(cq)
    B = A = 0.0
    for j in range(-band, band + 1):
        for k in range(-band, band + 1):
            z = -(j + k)
            if abs(z) > band:
                continue
            a, b, c = j + band, k + band, z + band
            s = {name: 1j * sym[name][a, b] for name in
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
    w = random_trace(grid, rng, scale=0.3, decay=1.0)
    q = random_trace(grid, rng, scale=0.3, decay=1.0)
    want = _preflip_cubic_loop(n, w, q, 1.3, grid)
    assert abs(want) > 1e-6
    assert np.isclose(_preflip_cubic(n, w, q, 1.3, grid), want,
                      rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("L, N, h", [(2 * np.pi, 24, 1.0),
                                     (2 * np.pi, 12, 2.0),
                                     (2 * np.pi, 24, 0.25)])
def test_preflip_cubic_matches_tilde_symbols(L, N, h, rng):
    # the paper's symmetrized symbols, summed by trilinear_eval at the
    # unit-depth points (h xi, h eta), give the pre-flip cubic part:
    # 2 (g h^-(2n+1) B~(w, w, w) + h^-(2n+2) A~(q, q, w)).  Their e^{2 zeta}
    # factors cost up to 4e-9 of accuracy at kappa band = 8
    grid = make_grid(L, N, h)
    w = random_trace(grid, rng, scale=0.3, decay=1.0)
    q = random_trace(grid, rng, scale=0.3, decay=1.0)
    g = 1.3
    for n in (1, 2):
        TB = trilinear_eval(lambda x, e, z: tilde_symbols(n, h * x, h * e)[1],
                            w, w, w, grid)
        TA = trilinear_eval(lambda x, e, z: tilde_symbols(n, h * x, h * e)[0],
                            q, q, w, grid)
        want = 2.0 * (g * h ** -(2 * n + 1) * TB + h ** -(2 * n + 2) * TA)
        assert abs(want) > 1.0
        assert np.isclose(_preflip_cubic(n, w, q, g, grid), want,
                          rtol=1e-7, atol=0.0), n


@pytest.mark.parametrize("L, N, h", [(2 * np.pi, 256, 1.0),
                                     (2 * np.pi, 128, 0.25),
                                     (3.0, 64, 4.0)])
@pytest.mark.parametrize("n", [1, 2])
def test_cubic_energy_is_the_flip_defect_pairing_of_the_nf_corrections(
        L, N, h, n):
    # the cubic part of E^n_NF pairs nf_transform's corrections (dW, dQ),
    # scaled to the unit-depth image by 1/h and 1/h^2, with the flip
    # defects d(m) = conj(c(m)) - c(-m) of the state's band coefficients:
    # 2 (L/h) h^(4-2n) Re sum_m [zeta^2n d_w (g/h) dW + coth(zeta)
    # zeta^(2n+1) d_q dQ], zeta = -kappa m.  A second reduction of the same
    # lattice: nf_transform sums anti-diagonals, _preflip_cubic Hankel forms
    grid = make_grid(L, N, h)
    rng = np.random.default_rng(N)
    scale = 0.02 * min(h, 1.0)
    w, q = (np.stack([random_trace(grid, rng, scale=scale) for _ in range(3)])
            for _ in range(2))
    g = 1.3
    Wt, Qt = nf_transform(WaveState(grid, w, q, g))
    dW = _band_coeffs(Wt - w, grid) / h
    dQ = _band_coeffs(Qt - q, grid) / h ** 2
    cw = _band_coeffs(w - np.mean(w, -1, keepdims=True), grid) / h
    cq = _band_coeffs(q - np.mean(q, -1, keepdims=True), grid) / h ** 2
    dw, dq = (np.conj(c) - c[..., ::-1] for c in (cw, cq))
    band = dealias_band(grid)
    zeta = -(2 * np.pi * h / L) * np.arange(-band, band + 1)
    with np.errstate(divide="ignore"):
        coth = np.where(zeta == 0.0, 0.0, 1.0 / np.tanh(zeta))
    terms = (zeta ** (2 * n) * dw * (g / h) * dW
             + coth * zeta ** (2 * n + 1) * dq * dQ)
    front = 2.0 * (L / h) * h ** (4 - 2 * n)
    want = front * np.sum(terms, axis=-1).real
    # the sum cancels: measured against the sum of its terms' sizes the
    # two routes agree to 1.2e-15
    size = front * np.sum(np.abs(terms), axis=-1)
    got = _preflip_cubic(n, w, q, g, grid)
    assert got.shape == (3,) and np.all(size > 1e-8)
    assert np.all(np.abs(got - want) <= 1e-14 * size), (got, want)


def test_nf_energy_quadratic_dominance(grid):
    for n in (1, 2):
        gaps = []
        for eps in (0.04, 0.02, 0.01):
            d = diag_of(small_state(grid, eps=eps))
            e0 = _E0(deriv(d.bW, grid) if n > 1 else d.bW,
                     deriv(d.R, grid) if n > 1 else d.R,
                     d.g, grid)
            gaps.append(abs(nf_energy(n, d) - e0))
        # the correction is cubic: halving eps divides the gap by ~8
        assert 7.0 < gaps[0] / gaps[1] < 14.0
        assert 7.0 < gaps[1] / gaps[2] < 14.0


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
def test_nf_energy_exact_dyadic_scaling(lam, grid):
    # the scaling symmetry changes the cell (L, h) to (L/lam, h/lam) and
    # E^n by lam^-(4 - 2n); for dyadic lam the change is exact
    state = small_state(grid, eps=0.03)
    for n in (1, 2):
        scaled = nf_energy(n, diag_of(scale_state(state, lam)))
        assert scaled == lam ** -(4 - 2 * n) * nf_energy(n, diag_of(state))


def test_nf_energy_infinite_depth_limit():
    # at fixed L the cubic remainder E^1_NF - E0 converges as h grows, at
    # the exponential rate of tanh(h xi) -> sgn(xi)
    rem = []
    for h in (4.0, 6.0, 8.0, 12.0, 16.0):
        d = diag_of(small_state(make_grid(2 * np.pi, 128, h), eps=0.02))
        rem.append(nf_energy(1, d) - _E0(d.bW, d.R, d.g, d.grid))
    steps = np.abs(np.diff(rem))
    assert np.all(steps[1:] < 0.1 * steps[:-1]), steps


def test_symbol_table_rejects_non_finite_entries(monkeypatch):
    for kappa in (0.125, 16.0):
        sym = _holo_symbol_grids(64, kappa)
        assert all(np.all(np.isfinite(a)) for a in sym.values())
    raw = normalform._symbols_mixed_raw

    def broken(xi, eta, Bh, Ch):
        Aa, Ba, Ca, Da = raw(xi, eta, Bh, Ch)
        Ba[2] = np.inf
        return Aa, Ba, Ca, Da

    monkeypatch.setattr(normalform, "_symbols_mixed_raw", broken)
    with pytest.raises(ValueError, match="non-finite Ba"):
        _holo_symbol_grids(8, 0.5)


def test_symbol_table_rejects_non_imaginary_entries(monkeypatch):
    # the table stores Im S, which is the symbol only if Re S is exactly 0
    symbols = normalform._symbols

    def shifted(xi, eta):
        out = list(symbols(xi, eta))
        out[4] = out[4].copy()
        out[4][2] += 1e-300
        return tuple(out)

    monkeypatch.setattr(normalform, "_symbols", shifted)
    with pytest.raises(ValueError,
                       match=r"Ba symbol .* real part at kappa 0\.5"):
        _holo_symbol_grids(8, 0.5)


_LINE_HELPERS = ("_holo_limits_eta0", "_holo_limits_xi0",
                 "_mixed_limits_eta0", "_mixed_limits_xi0")


def test_symbols_skip_the_limits_of_an_empty_line(monkeypatch):
    # the table's blocks hold no point on a line (their lines are zeroed),
    # so a block evaluates none of the four line-limit helpers; a point on
    # a line still gets its limit
    calls = []
    for name in _LINE_HELPERS:
        def spy(x, _fn=getattr(normalform, name), _name=name):
            calls.append(_name)
            return _fn(x)
        monkeypatch.setattr(normalform, name, spy)
    monkeypatch.setattr(normalform, "_symbol_cache", {})
    _holo_symbol_grids(40, 0.5)
    xi, eta = np.meshgrid([-1.5, -0.25, 0.5, 2.0], [-0.75, 0.3, 1.25])
    off = normalform._symbols(xi, eta)
    assert calls == []
    on = normalform._symbols(np.array([0.5, 0.0, 1.0]),
                             np.array([0.0, 0.7, 0.4]))
    assert set(calls) == set(_LINE_HELPERS)
    monkeypatch.undo()
    # the values are the same bits as with every helper evaluated
    for got, x, e in ((off, xi, eta), (on, [0.5, 0.0, 1.0], [0.0, 0.7, 0.4])):
        for a, b in zip(got, normalform._symbols(np.array(x), np.array(e))):
            assert same_bits(a, b)


def test_symbol_table_build_peak_is_one_table(monkeypatch):
    # seven float64 (2 band + 1)^2 tables, built a block of rows at a time:
    # the build holds the tables and one block's temporaries, not a complex
    # copy of the whole lattice
    monkeypatch.setattr(normalform, "_symbol_cache", {})
    band = 512 // 3
    tracemalloc.start()
    try:
        sym = _holo_symbol_grids(band, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(a.dtype == np.float64 for a in sym.values())
    assert sum(a.size for a in sym.values()) == 7 * (2 * band + 1) ** 2
    table = sum(a.nbytes for a in sym.values())
    assert peak < 1.25 * table + 2 ** 18, (peak, table)


@pytest.mark.parametrize("fn", [lambda s, d: nf_energy(1, d),
                                lambda s, d: nf_transform(s)],
                         ids=["nf_energy", "nf_transform"])
def test_normal_form_memory_does_not_grow_with_the_stack(fn):
    # the lattice tables are built one member at a time: a 16-member stack
    # at N = 256 peaks below twice one member's peak plus a few (B, N)
    # arrays, where 16 (2 band + 1)^2 tables would take 16 x 468 KB
    grid = make_grid(2 * np.pi, 256, 1.0)
    rng = np.random.default_rng(11)
    B = 16

    def traces():
        return np.stack([random_trace(grid, rng, scale=0.02)
                         for _ in range(B)])

    stack = WaveState(grid, traces(), traces(), 1.0)
    member = WaveState(grid, stack.W[0], stack.Q[0], 1.0)
    peaks = []
    for s in (member, stack):
        d = diag_of(s)
        fn(s, d)   # warm the symbol table
        tracemalloc.start()
        try:
            fn(s, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0] + 8 * stack.W.nbytes, peaks


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
        e0 = _E0(d.bW, d.R, d.g, grid)
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


def test_high_forms_n2_is_the_weighted_form(grid):
    # at n = 2 the cross term -2 <W dR, T^{-1} d^2 R> and the transfer term
    # +2 <W R_alpha, T^{-1} d^2 R> are one product with opposite signs, so
    # A_high is the weighted form alone
    from wavestrip.grid import inv_tilbert, smooth_one_plus_T2
    for eps in (0.04, 0.02):
        d = diag_of(small_state(grid, eps=eps))
        bW = d.bW
        rd = deriv(d.R, grid)
        wminus = -8.0 * bW.real - 0.5 * smooth_one_plus_T2(bW.real, grid)
        want = -inner_h(rd, inv_tilbert(deriv(rd, grid), grid), grid,
                        wminus)
        assert np.isclose(high_forms(2, d)[1], want, rtol=1e-12, atol=0.0)
