"""References that only tests call: each pins package code by another route.

* ``tilde_symbols``, the paper's symmetrized cubic-energy symbols, summed
  by the generic ``trilinear_eval``, are the reference for
  ``normalform._preflip_cubic``, which evaluates the normal-form energy.
* ``high_forms`` are the high-frequency quadratic forms of that energy.
* ``check_identities`` evaluates the two Tilbert product identities.
* ``holo_from_spectrum`` builds a trace from prescribed Fourier
  coefficients; ``conftest.random_trace`` draws its test states with it.
* ``classical_rk4`` and ``lawson_rk4`` are the two RK4 formulas that
  ``integrator.step_rk4`` evaluates as one tableau, for "rk4" and "ifrk4".
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wavestrip.grid import (dealias, dealias_band, deriv, from_spectrum,
                            inv_tilbert, smooth_one_plus_T2, tilbert,
                            to_spectrum)
from wavestrip.holo import holo_from_real, inner_h, project
from wavestrip.dynamics import rhs_full
from wavestrip.integrator import _linear_propagator, _regauge
from wavestrip.normalform import (_band_coeffs, _hankel_form, _rung,
                                  _symbols)


def holo_from_spectrum(coeffs_pos, grid):
    """Holomorphic trace whose real part has the coefficient
    ``coeffs_pos[k-1]`` at exp(i k alpha), and its conjugate at -k."""
    c = np.zeros(grid.N, dtype=np.complex128)
    for k, a in enumerate(np.atleast_1d(coeffs_pos), start=1):
        c[k] = a
        c[-k] = np.conj(a)
    return holo_from_real(from_spectrum(c).real, grid)


def check_identities(u, v, grid):
    """Sup-norm residuals of both product identities on two traces.

    1. Summation formula (real fields f, g = Re u, Re v):
           f T[g] + T[f] g = T[f g - T[f] T[g]]
    2. Projected product identity (holomorphic u, v), modulo constants:
           P[ T[u v] - conj(u) T[v] - T[conj(u)] v ] = T[u] v
    Every product is dealiased.
    """
    def T(f):
        return tilbert(f, grid)

    def prod(a, b):
        return dealias(a * b, grid)

    f, g = u.real, v.real
    res1 = np.max(np.abs(prod(f, T(g)) + prod(T(f), g)
                         - T(prod(f, g) - prod(T(f), T(g)))))
    inner = T(prod(u, v)) - prod(np.conj(u), T(v)) - prod(T(np.conj(u)), v)
    diff = project(dealias(inner, grid), grid, "holo") - prod(T(u), v)
    return float(res1), float(np.max(np.abs(diff - np.mean(diff))))


def tilde_pair(n, x, e, symbols, exp):
    """(A~, B~) at the plane points (x, e) off the lines, from the seven
    symbols ``symbols(xi, eta)`` and the exponential ``exp``.

    B~ is symmetrized over all permutations of (xi, eta, zeta), A~ over its
    two potential slots (the first coordinate carries the position
    variable); both are then reflection-symmetrized, s(p) -> -s(-p).
    """
    z = -(x + e)

    def B(u, v):
        w = -(u + v)
        S = symbols(u, v)
        return (exp(2 * w) - 1) * w ** (2 * n) * (S[1] + exp(2 * v) * S[4])

    def A(zw, u, v):
        S, T, Da = symbols(u, v), symbols(zw, v), symbols(v, zw)[6]
        return (zw ** (2 * n) * (exp(2 * zw) - 1) * (S[2] + exp(2 * v) * S[5])
                + u ** (2 * n + 1) * (exp(2 * u) + 1)
                * (T[0] + exp(2 * v) * T[3] + exp(2 * zw) * Da))

    At = (A(z, x, e) + A(z, e, x) - A(-z, -x, -e) - A(-z, -e, -x)) / 4
    Bt = sum(B(u, v) - B(-u, -v) for u, v in (
        (x, e), (e, x), (x, z), (z, x), (e, z), (z, e))) / 12
    return At, Bt


def tilde_symbols(n, xi, eta):
    """Symmetrized cubic-energy symbols (A~, B~) at (xi, eta), scalars or
    arrays that broadcast.

    They factor as xi eta zeta times a bounded symbol, so within 1e-12 of a
    resonance line the analytic zero is written in.  Off the lines the
    symmetrization cancels O(1) terms down to the O(distance) result, and
    their e^{2 zeta} factors make a lattice sum lose accuracy as kappa band
    grows (kappa = 2 pi h / L, band = N // 3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    off = np.minimum(np.minimum(np.abs(xi), np.abs(eta)),
                     np.abs(xi + eta)) >= 1e-12
    A = np.zeros(xi.shape, dtype=complex)
    B = np.zeros(xi.shape, dtype=complex)
    A[off], B[off] = tilde_pair(n, xi[off], eta[off], _symbols, np.exp)
    return A[()], B[()]


def trilinear_eval(symbol, f1, f2, f3, grid):
    """Discrete trilinear form L Re sum s(xi, eta, zeta) c1 c2 c3.

    ``symbol(xi, eta, zeta)`` takes arrays that broadcast to the lattice
    (xi a column, eta a row) at the physical wavenumbers xi = 2 pi j / L of
    the dealiased band, with zeta = -(xi + eta).  The factor L makes the
    constant symbol 1 on real fields the quadrature of f1 f2 f3.  Output
    modes past the band but resolved by the grid must carry below 1e-12 of
    the spectral mass, or ValueError is raised.
    """
    band = dealias_band(grid)
    size = 2 * band + 1
    f1, f2, f3 = (np.asarray(f, dtype=complex) for f in (f1, f2, f3))
    c1, c2 = (_band_coeffs(f, grid, band) for f in (f1, f2))
    # third coefficient at zeta = -m for m = j + k in -2 band .. 2 band
    m = np.arange(-2 * band, 2 * band + 1)
    c3 = np.where(np.abs(m) <= grid.N // 2,
                  to_spectrum(f3)[grid.neg_index][m % grid.N], 0.0)
    inband = np.abs(m) <= band
    xi = (2.0 * np.pi / grid.L) * np.arange(-band, band + 1)[:, None]
    S = np.asarray(symbol(xi, xi.T, -(xi + xi.T)), dtype=complex)
    total = grid.L * _hankel_form(
        sliding_window_view(np.where(inband, c3, 0.0), size), S, c1, c2)
    a1, a2, a3 = np.abs(c1), np.abs(c2), np.abs(c3)
    kept, dropped = (_hankel_form(sliding_window_view(a, size), 1.0, a1, a2)
                     for a in (np.where(inband, a3, 0.0),
                               np.where(inband, 0.0, a3)))
    if dropped > 1e-12 * max(kept, 1e-300):
        raise ValueError(
            f"unresolved output modes carry {dropped:.3e} of spectral mass")
    return total


def high_forms(n, diag):
    """High-frequency forms (B_high, A_high) of the normal-form energy.

    n = 1:  B_high = <W, W>_{-4 Re W + 1/2 (1+T^2) Re W}
            A_high = -<R, T^{-1} R_alpha>_{-4 Re W - 1/2 (1+T^2) Re W}
                     - 2 <R W, T^{-1} R_alpha>
    n = 2:  the weighted forms with d W, d R and weight coefficient
            -8 Re W.  The cross term -2 <W d R, T^{-1} d R_alpha> and the
            transfer term + 2 <W R_alpha, T^{-1} d R_alpha> cancel, since
            d R = R_alpha, so neither is evaluated.
    """
    grid, bW, R = diag.grid, diag.bW, diag.R
    dn = _rung(n, grid)
    smooth = smooth_one_plus_T2(bW.real, grid)
    wplus = -4.0 * n * bW.real + 0.5 * smooth
    wminus = -4.0 * n * bW.real - 0.5 * smooth
    wd, rd = dn(bW), dn(R)
    Tird = inv_tilbert(deriv(rd, grid), grid)
    B_high = inner_h(wd, wd, grid, wplus)
    A_high = -inner_h(rd, Tird, grid, wminus)
    if n == 1:
        A_high -= 2.0 * inner_h(dealias(bW * rd, grid), Tird, grid)
    return B_high, A_high


def _regauged(state, dt, Wn, Qn):
    return state.with_fields(*_regauge(Wn, Qn, state.grid), t=state.t + dt)


def _shift(u, c, k):
    """The pair u + c k, field by field."""
    return [a + c * b for a, b in zip(u, k)]


def classical_rk4(state, dt):
    """One classical RK4 step on ``rhs_full``, re-projected."""
    def f(u):
        return rhs_full(state.with_fields(*u))

    u = [state.W, state.Q]
    k1 = f(u)
    k2 = f(_shift(u, 0.5 * dt, k1))
    k3 = f(_shift(u, 0.5 * dt, k2))
    k4 = f(_shift(u, dt, k3))
    return _regauged(state, dt, *(
        v + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for v, a, b, c, d in zip(u, k1, k2, k3, k4)))


def lawson_rk4(state, dt):
    """One Lawson RK4 step, re-projected: classical RK4 on the nonlinear
    remainder N = rhs_full - (-Q_alpha, g T W) in the frame of the linear
    flow E(t) = exp(M t), each E applied to the spectra of (W, Q) as
    (c W^ + a12 Q^, a21 W^ + c Q^)."""
    grid, g = state.grid, state.g

    def n(u):
        fW, fQ = rhs_full(state.with_fields(*u))
        return [fW + deriv(u[1], grid), fQ - g * tilbert(u[0], grid)]

    def E(t, u):
        c, a12, a21 = _linear_propagator(grid, g, t)
        cW, cQ = (to_spectrum(v) for v in u)
        return [from_spectrum(c * cW + a12 * cQ),
                from_spectrum(a21 * cW + c * cQ)]

    u = [state.W, state.Q]
    k1 = n(u)
    k2 = n(_shift(E(0.5 * dt, u), 0.5 * dt, E(0.5 * dt, k1)))
    k3 = n(_shift(E(0.5 * dt, u), 0.5 * dt, k2))
    k4 = n(_shift(E(dt, u), dt, E(0.5 * dt, k3)))
    return _regauged(state, dt, *(
        v + dt / 6.0 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip(
            E(dt, u), E(dt, k1), E(0.5 * dt, k2), E(0.5 * dt, k3), k4)))
