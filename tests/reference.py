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
* ``pair_form`` is the energy pairing of two (w, q) pairs, the form of the
  trace-space energy norm.
* ``rhs_diag`` is the diagonal system's right-hand side, a second route to
  ``dynamics.rhs_full`` through ``dynamics.diag_of``.
* The Hamiltonian structure routes to ``dynamics.rhs_full``:
  ``energy_gradient`` and ``momentum_gradient`` are the variational
  gradients dE and dI; ``structure_matrix_apply`` applies the structure
  matrix [[0, A], [C, B]] (``_frame``, ``_op_A``, ``_op_B``, ``_op_C``,
  ``_structure``); ``hamiltonian_vf`` and ``momentum_vf`` apply it to dE
  and dI, with the cell's zero-mode corrections
  (``_zero_mode_anomaly_energy``); ``skew_check`` measures its
  skew-adjointness under ``pair_form``.
* ``rhs_linearized`` is the linearization of ``dynamics.rhs_full``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wavestrip.grid import (SpectralGrid, dealias, dealias_band, deriv,
                            from_spectrum, inv_tilbert, lh_apply,
                            smooth_one_plus_T2, tilbert, to_spectrum)
from wavestrip.holo import holo_from_real, inner_h, project
from wavestrip.dynamics import (DiagState, WaveState, _real_mean_projection,
                                coefficients, rhs_full)
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
    diff = project(dealias(inner, grid), grid) - prod(T(u), v)
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
    c1, c2 = (_band_coeffs(f, grid) for f in (f1, f2))
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


def pair_form(p1, p2, g: float, grid: SpectralGrid) -> float:
    """Energy pairing g/2 <w1, w2> + 1/2 <L_h q1, L_h q2> of two (w, q) pairs;
    twice its value on one pair is the squared energy norm ||(w, q)||_H^2."""
    (w1, q1), (w2, q2) = p1, p2
    return (0.5 * g * inner_h(w1, w2, grid)
            + 0.5 * inner_h(lh_apply(q1, grid), lh_apply(q2, grid), grid))


def rhs_diag(state: DiagState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (bW_t, R_t) of the diagonal system."""
    grid = state.grid
    bW, R = state.bW, state.R
    c = coefficients(grid, state.g, bW, R)
    one_pW = 1.0 + bW
    bWa = deriv(bW, grid)
    Ra = deriv(R, grid)
    bWt = (-dealias(c.b * bWa, grid)
           - dealias(one_pW / np.conj(one_pW) * Ra, grid)
           + dealias(one_pW * c.M, grid))
    Rt = (-dealias(c.b * Ra, grid)
          + dealias(1j * (state.g * bW - c.frak_a) / one_pW, grid))
    return dealias(bWt, grid), dealias(Rt, grid)


def energy_gradient(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Variational gradient dE = (W + W W_alpha - T^{-1} P[conj(W) T[W_alpha]], Q)."""
    grid = state.grid
    Wv = state.W
    Wa = deriv(Wv, grid)
    corr = inv_tilbert(project(dealias(np.conj(Wv) * tilbert(Wa, grid), grid),
                               grid), grid)
    gW = Wv + dealias(Wv * Wa, grid) - corr
    return dealias(gW, grid), state.Q.copy()


def _frame(state: WaveState):
    """(W_alpha, Q_alpha, J) at ``state``: what every structure operator reads."""
    grid = state.grid
    Wa = deriv(state.W, grid)
    return Wa, deriv(state.Q, grid), np.abs(1.0 + Wa) ** 2


def _op_A(frame, w: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    Wa, _, J = frame
    wa = deriv(w, grid)
    return -dealias((1.0 + Wa)
                    * project(dealias((wa - np.conj(wa)) / J, grid), grid),
                    grid)


def _project_anti(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The antiholomorphic projection 1 - P."""
    return f - project(f, grid)


def _op_B(frame, q: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    _, Qa, J = frame
    qa = deriv(q, grid)
    term1 = -dealias(Qa * project(dealias((qa - np.conj(qa)) / J, grid),
                                  grid), grid)
    mix = (project(dealias(np.conj(Qa) * qa, grid), grid)
           + _project_anti(dealias(Qa * np.conj(qa), grid), grid))
    term2 = -project(dealias(mix / J, grid), grid)
    return term1 + term2


def _op_C(frame, w: np.ndarray, g: float, grid: SpectralGrid) -> np.ndarray:
    Wa, _, J = frame
    mix = (project(dealias((1.0 + np.conj(Wa)) * tilbert(w, grid), grid),
                   grid)
           + _project_anti(dealias((1.0 + Wa) * tilbert(np.conj(w), grid),
                                   grid), grid))
    return g * project(dealias(mix / J, grid), grid)


def _structure(state: WaveState, frame, pair) -> tuple[np.ndarray, np.ndarray]:
    w, q = (np.asarray(p, dtype=np.complex128) for p in pair)
    grid = state.grid
    return (_op_A(frame, q, grid),
            _op_C(frame, w, state.g, grid) + _op_B(frame, q, grid))


def structure_matrix_apply(state: WaveState, pair) -> tuple[np.ndarray, np.ndarray]:
    """Apply the Hamiltonian structure matrix [[0, A], [C, B]] at ``state``."""
    return _structure(state, _frame(state), pair)


def momentum_gradient(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Variational gradient of the momentum: dI = (g^{-1} T^{-1} Q_alpha, -W)."""
    grid = state.grid
    Qa = deriv(state.Q, grid)
    return inv_tilbert(Qa, grid) / state.g, -state.W.copy()


def _zero_mode_anomaly_energy(state: WaveState, Wa: np.ndarray) -> float:
    """Gauge constant leaking into C[dE_W] on the periodic cell.

    Two zero modes with no decaying-line counterpart enter the structure
    route: T T^{-1} drops the mean mu2 of P[conj(W) T W_alpha] inside the
    gradient, and the projected product identity at (W, W_alpha) holds only
    up to an additive constant gamma1.  Both constants end up divided by the
    non-constant J, so they contribute a genuinely non-constant O(eps^3)
    artifact c P[1/J] with c = 2 Re(gamma1 + mu2); subtracting c from the
    numerator of C removes it exactly (verified to O(eps^5) residual).
    """
    grid = state.grid
    Wv = state.W
    TWa = tilbert(Wa, grid)
    arg = dealias(np.conj(Wv) * TWa, grid)
    mu2 = np.mean(project(arg, grid), axis=-1, keepdims=True)
    inner = (tilbert(dealias(Wv * Wa, grid), grid) - arg
             - dealias(tilbert(np.conj(Wv), grid) * Wa, grid))
    gerbil = (project(dealias(inner, grid), grid)
              - dealias(tilbert(Wv, grid) * Wa, grid))
    gamma1 = np.mean(gerbil, axis=-1, keepdims=True)
    return 2.0 * np.real(gamma1 + mu2)


def hamiltonian_vf(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Vector field via the structure matrix applied to the energy gradient.

    Includes the periodic zero-mode gauge correction (see
    :func:`_zero_mode_anomaly_energy`); without it the route differs from
    :func:`rhs_full` by a non-constant O(eps^3) artifact of the cell's zero
    mode, which has no counterpart in the decaying-line calculus.  The
    transport speed's mean is pinned real as in :func:`rhs_full`.
    """
    grid = state.grid
    frame = _frame(state)
    Wa, Qa, J = frame
    dW, dQ = _structure(state, frame, energy_gradient(state))
    c = _zero_mode_anomaly_energy(state, Wa)
    corr = state.g * c * project(dealias(1.0 / J, grid), grid)
    p = project(dealias((Qa - np.conj(Qa)) / J, grid), grid)
    ci = 1j * (p.sum(axis=-1, keepdims=True) / grid.N).imag
    dW = dW + ci * (1.0 + Wa)
    dQ = dQ - corr + ci * Qa
    # every pairing in the structure route is blind to additive constants in
    # Q, so the zero mode of the Q row is a convention, not a prediction;
    # take it from the evolution equations
    return dW, (dQ - np.mean(dQ, axis=-1, keepdims=True)
                + np.mean(rhs_full(state)[1], axis=-1, keepdims=True))


def momentum_vf(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Structure matrix applied to the momentum gradient; equals (W_alpha, Q_alpha).

    The periodic zero-mode anomaly of this route collapses to the single real
    constant m_r = Re mean(1/(1+W_alpha)) - 1 (the cell mean the projections
    assign to the antiholomorphic side), multiplying the target itself:
    removing m_r (1 + W_alpha) from the first row and m_r Q_alpha from the
    second closes the identity to round-off at every amplitude.
    """
    frame = _frame(state)
    Wa, Qa, J = frame
    m_r = np.mean((1.0 + np.conj(Wa)) / J, axis=-1, keepdims=True).real - 1.0
    rw, rq = _structure(state, frame, momentum_gradient(state))
    return rw - m_r * (1.0 + Wa), rq - m_r * Qa


def skew_check(state: WaveState, X, Y) -> float:
    """Normalized skew-adjointness defect of the frozen structure matrix.

    The reference bilinear form is g/2 <.,.> + 1/2 <L., L.> on pairs.
    """
    grid = state.grid

    def form(p1, p2):
        return pair_form(p1, p2, state.g, grid)

    MX = structure_matrix_apply(state, X)
    MY = structure_matrix_apply(state, Y)
    num = np.abs(form(MX, Y) + form(X, MY))
    nXY = np.sqrt(form(X, X)) * np.sqrt(form(Y, Y))
    return num / np.where(nXY > 0, nXY, 1.0)


def rhs_linearized(state: WaveState, pair) -> tuple[np.ndarray, np.ndarray]:
    """Linearization of the full system around ``state`` applied to (w, q)."""
    grid = state.grid
    g = state.g
    w, q = (np.asarray(p, dtype=np.complex128) for p in pair)
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    one_pW = 1.0 + Wa
    J = np.abs(one_pW) ** 2
    R = Qa / one_pW
    F = _real_mean_projection((Qa - np.conj(Qa)) / J, grid)
    wa = deriv(w, grid)
    qa = deriv(q, grid)
    m = (qa - R * wa) / J + np.conj(R) * wa / one_pW ** 2
    n = np.conj(R) * (qa - R * wa) / one_pW
    # linearization of the real-zero-mode gauge applied to F above
    Pm = _real_mean_projection(m - np.conj(m), grid)
    Pn = project(dealias(n + np.conj(n), grid), grid)
    wt = -dealias(F * wa, grid) - dealias(Pm * one_pW, grid)
    qt = (-dealias(F * qa, grid) - dealias(Pm * Qa, grid)
          + g * tilbert(w, grid) - Pn)
    return dealias(wt, grid), dealias(qt, grid)
