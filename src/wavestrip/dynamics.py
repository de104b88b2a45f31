"""Water-wave vector fields and derived physical quantities.

States are pairs of holomorphic traces: ``(W, Q)`` (surface position offset
and velocity potential) for the full system

    W_t + F (1 + W_alpha) = 0
    Q_t + F Q_alpha - g T[W] + P[ |Q_alpha|^2 / J ] = 0,

with ``J = |1 + W_alpha|^2`` and transport speed
``F = P[(Q_alpha - conj(Q_alpha)) / J]``, and the diagonal pair
``(bW, R) = (W_alpha, Q_alpha / (1 + W_alpha))`` for the quasilinear system

    bW_t + b bW_alpha + (1+bW)/(1+conj(bW)) R_alpha = (1+bW) M
    R_t + b R_alpha = i (g bW - frak_a) / (1 + bW).

All nonlinear products are evaluated pointwise in physical space and
dealiased (2/3 rule); rational factors are never series-expanded since J is
bounded away from zero on valid states (:func:`require_valid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (SpectralGrid, dealias, deriv, inv_tilbert, lh_apply,
                   smooth_one_plus_T2, tilbert)
from .holo import inner_h, pair_form, project, weighted_inner

__all__ = [
    "InvalidState",
    "require_valid",
    "WaveState",
    "DiagState",
    "Coefficients",
    "coefficients",
    "diag_of",
    "rhs_full",
    "rhs_diag",
    "taylor_field",
    "energy",
    "momentum",
    "energy_gradient",
    "momentum_gradient",
    "hamiltonian_vf",
    "momentum_vf",
    "structure_matrix_apply",
    "skew_check",
    "rhs_linearized",
    "model_energies",
    "scale_state",
]


def _samples(values, grid: SpectralGrid) -> np.ndarray:
    """Contiguous complex128 samples of one field, checked against the grid."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.complex128))
    if v.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} samples, got {v.shape}")
    return v


class InvalidState(ValueError):
    """Samples that break the validity rule; the message is the reason."""


def require_valid(grid: SpectralGrid, slope, finite, W=None) -> None:
    """The validity rule of a state: raise :class:`InvalidState` if it fails.

    ``slope`` is W_alpha (a non-finite W makes it nan), or bW for a diagonal
    state, which has no ``W`` and so no bottom; ``finite`` holds the others.
    """
    J_min = float(np.min(np.abs(1.0 + slope) ** 2))
    if not (np.isfinite(J_min) and all(np.isfinite(f).all() for f in finite)):
        raise InvalidState("non-finite field values")
    if not J_min >= 1e-12:
        raise InvalidState(f"degenerate parametrization (min J = {J_min:.3e})")
    if W is not None and not np.min(W.imag) > -grid.h:
        raise InvalidState("surface touched the bottom")


@dataclass(frozen=True)
class WaveState:
    """Position/potential samples (W, Q) on one grid, with gravity and time.

    The depth is ``grid.h``.  Invalid samples raise :class:`InvalidState`.
    """

    grid: SpectralGrid
    W: np.ndarray
    Q: np.ndarray
    g: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "W", _samples(self.W, self.grid))
        object.__setattr__(self, "Q", _samples(self.Q, self.grid))
        if not self.g > 0:
            raise ValueError("g must be positive")
        # an infinite sample of W gives nan slopes, which the rule reports
        with np.errstate(invalid="ignore"):
            Wa = deriv(self.W, self.grid)
        require_valid(self.grid, Wa, (self.Q,), self.W)

    def with_fields(self, Wv: np.ndarray, Qv: np.ndarray, t: Optional[float] = None) -> "WaveState":
        return WaveState(self.grid, Wv, Qv, self.g,
                         self.t if t is None else t)


@dataclass(frozen=True)
class DiagState:
    """Diagonal samples (bW, R) = (W_alpha, Q_alpha/(1+W_alpha)) on one grid."""

    grid: SpectralGrid
    bW: np.ndarray
    R: np.ndarray
    g: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bW", _samples(self.bW, self.grid))
        object.__setattr__(self, "R", _samples(self.R, self.grid))
        if not self.g > 0:
            raise ValueError("g must be positive")
        require_valid(self.grid, self.bW, (self.bW, self.R))


@dataclass(frozen=True)
class Coefficients:
    """Advection/frequency-shift coefficients of the diagonal system."""

    F: np.ndarray
    b: np.ndarray
    J: np.ndarray
    Y: np.ndarray
    a: np.ndarray
    a1: np.ndarray
    M: np.ndarray
    d: np.ndarray

    @property
    def frak_a(self) -> np.ndarray:
        return self.a + self.a1


def diag_of(state: WaveState) -> DiagState:
    """Exact algebraic map (W, Q) -> (W_alpha, Q_alpha/(1+W_alpha))."""
    grid = state.grid
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    R = dealias(Qa / (1.0 + Wa), grid)
    return DiagState(grid, dealias(Wa, grid), R, state.g, state.t)


def coefficients(grid: SpectralGrid, g: float, bW: np.ndarray,
                 R: np.ndarray) -> Coefficients:
    """All coefficient fields of the diagonal system, dealiased.

    ``b`` is computed from the diagonal variables as 2 Re[R - P[R conj(Y)]];
    ``F = b - conj(Q_alpha)/J`` is the same transport speed appearing in the
    full system.  The zero mode of the projections follows the global gauge
    (constants split evenly), so F and b are fixed only up to the constant
    that a horizontal-translation gauge would move around.
    """
    one_pW = 1.0 + bW
    J = np.abs(one_pW) ** 2
    Y = bW / one_pW
    Ybar = np.conj(Y)
    b = 2.0 * np.real(R - project(dealias(R * Ybar, grid), grid, "holo"))
    b = dealias(b, grid)
    # Q_alpha/J = R/(1+conj(bW)); F = b - conj(Q_alpha)/J = b - conj(R/(1+conj(bW)))
    F = dealias(b - np.conj(R) / one_pW, grid)
    Ra = deriv(R, grid)
    a = 2.0 * np.imag(project(dealias(R * np.conj(Ra), grid), grid, "holo"))
    a = dealias(a, grid)
    a1 = g * smooth_one_plus_T2(bW.real, grid)
    Ya = deriv(Y, grid)
    M = 2.0 * np.real(project(dealias(R * np.conj(Ya) - np.conj(Ra) * Y, grid),
                              grid, "holo"))
    M = dealias(M, grid)
    d = dealias(Ra / np.conj(one_pW), grid)
    return Coefficients(F=F, b=b, J=J, Y=Y, a=a, a1=a1, M=M, d=d)


def _real_mean_projection(u: np.ndarray, grid: SpectralGrid):
    """P[u] with its cell mean pinned real, and the imaginary constant removed.

    Depth-gauge convention of the transport speed F = P[(Q_a - conj Q_a)/J]
    and of its linearization: the projection assigns F a complex cell mean,
    and an imaginary constant times a holomorphic trace is not a holomorphic
    trace, so keeping it would push the flow off the constraint manifold at
    O(eps^3) per unit time.  Pinning the zero mode of F to be real (the one
    free convention constant of the periodic cell) keeps the right-hand side
    exactly class-preserving.
    """
    p = project(dealias(u, grid), grid, "holo")
    ci = 1j * float(np.mean(p).imag)
    return p - ci, ci


def rhs_full(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (W_t, Q_t) of the full system."""
    grid = state.grid
    g = state.g
    Wv, Qv = state.W, state.Q
    Wa = deriv(Wv, grid)
    Qa = deriv(Qv, grid)
    one_pW = 1.0 + Wa
    J = np.abs(one_pW) ** 2
    F, _ = _real_mean_projection((Qa - np.conj(Qa)) / J, grid)
    Wt = -dealias(F * one_pW, grid)
    Qt = (-dealias(F * Qa, grid) + g * tilbert(Wv, grid)
          - project(dealias(np.abs(Qa) ** 2 / J, grid), grid, "holo"))
    return dealias(Wt, grid), dealias(Qt, grid)


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


def taylor_field(state: WaveState) -> tuple[np.ndarray, float, float, float]:
    """Taylor-sign field g + frak_a with its certified lower bound.

    Returns ``(field, min value, c, g(c+h))`` where ``c = min Im W``.  The
    coefficients are taken at ``W_alpha`` as sampled (not dealiased) and
    ``R = dealias(Q_alpha / (1 + W_alpha))``.
    """
    grid = state.grid
    g = state.g
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    c = coefficients(grid, g, Wa, dealias(Qa / (1.0 + Wa), grid))
    field = g + c.frak_a
    cmin = float(np.min(state.W.imag))
    return field, float(np.min(field)), cmin, g * (cmin + state.grid.h)


def energy(state: WaveState) -> tuple[float, float]:
    """Hamiltonian energy in both displayed forms (they agree analytically).

    E = g/4 <W,W> - 1/4 <Q, T^{-1} Q_alpha> + cubic, with the cubic term
    either g/2 <W W_alpha, W> or g/2 integral (Im W)^2 Re W_alpha d alpha.
    """
    grid = state.grid
    g = state.g
    Wv, Qv = state.W, state.Q
    Qa = deriv(Qv, grid)
    quad = (0.25 * g * inner_h(Wv, Wv, grid)
            - 0.25 * inner_h(Qv, inv_tilbert(Qa, grid), grid))
    WWa = dealias(Wv * deriv(Wv, grid), grid)
    cubic_inner = 0.5 * g * inner_h(WWa, Wv, grid)
    cubic_quad = 0.5 * g * float(
        np.sum(Wv.imag ** 2 * deriv(Wv, grid).real) * grid.L / grid.N)
    return quad + cubic_inner, quad + cubic_quad


def momentum(state: WaveState) -> float:
    """Horizontal momentum I = 1/2 <W, T^{-1} Q_alpha>."""
    grid = state.grid
    Qa = deriv(state.Q, grid)
    return 0.5 * inner_h(state.W, inv_tilbert(Qa, grid), grid)


def energy_gradient(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Variational gradient dE = (W + W W_alpha - T^{-1} P[conj(W) T[W_alpha]], Q)."""
    grid = state.grid
    Wv = state.W
    Wa = deriv(Wv, grid)
    corr = inv_tilbert(project(dealias(np.conj(Wv) * tilbert(Wa, grid), grid),
                               grid, "holo"), grid)
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
                    * project(dealias((wa - np.conj(wa)) / J, grid), grid, "holo"),
                    grid)


def _op_B(frame, q: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    _, Qa, J = frame
    qa = deriv(q, grid)
    term1 = -dealias(Qa * project(dealias((qa - np.conj(qa)) / J, grid),
                                  grid, "holo"), grid)
    mix = (project(dealias(np.conj(Qa) * qa, grid), grid, "holo")
           + project(dealias(Qa * np.conj(qa), grid), grid, "anti"))
    term2 = -project(dealias(mix / J, grid), grid, "holo")
    return term1 + term2


def _op_C(frame, w: np.ndarray, g: float, grid: SpectralGrid) -> np.ndarray:
    Wa, _, J = frame
    mix = (project(dealias((1.0 + np.conj(Wa)) * tilbert(w, grid), grid),
                   grid, "holo")
           + project(dealias((1.0 + Wa) * tilbert(np.conj(w), grid), grid),
                     grid, "anti"))
    return g * project(dealias(mix / J, grid), grid, "holo")


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
    mu2 = np.mean(project(arg, grid, "holo"))
    inner = (tilbert(dealias(Wv * Wa, grid), grid) - arg
             - dealias(tilbert(np.conj(Wv), grid) * Wa, grid))
    gerbil = (project(dealias(inner, grid), grid, "holo")
              - dealias(tilbert(Wv, grid) * Wa, grid))
    gamma1 = np.mean(gerbil)
    return 2.0 * float(np.real(gamma1 + mu2))


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
    corr = state.g * c * project(dealias(1.0 / J, grid), grid, "holo")
    _, ci = _real_mean_projection((Qa - np.conj(Qa)) / J, grid)
    dW = dW + ci * (1.0 + Wa)
    dQ = dQ - corr + ci * Qa
    # every pairing in the structure route is blind to additive constants in
    # Q, so the zero mode of the Q row is a convention, not a prediction;
    # take it from the evolution equations
    return dW, dQ - np.mean(dQ) + np.mean(rhs_full(state)[1])


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
    m_r = float(np.mean((1.0 + np.conj(Wa)) / J).real) - 1.0
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
    num = abs(form(MX, Y) + form(X, MY))
    nX = np.sqrt(max(form(X, X), 0.0))
    nY = np.sqrt(max(form(Y, Y), 0.0))
    return num / (nX * nY) if nX * nY > 0 else num


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
    F, _ = _real_mean_projection((Qa - np.conj(Qa)) / J, grid)
    wa = deriv(w, grid)
    qa = deriv(q, grid)
    m = (qa - R * wa) / J + np.conj(R) * wa / one_pW ** 2
    n = np.conj(R) * (qa - R * wa) / one_pW
    # linearization of the real-zero-mode gauge applied to F above
    Pm, _ = _real_mean_projection(m - np.conj(m), grid)
    Pn = project(dealias(n + np.conj(n), grid), grid, "holo")
    wt = -dealias(F * wa, grid) - dealias(Pm * one_pW, grid)
    qt = (-dealias(F * qa, grid) - dealias(Pm * Qa, grid)
          + g * tilbert(w, grid) - Pn)
    return dealias(wt, grid), dealias(qt, grid)


def scale_state(state: WaveState, lam: float) -> WaveState:
    """Spatial scaling symmetry of the system (time is untouched).

    (W, Q)(x) -> (lam^{-1} W(lam x), lam^{-2} Q(lam x)) together with
    (g, h, L) -> (g/lam, h/lam, L/lam) maps solutions to solutions with the
    same time parametrization: frequencies scale as xi -> lam xi, so
    h xi and the dispersion g xi tanh(h xi) are both invariant.  On the
    uniform grid the dilated samples coincide with the original ones, so
    for dyadic lam the two evolutions agree exactly in floating point.

    (The velocity potential carries the square: Q has dimensions of
    length^2 / time, and time is not rescaled.)
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    grid = state.grid
    new_grid = SpectralGrid(grid.L / lam, grid.N, grid.h / lam)
    return WaveState(new_grid, state.W / lam, state.Q / lam ** 2,
                     state.g / lam, t=state.t)


def model_energies(state: DiagState, pair, omega=None) -> tuple[float, float]:
    """Adapted quadratic energies of the linearized flow.

    E2_lin       = <w, w>_{g + frak_a} + <L r, L r>
    E2_omega_lin = <w, w>_{(g + frak_a) omega} + <L r, L r>_omega
    """
    grid = state.grid
    c = coefficients(grid, state.g, state.bW, state.R)
    w, r = (np.asarray(p, dtype=np.complex128) for p in pair)
    weight = state.g + c.frak_a
    Lr = lh_apply(r, grid)
    e2 = weighted_inner(w, w, weight, grid) + inner_h(Lr, Lr, grid)
    if omega is None:
        omega = np.ones(grid.N)
    omega = np.asarray(omega, dtype=float)
    e2w = (weighted_inner(w, w, weight * omega, grid)
           + weighted_inner(Lr, Lr, omega, grid))
    return e2, e2w
