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
from .holo import inner_h, project

__all__ = [
    "InvalidState",
    "require_valid",
    "WaveState",
    "stack_states",
    "unstack",
    "DiagState",
    "Coefficients",
    "coefficients",
    "diag_of",
    "rhs_full",
    "taylor_field",
    "energy",
    "momentum",
    "model_energies",
    "scale_state",
]


def _samples(values, grid: SpectralGrid) -> np.ndarray:
    """Contiguous complex128 samples of one field, shaped (N,), or of a
    stack of B >= 1 fields, shaped (B, N); checked against the grid."""
    v = np.ascontiguousarray(np.asarray(values, dtype=np.complex128))
    if v.ndim not in (1, 2) or v.shape[-1] != grid.N or v.size == 0:
        raise ValueError(f"expected {grid.N} samples or a stack of them, "
                         f"got {v.shape}")
    return v


class InvalidState(ValueError):
    """Samples that break the validity rule; the message is the reason.

    ``member`` is the index of the failing member of a stack, the lowest
    when several fail, and None for a single state.
    """

    def __init__(self, reason: str, member: Optional[int] = None):
        super().__init__(reason)
        self.member = member


def require_valid(grid: SpectralGrid, slope, finite, W=None) -> None:
    """The validity rule of a state: raise :class:`InvalidState` if it fails.

    ``slope`` is W_alpha (a non-finite W makes it nan), or bW for a diagonal
    state, which has no ``W`` and so no bottom; ``finite`` holds the others.
    Each member of a stack is checked on its own, and the lowest-index
    failing member is reported with its first failing reason.
    """
    # squaring is monotone, so the square of the least |1 + slope| is min J
    J_min = np.square(np.abs(1.0 + slope).min(axis=-1))
    finite_ok = np.isfinite(J_min)
    for f in finite:
        finite_ok = finite_ok & np.isfinite(f).all(axis=-1)
    ok = finite_ok & (J_min >= 1e-12)
    if W is not None:
        ok = ok & (W.imag.min(axis=-1) > -grid.h)
    if ok.all():
        return
    member = None
    if ok.ndim:
        member = int(np.argmin(ok))
        J_min, finite_ok = J_min[member], finite_ok[member]
    if not finite_ok:
        raise InvalidState("non-finite field values", member)
    if not J_min >= 1e-12:
        raise InvalidState(f"degenerate parametrization (min J = "
                           f"{float(J_min):.3e})", member)
    raise InvalidState("surface touched the bottom", member)


@dataclass(frozen=True)
class WaveState:
    """Position/potential samples (W, Q) on one grid, with gravity and time.

    The depth is ``grid.h``.  W and Q are shaped (N,), or (B, N) for a
    stack of B members that share the grid, g and t and evolve together;
    see :func:`stack_states` and :func:`unstack`.  Invalid samples raise
    :class:`InvalidState`.
    """

    grid: SpectralGrid
    W: np.ndarray
    Q: np.ndarray
    g: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "W", _samples(self.W, self.grid))
        object.__setattr__(self, "Q", _samples(self.Q, self.grid))
        if self.W.shape != self.Q.shape:
            raise ValueError(f"W and Q shapes differ: {self.W.shape} and "
                             f"{self.Q.shape}")
        if not self.g > 0:
            raise ValueError("g must be positive")
        # an infinite sample of W gives nan slopes, which the rule reports
        with np.errstate(invalid="ignore"):
            Wa = deriv(self.W, self.grid)
        require_valid(self.grid, Wa, (self.Q,), self.W)

    def with_fields(self, Wv: np.ndarray, Qv: np.ndarray, t: Optional[float] = None) -> "WaveState":
        return WaveState(self.grid, Wv, Qv, self.g,
                         self.t if t is None else t)


def stack_states(states) -> WaveState:
    """One stack of the single-member ``states``, which share one grid, g
    and t; a lone state is returned as it is."""
    first = states[0]
    if len(states) == 1:
        return first
    if any((s.grid, s.g, s.t) != (first.grid, first.g, first.t)
           or s.W.ndim != 1 for s in states):
        raise ValueError("a stack takes single members on one grid with "
                         "one g and t")
    return WaveState(first.grid, np.stack([s.W for s in states]),
                     np.stack([s.Q for s in states]), first.g, first.t)


def unstack(state: WaveState) -> list:
    """The members of a stack as single-member states; a single state is
    its own one member."""
    if state.W.ndim == 1:
        return [state]
    return [WaveState(state.grid, W, Q, state.g, state.t)
            for W, Q in zip(state.W, state.Q)]


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
        if self.bW.shape != self.R.shape:
            raise ValueError(f"bW and R shapes differ: {self.bW.shape} and "
                             f"{self.R.shape}")
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
    b = 2.0 * np.real(R - project(dealias(R * Ybar, grid), grid))
    b = dealias(b, grid)
    # Q_alpha/J = R/(1+conj(bW)); F = b - conj(Q_alpha)/J = b - conj(R/(1+conj(bW)))
    F = dealias(b - np.conj(R) / one_pW, grid)
    Ra = deriv(R, grid)
    a = 2.0 * np.imag(project(dealias(R * np.conj(Ra), grid), grid))
    a = dealias(a, grid)
    a1 = g * smooth_one_plus_T2(bW.real, grid)
    Ya = deriv(Y, grid)
    M = 2.0 * np.real(project(dealias(R * np.conj(Ya) - np.conj(Ra) * Y, grid),
                              grid))
    M = dealias(M, grid)
    d = dealias(Ra / np.conj(one_pW), grid)
    return Coefficients(F=F, b=b, J=J, Y=Y, a=a, a1=a1, M=M, d=d)


def _real_mean_projection(u: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """P[u] with its cell mean pinned real.

    Depth-gauge convention of the transport speed F = P[(Q_a - conj Q_a)/J]
    and of its linearization: the projection assigns F a complex cell mean,
    and an imaginary constant times a holomorphic trace is not a holomorphic
    trace, so keeping it would push the flow off the constraint manifold at
    O(eps^3) per unit time.  Pinning the zero mode of F to be real (the one
    free convention constant of the periodic cell) keeps the right-hand side
    exactly class-preserving.  The mean is taken per member of a stack, as
    ``np.mean`` takes it: the complex sum divided by N.
    """
    p = project(dealias(u, grid), grid)
    ci = 1j * (p.sum(axis=-1, keepdims=True) / grid.N).imag
    p -= ci
    return p


def rhs_full(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (W_t, Q_t) of the full system."""
    grid = state.grid
    g = state.g
    Wv, Qv = state.W, state.Q
    one_pW = deriv(Wv, grid)
    one_pW += 1.0
    Qa = deriv(Qv, grid)
    J = np.abs(one_pW)
    np.square(J, out=J)
    u = np.conj(Qa)
    np.subtract(Qa, u, out=u)
    u /= J
    F = _real_mean_projection(u, grid)
    Wt = dealias(F * one_pW, grid)
    np.negative(Wt, out=Wt)
    u = np.abs(Qa)
    np.square(u, out=u)
    u /= J
    Qt = dealias(F * Qa, grid)
    np.negative(Qt, out=Qt)
    Qt += g * tilbert(Wv, grid)
    Qt -= project(dealias(u, grid), grid)
    return dealias(Wt, grid), dealias(Qt, grid)


def taylor_field(state: WaveState) -> tuple[np.ndarray, float, float, float]:
    """Taylor-sign field g + frak_a with its certified lower bound.

    Returns ``(field, min value, c, g(c+h))`` where ``c = min Im W``; for a
    stack the last three are per member.  The coefficients are taken at
    ``W_alpha`` as sampled (not dealiased) and
    ``R = dealias(Q_alpha / (1 + W_alpha))``.
    """
    grid = state.grid
    g = state.g
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    c = coefficients(grid, g, Wa, dealias(Qa / (1.0 + Wa), grid))
    field = g + c.frak_a
    cmin = np.min(state.W.imag, axis=-1)
    return field, np.min(field, axis=-1), cmin, g * (cmin + grid.h)


def energy(state: WaveState) -> tuple[float, float]:
    """Hamiltonian energy in both forms (equal analytically), per member.

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
    cubic_quad = 0.5 * g * (np.sum(Wv.imag ** 2 * deriv(Wv, grid).real,
                                   axis=-1) * grid.L / grid.N)
    return quad + cubic_inner, quad + cubic_quad


def momentum(state: WaveState) -> float:
    """Horizontal momentum I = 1/2 <W, T^{-1} Q_alpha>, per member."""
    grid = state.grid
    Qa = deriv(state.Q, grid)
    return 0.5 * inner_h(state.W, inv_tilbert(Qa, grid), grid)


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


def model_energies(state: DiagState, pair, omega) -> tuple[float, float]:
    """Adapted quadratic energies of the linearized flow.

    E2_lin       = <w, w>_{g + frak_a} + <L r, L r>
    E2_omega_lin = <w, w>_{(g + frak_a) omega} + <L r, L r>_omega
    """
    grid = state.grid
    c = coefficients(grid, state.g, state.bW, state.R)
    w, r = (np.asarray(p, dtype=np.complex128) for p in pair)
    weight = state.g + c.frak_a
    Lr = lh_apply(r, grid)
    e2 = inner_h(w, w, grid, weight) + inner_h(Lr, Lr, grid)
    omega = np.asarray(omega, dtype=float)
    e2w = (inner_h(w, w, grid, weight * omega)
           + inner_h(Lr, Lr, grid, omega))
    return e2, e2w
