"""Explicit time stepping for the water-wave system, and the shell projection.

Both methods run one RK4 tableau in Lawson form (:func:`step_rk4`): "rk4"
on :func:`~wavestrip.dynamics.rhs_full` with the identity between stages,
and the integrating-factor "ifrk4" with the exact linear propagator

    exp(M_k t),  M_k = [[0, -i xi], [-i g tanh(h xi), 0]],

per Fourier mode between the stages, so the linear oscillation, whose
truncation error otherwise dominates long-time energy drift, is exact and
only the nonlinear remainder sees the RK4 error; long conservation runs
should use it.  After every step the holomorphic projection is re-applied
to the fluctuating part of both fields (zero modes are gauge scalars and
pass through), so states stay holomorphic traces modulo their means.
``project_energy`` adds the projection onto the initial (energy, momentum)
shell, on spectra alone (:func:`_project_to_invariant_shell`).

A step and the shell projection work on the last axis: a stack of B members
takes the FFT calls of one member, and each row equals the single-member
result bit for bit up to the stack size given in :mod:`wavestrip.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .grid import (SpectralGrid, _frozen, dealias, dealias_band, deriv,
                   from_spectrum, tilbert, to_spectrum)
from .holo import flip_combine, parseval_inner, project, project_spectrum
from .dynamics import (InvalidState, WaveState, energy, momentum,
                       require_valid, rhs_full, unstack)

__all__ = [
    "SolverConfig",
    "StepAbort",
    "suggest_dt",
    "step_rk4",
    "evolve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    ``dt`` is used as given; callers wanting CFL-based selection should set
    ``dt = suggest_dt(grid, g, cfl)``; ``T_final`` must round to at least one
    step.  ``method`` is "rk4" (baseline) or "ifrk4" (integrating factor;
    exact linear propagation).
    """

    dt: float
    T_final: float
    observer_stride: int = 1
    method: str = "rk4"
    project_energy: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        # a run of no step would pass every verdict without testing anything
        if not (np.isfinite(self.T_final) and self.n_steps >= 1):
            raise ValueError(f"T_final {self.T_final!r} takes no step of "
                             f"dt {self.dt!r}")
        if self.observer_stride < 1:
            raise ValueError("observer stride must be >= 1")
        if self.method not in ("rk4", "ifrk4"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T_final / self.dt))


class StepAbort(RuntimeError):
    """Raised by :func:`evolve` when a step produces an invalid state.

    Carries the ``reason``, the index of the failed step and the last good
    state; for a stack, the last good state of the failing member (the
    lowest-index one when several fail), as a single-member state.
    """

    def __init__(self, reason: str, step_index: int, last_good: WaveState):
        super().__init__(f"step {step_index}: {reason}")
        self.reason = reason
        self.step_index = step_index
        self.last_good = last_good


def suggest_dt(grid: SpectralGrid, g: float, cfl: float = 1.0) -> float:
    """CFL-limited step from the fastest retained linear mode.

    dt = cfl * 2.8 / omega_max, omega_max = sqrt(g xi_max tanh(h xi_max))
    with xi_max = (2 pi / L) dealias_band(grid), the largest post-dealias
    wavenumber; 2.8 is the extent of the RK4 stability region on the
    imaginary axis.
    """
    if not g > 0:
        raise ValueError("g must be positive")
    if not (0 < cfl <= 1):
        raise ValueError("cfl must be in (0, 1]")
    xi_max = (2.0 * np.pi / grid.L) * dealias_band(grid)
    omega_max = np.sqrt(g * xi_max * np.tanh(grid.h * xi_max))
    return float(cfl * 2.8 / omega_max)


def _omega(grid: SpectralGrid, g: float) -> np.ndarray:
    return np.sqrt(g * grid.xi * grid.tanh)


@lru_cache(maxsize=16)
def _linear_propagator(grid: SpectralGrid, g: float, t: float):
    """Per-mode matrix exp(M t) for the linear system Wt = -Qa, Qt = g T W.

    M^2 = -omega^2 I, so exp(M t) = cos(omega t) I + t sinc(omega t) M; the
    sinc form is exact at the zero mode as well.  Built once per (grid, g, t)
    and read-only: a run at fixed dt reuses two of them.  The real diagonal
    is held as complex128, which multiplies a spectrum without a cast.
    """
    om = _omega(grid, g)
    c = np.cos(om * t).astype(np.complex128)
    s = t * np.sinc(om * t / np.pi)  # sin(om t)/om, valid at om = 0
    m12 = -1j * grid.xi
    m21 = -1j * g * grid.tanh
    prop = (c, s * m12, s * m21)
    for a in prop:
        a.setflags(write=False)
    return prop


def _apply_propagator(prop, Wv, Qv):
    """exp(M t) (Wv, Qv): the spectra (c cW + a12 cQ, a21 cW + c cQ), each
    product rounded as written, combined and transformed back in place."""
    c, a12, a21 = prop
    cW = to_spectrum(Wv)
    cQ = to_spectrum(Qv)
    W = c * cW
    Q = a12 * cQ
    W += Q
    np.multiply(a21, cW, out=Q)
    np.multiply(c, cQ, out=cQ)
    Q += cQ
    return from_spectrum(W, out=W), from_spectrum(Q, out=Q)


def _regauge(Wv: np.ndarray, Qv: np.ndarray, grid: SpectralGrid):
    """Re-project the fluctuating part onto dealiased holomorphic traces.

    Both zero modes pass through as the step produced them: the Re means are
    gauge, and the Im mean of W, which the flow keeps, stays where a state
    starts it (the conformal map's vertical offset).  The means are taken
    per member, as ``np.mean`` takes them: the complex sum divided by N.
    """
    out = []
    for v in (Wv, Qv):
        v0 = v.sum(axis=-1, keepdims=True) / grid.N
        p = project(v - v0, grid, "holo")
        p += v0
        out.append(dealias(p, grid))
    return out[0], out[1]


def _nonlinear_residual_rhs(state: WaveState):
    """rhs_full minus the linear part (used by the integrating factor)."""
    grid = state.grid
    fW, fQ = rhs_full(state)
    fW += deriv(state.Q, grid)
    fQ -= state.g * tilbert(state.W, grid)
    return fW, fQ


def _identity(W, Q):
    return W, Q


def step_rk4(state: WaveState, dt: float, method: str = "rk4") -> WaveState:
    """One RK4 step in Lawson form, re-projected and checked.

    The classical tableau runs on a field between propagators E(dt/2) and
    E(dt): "rk4" takes ``rhs_full`` and the identity, which is classical
    RK4 bit for bit; "ifrk4" its nonlinear remainder and exp(M_k t).
    """
    grid = state.grid
    if method == "rk4":
        field, half, full = rhs_full, _identity, _identity
    elif method == "ifrk4":
        field = _nonlinear_residual_rhs
        half, full = (partial(_apply_propagator,
                              _linear_propagator(grid, state.g, t))
                      for t in (0.5 * dt, dt))
    else:
        raise ValueError(f"unknown method {method!r}")

    def n(W, Q):
        return field(state.with_fields(W, Q))

    Wv, Qv = state.W, state.Q
    k1 = n(Wv, Qv)
    EW, EQ = half(Wv, Qv)
    e1 = half(*k1)
    k2 = n(EW + 0.5 * dt * e1[0], EQ + 0.5 * dt * e1[1])
    k3 = n(EW + 0.5 * dt * k2[0], EQ + 0.5 * dt * k2[1])
    FW, FQ = full(Wv, Qv)
    h3 = half(*k3)
    k4 = n(FW + dt * h3[0], FQ + dt * h3[1])
    e1f = full(*k1)
    h2 = half(*k2)
    h3b = half(*k3)  # = h3; ROADMAP item 2 drops it with the pinned counts
    Wn = FW + dt / 6.0 * (e1f[0] + 2 * h2[0] + 2 * h3b[0] + k4[0])
    Qn = FQ + dt / 6.0 * (e1f[1] + 2 * h2[1] + 2 * h3b[1] + k4[1])

    Wn, Qn = _regauge(Wn, Qn, grid)
    # kept for the pinned FFT counts (with_fields repeats it): ROADMAP item 2
    require_valid(grid, deriv(Wn, grid), (Qn,), Wn)
    return state.with_fields(Wn, Qn, t=state.t + dt)


@lru_cache(maxsize=16)
def _shell_weights(grid: SpectralGrid):
    """:func:`~wavestrip.holo.parseval_inner`'s symbols of the trace inner
    product and of <L_h u, L_h v>, built once per grid."""
    pairs = ((grid.tanh2, 1.0), (grid.tanh2 * grid.lh2, grid.lh2))
    return tuple(tuple(_frozen((0.5 * w).astype(np.complex128))
                       for w in (r + i, r - i)) for r, i in pairs)


def _shell_velocity(grid: SpectralGrid, cQ: np.ndarray) -> np.ndarray:
    """V = T^{-1}(i xi Q^), the spectrum both the momentum and the
    momentum gradient read."""
    return grid.inv_tilbert_symbol * (grid.ixi * cQ)


def _shell_invariants(grid: SpectralGrid, g: float, cW: np.ndarray,
                      cQ: np.ndarray, W: np.ndarray, Wa: np.ndarray,
                      V: np.ndarray):
    """(E, I, D) of a state from the spectra of W and Q, by Parseval:
    :func:`~wavestrip.dynamics.energy`'s first form, the momentum, and the
    spectrum of the dealiased cubic product W W_alpha, the one FFT here,
    from the samples ``W`` and ``Wa`` = W_alpha.  ``V`` is
    :func:`_shell_velocity` of ``cQ``."""
    D = to_spectrum(W * Wa)
    np.multiply(grid.dealias_symbol, D, out=D)
    dW, dV = (flip_combine(c, _shell_weights(grid)[0], grid)
              for c in (cW, V))
    quad = (0.25 * g * parseval_inner(cW, dW, grid)
            - 0.25 * parseval_inner(cQ, dV, grid))
    E = quad + 0.5 * g * parseval_inner(D, dW, grid)
    return E, 0.5 * parseval_inner(V, dW, grid), D


def _shell_gradients(grid: SpectralGrid, g: float, cW: np.ndarray,
                     cQ: np.ndarray, W: np.ndarray, Wa: np.ndarray,
                     D: np.ndarray, V: np.ndarray):
    """Spectra of the energy and momentum gradients, as (w, q) pairs.

    :func:`~wavestrip.dynamics.energy_gradient` and
    :func:`~wavestrip.dynamics.momentum_gradient` at the same state, with D
    and ``V`` as :func:`_shell_invariants` takes them; two FFTs, for
    conj(W) T[W_alpha].
    """
    mask = grid.dealias_symbol
    TWa = grid.tilbert_symbol * (grid.ixi * cW)
    from_spectrum(TWa, out=TWa)
    corr = to_spectrum(np.conj(W) * TWa)
    np.multiply(mask, corr, out=corr)
    corr = grid.inv_tilbert_symbol * project_spectrum(corr, grid, out=corr)
    return (mask * (cW + D - corr), cQ), (V / g, -cW)


def _shell_gram(grads, g: float, grid: SpectralGrid) -> np.ndarray:
    """The 2x2 matrix of :func:`~wavestrip.holo.pair_form` between the two
    (w, q) pairs of spectra ``grads``, by Parseval, one per member."""
    duals = [[flip_combine(c, w, grid)
              for c, w in zip(pair, _shell_weights(grid))] for pair in grads]

    def form(i, j):
        return (0.5 * g * parseval_inner(grads[i][0], duals[j][0], grid)
                + 0.5 * parseval_inner(grads[i][1], duals[j][1], grid))
    mEI = form(1, 0)
    return np.stack([form(0, 0), mEI, mEI, form(1, 1)],
                    -1).reshape(np.shape(mEI) + (2, 2))


def _solve_2x2(M: np.ndarray, rhs: np.ndarray):
    """(ok, x) of a stack of 2x2 systems M x = rhs, entry by entry: x =
    (s b0 - q b1, p b1 - r b0) / det M by Cramer's rule for
    M = [[p, q], [r, s]], and ``ok`` where M's 2-norm condition number,
    (f + sqrt((f - 2 d)(f + 2 d))) / (2 d) with f = ||M||_F^2 and
    d = |det M|, is at most 1e12, compared without the division and rooted
    factor by factor, so no entry is raised past its square.  A singular or
    zero M is refused; its x is finite."""
    m = M.reshape(M.shape[:-2] + (4,))
    p, q, r, s = m[..., 0], m[..., 1], m[..., 2], m[..., 3]
    f, det = p * p + q * q + r * r + s * s, p * s - q * r
    d2 = 2.0 * np.abs(det)
    ok = (f > 0) & (f + np.sqrt(np.abs(f - d2)) * np.sqrt(f + d2) <= 1e12 * d2)
    det = np.where(ok, det, 1.0)[..., None]
    return ok, (m[..., ::-3] * rhs - m[..., 1:3] * rhs[..., ::-1]) / det


def _where(on, new, old):
    """np.where(on, new, old), or ``new`` itself where all of on holds."""
    return new if on.all() else np.where(on, new, old)


def _project_to_invariant_shell(state: WaveState, E_target,
                                I_target) -> WaveState:
    """Project onto the (energy, momentum) level set of the initial state.

    The periodized flow leaves the energy a bounded O(amplitude^2)
    oscillation, so long runs project after every step, in the span of both
    gradients: one alone would shift the other invariant.  Their Gram
    matrix, built once at the incoming state, is only an
    O(amplitude^2)-accurate Jacobian, so each Newton step solves the 2x2
    system in closed form (refused above condition number 1e12) and
    corrects it by Broyden's rank-one rule, which makes the iteration
    superlinear.  A member stops after four steps or once both residuals
    are below 1e-14 of its larger target.  All of it runs on spectra, with
    Parseval sums (:func:`~wavestrip.holo.parseval_inner`), so an iterate
    costs three FFTs: W and W_alpha for the validity rule, which every
    iterate passes, and their dealiased product.  A stack is one batch with
    one target pair per member, each stopping on its own rule, so its row
    equals its projection alone, and a member that never moves keeps its
    samples.
    """
    grid, g = state.grid, state.g
    cW, cQ = to_spectrum(state.W), to_spectrum(state.Q)
    W, Wa = state.W, grid.ixi * cW
    from_spectrum(Wa, out=Wa)
    V = _shell_velocity(grid, cQ)
    E, I, D = _shell_invariants(grid, g, cW, cQ, W, Wa, V)
    gE, gI = _shell_gradients(grid, g, cW, cQ, W, Wa, D, V)
    M = _shell_gram((gE, gI), g, grid)
    target = np.array([E_target, I_target]).T  # one (E, I) row per member
    tol = 1e-14 * np.maximum(np.abs(target).max(-1), 1e-300)
    rhs = target - np.array([E, I]).T
    live, moved = np.ones(E.shape, bool), np.zeros(E.shape, bool)
    for _ in range(4):
        live &= ~(np.abs(rhs).max(-1) < tol)
        if live.any():
            ok, ds = _solve_2x2(M, rhs)
            live &= ok
        if not live.any():
            break
        on = live[..., None]
        ds = _where(on, ds, 0.0)
        a, b = ds[..., :1], ds[..., 1:]
        cW = _where(on, cW + a * gE[0] + b * gI[0], cW)
        cQ = _where(on, cQ + a * gE[1] + b * gI[1], cQ)
        W, Wa = from_spectrum(cW), grid.ixi * cW
        from_spectrum(Wa, out=Wa)
        require_valid(grid, Wa, (cQ,), W)
        moved |= live
        E, I, D = _shell_invariants(grid, g, cW, cQ, W, Wa,
                                    _shell_velocity(grid, cQ))
        rhs = target - np.array([E, I]).T
        dd = np.where(live, np.vecdot(ds, ds), 1.0)
        M -= rhs[..., :, None] * ds[..., None, :] / dd[..., None, None]
    if not moved.any():
        return state
    keep = moved[..., None]
    return state.with_fields(_where(keep, W, state.W),
                             _where(keep, from_spectrum(cQ), state.Q))


Observer = Callable[[int, float, WaveState], None]


def evolve(state: WaveState, config: SolverConfig,
           observers: Sequence[Observer] = ()) -> WaveState:
    """Run to T_final with fixed dt; returns the final state.

    Observers are called for their effect at step 0 and every
    ``observer_stride`` steps (and at the final step).  An invalid stage,
    new or projected state raises :class:`StepAbort` carrying the index and
    the last good state.  A stack of states evolves as one state, with one
    call per operator, the shell projection included: under
    ``project_energy`` each member is projected onto the shell of its own
    initial energy and momentum, so each row equals that member's run
    alone, bit for bit as a stacked step does.
    """
    targets = ((energy(state)[0], momentum(state))
               if config.project_energy else None)

    def notify(i, s):
        for obs in observers:
            obs(i, s.t, s)

    notify(0, state)
    current = state
    for i in range(1, config.n_steps + 1):
        try:
            new = step_rk4(current, config.dt, config.method)
            if targets is not None:
                new = _project_to_invariant_shell(new, *targets)
        except InvalidState as exc:
            raise StepAbort(str(exc), i,
                            unstack(current)[exc.member or 0]) from None
        current = new
        if i % config.observer_stride == 0 or i == config.n_steps:
            notify(i, current)
    return current
