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
shell (:func:`_project_to_invariant_shell`): on the plane of the two
gradients the energy is an exact cubic and the momentum an exact quadratic
in the two coordinates, so one batched pass of four FFT calls builds their
coefficients, Newton's method solves each member's two scalar equations,
and one result state is built and checked.

A step and the shell projection work on the last axis: a stack of B members
takes the FFT calls of one member, and each row equals the single-member
result bit for bit up to the stack size given in :mod:`wavestrip.grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
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
    """:func:`~wavestrip.holo.flip_combine`'s symbols under which
    :func:`~wavestrip.holo.parseval_inner` is the trace inner product
    :func:`~wavestrip.holo.inner_h`, built once per grid."""
    return tuple(_frozen((0.5 * w).astype(np.complex128))
                 for w in (grid.tanh2 + 1.0, grid.tanh2 - 1.0))


# the monomials a^m b^n, as (m, n), of a cubic in (a, b)
_MONOMIALS = [(d - n, n) for d in range(4) for n in range(d + 1)]


@lru_cache(maxsize=16)
def _collector(g: float, dx: float) -> np.ndarray:
    """The matrix taking the 47 pairings of :func:`_shell_polynomials` to
    the ten coefficients of E and then the ten of I, in :data:`_MONOMIALS`
    order, for gravity ``g`` and node spacing ``dx``.

    The pairings are the 5 x 4 trace inner products <u_i, v_k> of
    u = (W, dE_W, dI_W, V(Q), V(W)) and v = (W, dE_W, dI_W, Q), row by row,
    then the 27 sums Re sum w_i w_j,alpha conj(d_k) over the samples w, the
    slopes and the dealiased duals d of the W-directions.  On the plane
    each direction is a linear form in x = (1, a, b): W' = x . (W, dE_W,
    dI_W), the rows of ``xw``, and Q' = (x0 + x1) Q - x2 W, the rows of
    ``yq`` for its Q and W parts.  E takes g/4 <w_i, w_k>,
    -1/4 <V(y_j), y_k> and g/2 dx times each cubic sum; I takes
    1/2 <V(y_j), w_k>.  Each adds its weight times the product of its
    directions' forms to the coefficients: the term x_i x_j (x_k) of the
    product is a^m b^n with m ones and n twos among i j (k).
    """
    xw = np.eye(3)
    yq = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])

    def column(weight, *forms):
        col = np.zeros(len(_MONOMIALS))
        for idx in product(range(3), repeat=len(forms)):
            col[_MONOMIALS.index((idx.count(1), idx.count(2)))] += np.prod(
                [f[i] for f, i in zip(forms, idx)])
        return weight * col

    def pair(i, k):
        return 4 * i + k
    E, I = np.zeros((2, len(_MONOMIALS), 47))
    for i, k in product(range(3), repeat=2):
        E[:, pair(i, k)] = column(0.25 * g, xw[i], xw[k])
    for j, (k, v) in product(range(2), ((0, 3), (1, 0))):
        E[:, pair(3 + j, v)] = column(-0.25, yq[j], yq[k])
    for j, k in product(range(2), range(3)):
        I[:, pair(3 + j, k)] = column(0.5, yq[j], xw[k])
    for n, idx in enumerate(product(range(3), repeat=3)):
        E[:, 20 + n] = column(0.5 * g * dx, *xw[list(idx)])
    return _frozen(np.concatenate((E, I)))


def _cubic(c, a: float, b: float):
    """(p, dp/da, dp/db) at (a, b) of the cubic p with the coefficients
    ``c`` in :data:`_MONOMIALS` order, in floats."""
    aa, ab, bb = a * a, a * b, b * b
    p = (c[0] + c[1] * a + c[2] * b + c[3] * aa + c[4] * ab + c[5] * bb
         + c[6] * aa * a + c[7] * aa * b + c[8] * a * bb + c[9] * bb * b)
    pa = (c[1] + 2 * c[3] * a + c[4] * b + 3 * c[6] * aa + 2 * c[7] * ab
          + c[8] * bb)
    pb = (c[2] + c[4] * a + 2 * c[5] * b + c[7] * aa + 2 * c[8] * ab
          + 3 * c[9] * bb)
    return p, pa, pb


def _shell_polynomials(state: WaveState):
    """Each member's ten coefficients of E(a, b) and ten of I(a, b) on the
    plane x + a dE + b dI, one row a member, and the samples of dE_W and
    dI_W.

    There W' = W + a dE_W + b dI_W and Q' = (1 + a) Q - b W, and both
    :func:`~wavestrip.dynamics.energy`'s first form, g/4 <W', W'>
    - 1/4 <Q', V(Q')> + g/2 <D(W'), W'> with V(Q) = T^{-1} Q_alpha and D(W)
    the dealiased W W_alpha, and the momentum 1/2 <V(Q'), W'> are sums of
    pairings of the directions (:func:`_collector`).  Four FFT calls, each
    for the whole stack: W and Q; W_alpha and T W_alpha; W W_alpha and
    conj(W) T W_alpha, for dE_W; the samples, slopes and dealiased duals of
    the directions.
    """
    grid, g = state.grid, state.g
    mask, ixi, W = grid.dealias_symbol, grid.ixi, state.W
    cW, cQ = to_spectrum(np.array((W, state.Q)))
    dW = ixi * cW
    slopes = np.array((dW, grid.tilbert_symbol * dW))
    Wa, TWa = from_spectrum(slopes, out=slopes)
    D, corr = spectra = to_spectrum(np.array((W * Wa, np.conj(W) * TWa)))
    np.multiply(mask, spectra, out=spectra)
    corr = grid.inv_tilbert_symbol * project_spectrum(corr, grid, out=corr)
    V = grid.inv_tilbert_symbol * (ixi * np.array((cQ, cW)))
    X = np.array((cW, mask * (cW + D - corr), V[0] / g, cQ))
    # <u, v> is parseval_inner(u, dual of v)
    dual = flip_combine(X, _shell_weights(grid), grid)
    P = parseval_inner(np.concatenate((X[:3], V))[:, None], dual[None], grid)
    f = np.concatenate((X[1:3], ixi * X[1:3], mask * dual[:3]))
    from_spectrum(f, out=f)
    w, wa = np.array((W, f[0], f[1])), np.array((Wa, f[2], f[3]))
    C = np.vecdot(f[4:], (w[:, None] * wa[None])[:, :, None]).real
    lead = W.shape[:-1]
    entries = np.concatenate((P.reshape((20,) + lead),
                              C.reshape((27,) + lead)))
    entries = np.ascontiguousarray(entries.reshape(47, -1).T)
    return np.vecdot(entries[:, None], _collector(g, grid.L / grid.N)), f[:2]


def _solve_2x2(M, rhs):
    """(ok, x) of the 2x2 system M x = rhs in floats: x =
    (s b0 - q b1, p b1 - r b0) / det M by Cramer's rule for
    M = ((p, q), (r, s)), and ``ok`` where M's 2-norm condition number,
    (f + sqrt((f - 2 d)(f + 2 d))) / (2 d) with f = ||M||_F^2 and
    d = |det M|, is at most 1e12, compared without the division and rooted
    factor by factor, so no entry is raised past its square.  A singular or
    zero M is refused; its x is finite."""
    (p, q), (r, s) = M
    b0, b1 = rhs
    f, det = p * p + q * q + r * r + s * s, p * s - q * r
    d2 = 2.0 * abs(det)
    ok = f > 0 and (f + math.sqrt(abs(f - d2)) * math.sqrt(f + d2)
                    <= 1e12 * d2)
    det = det if ok else 1.0
    return ok, ((s * b0 - q * b1) / det, (p * b1 - r * b0) / det)


def _shell_newton(c, E_target: float, I_target: float):
    """(a, b) where Newton's method on E(a, b) = E_target, I(a, b) =
    I_target stops, for the coefficients ``c`` of E and I, or None if it
    takes no step: it stops once both residuals are below 1e-14 of the
    larger target, when the Jacobian's condition number passes 1e12, or
    after four steps."""
    tol = 1e-14 * max(abs(E_target), abs(I_target), 1e-300)
    cE, cI = c[:10], c[10:]
    a = b = 0.0
    ab = None
    for _ in range(4):
        e, ea, eb = _cubic(cE, a, b)
        i, ia, ib = _cubic(cI, a, b)
        rhs = (E_target - e, I_target - i)
        if abs(rhs[0]) < tol and abs(rhs[1]) < tol:
            break
        ok, (da, db) = _solve_2x2(((ea, eb), (ia, ib)), rhs)
        if not ok:
            break
        a, b = a + da, b + db
        ab = (a, b)
    return ab


def _where(on, new, old):
    """np.where(on, new, old), or ``new`` itself where all of on holds."""
    return new if on.all() else np.where(on, new, old)


def _project_to_invariant_shell(state: WaveState, E_target,
                                I_target) -> WaveState:
    """Project onto the (energy, momentum) level set of the initial state.

    The periodized flow leaves the energy a bounded O(amplitude^2)
    oscillation, so long runs project after every step, in the span of both
    gradients: one alone would shift the other invariant.  On that plane
    x + a dE + b dI the energy is an exact cubic and the momentum an exact
    quadratic in (a, b) (:func:`_shell_polynomials`), so Newton's method
    runs on their coefficients with the exact Jacobian and lands on the
    shell to round-off (:func:`_shell_newton`: a 1e-14 stop, refusal above
    condition number 1e12, at most four steps).  The result is built in
    physical space, W + a dE_W + b dI_W and (1 + a) Q - b W, and only its
    WaveState checks it: two FFT calls beside the polynomials' four.  A
    stack is one batch with one target pair per member, each solved on its
    own, so its row equals its projection alone, and a member that never
    moves keeps its samples.
    """
    coefficients, (w1, w2) = _shell_polynomials(state)
    targets = np.empty((len(coefficients), 2))
    targets[:, 0], targets[:, 1] = E_target, I_target
    steps = [_shell_newton(c, *t) for c, t in zip(coefficients.tolist(),
                                                   targets.tolist())]
    if all(ab is None for ab in steps):
        return state
    lead = state.W.shape[:-1] + (1,)
    moved = np.array([ab is not None for ab in steps]).reshape(lead)
    a, b = np.array([ab or (0.0, 0.0) for ab in steps]).T.reshape((2,) + lead)
    W = state.W + a * w1 + b * w2
    Q = (1.0 + a) * state.Q - b * state.W
    return state.with_fields(_where(moved, W, state.W),
                             _where(moved, Q, state.Q))


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
