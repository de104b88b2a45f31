"""Measurement layer: control-norm proxies, Sobolev ladders, drift ledgers.

The two scale-invariant control norms of the well-posedness theory are

    A = ||W||_inf + ||Y||_inf + g^{-1/2} ||<D>_h^{1/2} R||_{Linf cap B^{0,inf}_2}
    B = g^{1/2} ||<D>_h^{1/2} W||_bmo_h + ||<D>_h R||_bmo_h

with the inhomogeneous bmo_h splitting a function at frequency 1/h.  The
true BMO seminorm is replaced here by a windowed mean-oscillation estimator
over grid-aligned dyadic windows: the diagnostics steer experiments, they
are not part of any proof, and the proxy is sandwiched between
Littlewood-Paley block bounds on band-limited data (verified in the tests).

Sobolev ladders use the inhomogeneous weights <D>_h = sqrt(1 + h^2 xi^2)/h,
which stay uniform in the infinite-depth limit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .grid import SpectralGrid, apply_multiplier, from_spectrum, to_spectrum
from .holo import sobolev_norm, sobolev_weight
from .dynamics import WaveState, DiagState

__all__ = [
    "DiagnosticsRecord",
    "bmo_proxy",
    "control_norms",
    "sobolev_Nn",
    "measure",
    "drift_report",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One ledger row: energies, invariants, and control norms at time t.

    ``E_ham`` is the Hamiltonian-form energy and ``E_repr`` its
    representation-form evaluation; ``I`` the momentum; ``taylor_min`` the
    pointwise minimum of g + frak-a.
    """

    t: float
    E_ham: float
    E_repr: float
    I: float
    E0: float
    E1_NF: float
    E13_high: float
    taylor_min: float
    A_proxy: float
    B_proxy: float
    N1: float
    N2: float
    dt: float

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"non-finite diagnostic entry {f.name} = {v}")


def _dyadic_block_masks(grid: SpectralGrid):
    """Frequency masks: the low block |xi| < 1/h, then dyadic shells above.

    Shell j covers 1/h * 2^j <= |xi| < 1/h * 2^{j+1}; together with the low
    block the masks partition the resolved spectrum.
    """
    axi = np.abs(grid.xi)
    cut = 1.0 / grid.h
    masks = [axi < cut]
    lo = cut
    top = float(np.max(axi))
    while lo <= top:
        masks.append((axi >= lo) & (axi < 2.0 * lo))
        lo *= 2.0
    return masks


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _l2(values: np.ndarray, grid: SpectralGrid) -> float:
    return float(np.linalg.norm(values)) * np.sqrt(grid.L / grid.N)


def bmo_proxy(values: np.ndarray, grid: SpectralGrid) -> float:
    """Windowed mean-oscillation estimator for the bmo_h norm.

    sup norm of the low-frequency part (|xi| < 1/h) plus the maximum, over
    grid-aligned dyadic windows of every size, of the windowed mean absolute
    oscillation of the high-frequency part.
    """
    c = to_spectrum(values)
    low_mask = np.abs(grid.xi) < 1.0 / grid.h
    low = from_spectrum(np.where(low_mask, c, 0.0))
    high = np.asarray(values, dtype=complex) - low
    if np.isrealobj(values):
        low = low.real
        high = high.real
    out = _sup(np.asarray(low))
    n = grid.N
    width = n
    while width >= 2:
        blocks = high.reshape(n // width, width)
        means = blocks.mean(axis=1, keepdims=True)
        osc = np.abs(blocks - means).mean(axis=1)
        out_cand = float(np.max(osc))
        out = max(out, out_cand)
        width //= 2
    return out


def _half_weight(values: np.ndarray, grid: SpectralGrid, s: float) -> np.ndarray:
    return apply_multiplier(np.asarray(values, dtype=complex),
                            sobolev_weight(grid.xi, grid.h, s), grid)


def control_norms(diag: DiagState) -> tuple[float, float]:
    """Pointwise control-norm proxies (A_proxy, B_proxy) of a state."""
    grid = diag.grid
    g = diag.g
    bW = diag.bW
    R = diag.R
    Rh = _half_weight(R, grid, 0.5)
    # Besov B^{0,inf}_2 piece: largest dyadic-block L^2 norm
    c = to_spectrum(Rh)
    besov = 0.0
    for mask in _dyadic_block_masks(grid):
        block = from_spectrum(np.where(mask, c, 0.0))
        besov = max(besov, _l2(block, grid))
    A = (_sup(bW) + _sup(bW / (1.0 + bW))
         + g ** -0.5 * max(_sup(Rh), besov))
    B = (np.sqrt(g) * bmo_proxy(_half_weight(bW, grid, 0.5), grid)
         + bmo_proxy(_half_weight(R, grid, 1.0), grid))
    return float(A), float(B)


def sobolev_Nn(diag: DiagState, n: int) -> float:
    """Sobolev ladder norm N_n = ||(g^{1/2} W, R)||_{H^{n-1} x H^{n-1/2}}, n >= 1.

    The n = 0 rung, the trace-space norm ||(W, Q)||_H of the
    undifferentiated state, is :func:`wavestrip.holo.norm_calH`.
    """
    if n < 1:
        raise ValueError("ladder norms on a DiagState need n >= 1")
    grid = diag.grid
    nw = sobolev_norm(diag.bW, n - 1.0, grid, base="l2")
    nr = sobolev_norm(diag.R, n - 0.5, grid, base="l2")
    return float(np.sqrt(diag.g * nw ** 2 + nr ** 2))


def measure(state: WaveState, dt: float = 0.0) -> DiagnosticsRecord:
    """Full ledger row for a state, on any cell (L, h).

    ``E1_NF`` is the n = 1 normal-form energy and ``E13_high`` the n = 1
    quasilinear modified energy.
    """
    from .dynamics import diag_of, energy, momentum, taylor_field
    from .normalform import nf_energy, cubic_energy_high, _E0

    d = diag_of(state)
    e_ham, e_repr = energy(state)
    _, tmin, _, _ = taylor_field(state)
    A, B = control_norms(d)
    e0 = _E0(d.bW, d.R, state.g, state.grid)
    rec = DiagnosticsRecord(
        t=state.t,
        E_ham=e_ham,
        E_repr=e_repr,
        I=momentum(state),
        E0=e0,
        E1_NF=nf_energy(1, d),
        E13_high=cubic_energy_high(1, d),
        taylor_min=tmin,
        A_proxy=A,
        B_proxy=B,
        N1=sobolev_Nn(d, 1),
        N2=sobolev_Nn(d, 2),
        dt=dt,
    )
    rec.validate()
    return rec


_CONSERVED = ("E_ham", "E_repr", "I")


def drift_report(series: Sequence[DiagnosticsRecord]) -> dict:
    """Max relative drifts of the conserved quantities of a series.

    Each of E_ham, E_repr and I gets max |x(t) - x(0)| / max(|x(0)|, eps).
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    rel = {}
    for name in _CONSERVED:
        x = np.array([getattr(r, name) for r in series])
        rel[name] = float(np.max(np.abs(x - x[0])) / max(abs(x[0]), 1e-300))
    return rel
