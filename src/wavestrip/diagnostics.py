"""Measurement layer: control-norm proxies, Sobolev ladders, the ledger row.

The two scale-invariant control norms of the well-posedness theory are

    A = ||W||_inf + ||Y||_inf + g^{-1/2} ||<D>_h^{1/2} R||_{Linf cap B^{0,inf}_2}
    B = g^{1/2} ||<D>_h^{1/2} W||_bmo_h + ||<D>_h R||_bmo_h

with the inhomogeneous bmo_h splitting a function at frequency 1/h.  The
true BMO seminorm is replaced here by a windowed mean-oscillation estimator
over grid-aligned dyadic windows: the diagnostics steer experiments, they
are not part of any proof, and the proxy is sandwiched between
Littlewood-Paley block bounds on band-limited data (verified in the tests).

Sobolev ladders use the inhomogeneous weights <D>_h = sqrt(1 + h^2 xi^2)/h,
which stay uniform in the infinite-depth limit.  Every measurement of a
stack of states is taken per member, on the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .grid import SpectralGrid, apply_multiplier, from_spectrum, to_spectrum
from .holo import grid_sobolev_weight, sobolev_norm
from .dynamics import WaveState, DiagState

__all__ = [
    "DiagnosticsRecord",
    "bmo_proxy",
    "control_norms",
    "sobolev_Nn",
    "measure",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One ledger row: energies, invariants, and control norms at time t.

    ``E_ham`` is the Hamiltonian-form energy and ``E_repr`` its
    representation-form evaluation; ``I`` the momentum; ``taylor_min`` the
    pointwise minimum of g + frak-a.  For a stack every field but ``t`` and
    ``dt`` holds one value per member; :meth:`table` lays the record out
    as one row per member.
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

    def table(self, ts) -> np.ndarray:
        """The ledger rows, one per member, as a (members, fields) float
        array in field order: member j takes the time ``ts[j]``, and a
        field that holds one value (``dt``, or any field of a single
        state) is the same in every row.

        The earliest row with a non-finite entry raises ValueError, on one
        line, naming its first such entry and the row's time.
        """
        names = [f.name for f in fields(self)]
        out = np.column_stack(np.broadcast_arrays(
            *(ts if name == "t" else getattr(self, name) for name in names)))
        bad = np.argwhere(~np.isfinite(out))
        if len(bad):
            j, i = bad[0]
            raise ValueError(f"non-finite diagnostic entry {names[i]} = "
                             f"{out[j, i]} at t = {float(out[j, 0])}")
        return out


@lru_cache(maxsize=16)
def _dyadic_block_masks(grid: SpectralGrid) -> tuple[np.ndarray, ...]:
    """Frequency masks: the low block |xi| < 1/h, then dyadic shells above.

    Shell j covers 1/h * 2^j <= |xi| < 1/h * 2^{j+1}; together with the low
    block the masks partition the resolved spectrum.  Built once per grid.
    """
    axi = np.abs(grid.xi)
    cut = 1.0 / grid.h
    masks = [axi < cut]
    lo = cut
    top = float(np.max(axi))
    while lo <= top:
        masks.append((axi >= lo) & (axi < 2.0 * lo))
        lo *= 2.0
    for mask in masks:
        mask.setflags(write=False)
    return tuple(masks)


def _sup(values: np.ndarray):
    return np.max(np.abs(values), axis=-1)


def _l2(v: np.ndarray, grid: SpectralGrid):
    # np.linalg.norm's sum of one complex member, per member
    return (np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
            * np.sqrt(grid.L / grid.N))


def bmo_proxy(values: np.ndarray, grid: SpectralGrid) -> float:
    """Windowed mean-oscillation estimator for the bmo_h norm.

    The larger of two parts: the sup norm of the low-frequency part
    (|xi| < 1/h), and the maximum, over grid-aligned dyadic windows of every
    size, of the windowed mean absolute oscillation of the high-frequency
    part.  The windows are N/2^j samples wide, for every j that leaves a
    whole number of at least 2 samples.
    """
    c = to_spectrum(values)
    low = from_spectrum(np.where(_dyadic_block_masks(grid)[0], c, 0.0))
    high = np.asarray(values, dtype=complex) - low
    if np.isrealobj(values):
        low = low.real
        high = high.real
    out = _sup(low)
    n = grid.N
    width = n
    while width >= 2:
        blocks = high.reshape(high.shape[:-1] + (n // width, width))
        means = blocks.mean(axis=-1, keepdims=True)
        osc = np.abs(blocks - means).mean(axis=-1)
        out = np.maximum(out, np.max(osc, axis=-1))
        if width % 2:
            break
        width //= 2
    return out


def _half_weight(values: np.ndarray, grid: SpectralGrid, s: float) -> np.ndarray:
    return apply_multiplier(np.asarray(values, dtype=complex),
                            grid_sobolev_weight(grid, s), grid)


def control_norms(diag: DiagState) -> tuple[float, float]:
    """Pointwise control-norm proxies (A_proxy, B_proxy) of a state."""
    grid, g, bW, R = diag.grid, diag.g, diag.bW, diag.R
    Rh = _half_weight(R, grid, 0.5)
    # Besov B^{0,inf}_2 piece: largest dyadic-block L^2 norm
    c = to_spectrum(Rh)
    besov = 0.0
    for mask in _dyadic_block_masks(grid):
        block = from_spectrum(np.where(mask, c, 0.0))
        besov = np.maximum(besov, _l2(block, grid))
    A = (_sup(bW) + _sup(bW / (1.0 + bW))
         + g ** -0.5 * np.maximum(_sup(Rh), besov))
    B = (np.sqrt(g) * bmo_proxy(_half_weight(bW, grid, 0.5), grid)
         + bmo_proxy(_half_weight(R, grid, 1.0), grid))
    return A, B


def sobolev_Nn(diag: DiagState, n: int) -> float:
    """Sobolev ladder norm N_n = ||(g^{1/2} W, R)||_{H^{n-1} x H^{n-1/2}}, n >= 1.

    The n = 0 rung, the trace-space norm ||(W, Q)||_H of the
    undifferentiated state, squared, is twice
    :func:`wavestrip.holo.pair_form` of (W, Q) with itself.
    """
    if n < 1:
        raise ValueError("ladder norms on a DiagState need n >= 1")
    grid = diag.grid
    nw = sobolev_norm(diag.bW, n - 1.0, grid, base="l2")
    nr = sobolev_norm(diag.R, n - 0.5, grid, base="l2")
    return np.sqrt(diag.g * _pow2(nw) + _pow2(nr))


# x ** 2 of a float64 scalar is libm's pow(x, 2), of an array x * x; the two
# differ in the last bit for about 1 value in 1200, so each member of a stack
# is squared as a single-member call squares it
_pow2 = np.vectorize(lambda v: v ** 2, otypes=[float])


def measure(state: WaveState, dt: float = 0.0) -> DiagnosticsRecord:
    """Full ledger row for a state, on any cell (L, h).

    ``E1_NF`` is the n = 1 normal-form energy and ``E13_high`` the n = 1
    quasilinear modified energy.  The record is not checked here: a
    non-finite entry raises where its table is taken
    (:meth:`DiagnosticsRecord.table`).
    """
    from .dynamics import diag_of, energy, momentum, taylor_field
    from .normalform import nf_energy, cubic_energy_high, _E0

    d = diag_of(state)
    e_ham, e_repr = energy(state)
    _, tmin, _, _ = taylor_field(state)
    A, B = control_norms(d)
    e0 = _E0(d.bW, d.R, state.g, state.grid)
    return DiagnosticsRecord(
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
