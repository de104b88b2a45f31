"""Resonance analysis, normal-form symbols, and cubic-accurate energies.

Everything here is specialized to unit depth (h = 1); gravity g stays free.
Callers working at other depths must first rescale (the system admits the
two-parameter scaling that moves (g, h) to (g', 1)).

The module has three layers:

* closed-form dispersion/resonance algebra on the plane xi + eta + zeta = 0
  (``dispersion_kit``, ``omega_resonance``) and the seven bilinear
  normal-form symbols obtained from the holomorphic 3x3 and mixed 4x4
  linear systems (``symbols_holo``, ``symbols_mixed``,
  ``system_residuals``);
* the quadratic normal-form change of variables (``nf_transform``) and the
  symmetrized cubic-energy symbols (``tilde_symbols``) with a generic
  discrete trilinear evaluator (``TrilinearForm`` / ``trilinear_eval``);
* cubic-accurate energies of the diagonal variables: the normal-form
  energy (``nf_energy``), its high-frequency quadratic forms
  (``high_forms``), and the quasilinear modified energy
  (``cubic_energy_high``).

Singular-line policy: the three lines xi = 0, eta = 0, zeta = 0 carry the
resonances.  Off the lines everything is evaluated in closed form (with
cancellation-safe helpers); within ``LINE_TOL`` of a single line, symbols
switch to a second-order transverse Taylor expansion seeded by the exact
line limits, so near-line values stay accurate where the raw quotient
would lose digits.  The output line zeta = 0 is a genuine simple pole of
B^h (and of the mixed B^a/C^a); requesting those values raises
:class:`SingularLineError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import SpectralGrid, deriv, inv_tilbert, tilbert, to_spectrum, dealias
from .holo import HoloField, inner_h, weighted_inner
from .dynamics import DiagState

__all__ = [
    "LINE_TOL",
    "SingularLineError",
    "is_unit_cell",
    "PlanePoint",
    "dispersion_kit",
    "omega_resonance",
    "symbols_holo",
    "symbols_mixed",
    "system_residuals",
    "nf_transform",
    "tilde_symbols",
    "TrilinearForm",
    "trilinear_eval",
    "nf_energy",
    "high_forms",
    "cubic_energy_high",
]

#: distance to a resonance line below which limit-seeded Taylor evaluation
#: replaces the raw closed forms
LINE_TOL = 1e-3

#: below this transverse distance the raw closed forms switch to the
#: line-limit-seeded Taylor expansion.  Between _TAYLOR_SWITCH and LINE_TOL
#: the raw forms still carry >= 9 significant digits (the resonance-function
#: cancellation is only quadratic in the distance), and the finite-difference
#: seeding would be the *larger* error source, so raw evaluation is kept.
_TAYLOR_SWITCH = 1e-4

# transverse step for the Taylor seeding near lines
_TAYLOR_STEP = 0.01


class SingularLineError(ValueError):
    """Requested a symbol value on a line where it has a genuine pole."""


@dataclass(frozen=True)
class PlanePoint:
    """Point on the resonance plane xi + eta + zeta = 0 (zeta derived)."""

    xi: float
    eta: float

    @property
    def zeta(self) -> float:
        return -(self.xi + self.eta)

    def coords(self) -> tuple[float, float, float]:
        return (self.xi, self.eta, self.zeta)

    @property
    def d(self) -> float:
        """1 + distance of the nearest coordinate to zero."""
        return 1.0 + min(abs(self.xi), abs(self.eta), abs(self.zeta))

    @property
    def rho(self) -> float:
        return 1.0 + max(abs(self.xi), abs(self.eta), abs(self.zeta))


# ---------------------------------------------------------------------------
# dispersion algebra


def dispersion_kit(xi):
    """Depth-one dispersion data (J, J', omega, Lambda).

    J = xi tanh xi, J' = tanh xi + xi sech^2 xi, omega = -sgn(xi) sqrt(J),
    Lambda = J'^2 - 4J (negative away from xi = 0).
    """
    xi = np.asarray(xi, dtype=float)
    t = np.tanh(xi)
    J = xi * t
    Jp = t + xi / np.cosh(xi) ** 2
    om = -np.sign(xi) * np.sqrt(J)
    Lam = Jp ** 2 - 4.0 * J
    if xi.ndim == 0:
        return float(J), float(Jp), float(om), float(Lam)
    return J, Jp, om, Lam


def _J(x):
    x = np.asarray(x, dtype=float)
    return x * np.tanh(x)


def _Jp(x):
    x = np.asarray(x, dtype=float)
    return np.tanh(x) + x / np.cosh(x) ** 2


def omega_resonance(xi, eta):
    """Symmetrized resonance function Omega on the plane.

    Omega = J(xi)^2 + J(eta)^2 + J(zeta)^2 - 2[J(xi)J(eta) + J(eta)J(zeta)
    + J(zeta)J(xi)] with zeta = -(xi + eta); equals the product of the four
    sign-symmetrized Delta = omega + omega + omega factors, is fully
    symmetric, and is nonpositive, vanishing quadratically on the lines.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = -(xi + eta)
    coords = np.stack(np.broadcast_arrays(xi, eta, zeta)).astype(float)
    Jv = _J(coords)
    # factored evaluation (J_a + J_b - J_c)^2 - 4 J_a J_b with c the largest
    # coordinate: near the lines the direct quadratic form cancels O(1)
    # terms down to the O(line_distance^2) result and loses every digit,
    # while here the small sum s is assembled through the delta differences
    av = np.abs(coords)
    dv = _delta_exp(coords)
    idx = np.argmax(av, axis=0)
    av_c = np.take_along_axis(av, idx[None], axis=0)[0]
    dv_c = np.take_along_axis(dv, idx[None], axis=0)[0]
    Jv_c = np.take_along_axis(Jv, idx[None], axis=0)[0]
    s = (av.sum(axis=0) - 2.0 * av_c) - (dv.sum(axis=0) - 2.0 * dv_c)
    Jprod = Jv[0] * Jv[1] * Jv[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        J_ab = np.where(Jv_c > 0.0, Jprod / np.where(Jv_c > 0.0, Jv_c, 1.0),
                        0.0)
    out = s * s - 4.0 * J_ab
    if out.ndim == 0:
        return float(out)
    return out


def _delta_exp(x):
    """J(x) = |x| - delta(x) with delta(x) = 2|x| e^{-2|x|} / (1 + e^{-2|x|}).

    Returns delta(x); used to evaluate differences of J without the
    |zeta| - |xi| - |eta| cancellation going through large intermediates.
    """
    ax = np.abs(x)
    e = np.exp(-2.0 * ax)
    return 2.0 * ax * e / (1.0 + e)


def _J_sum_diff(xi, eta, zeta):
    """Cancellation-safe J(zeta) - J(xi) - J(eta) on the plane."""
    s = np.abs(zeta) - np.abs(xi) - np.abs(eta)
    return s + _delta_exp(xi) + _delta_exp(eta) - _delta_exp(zeta)


# ---------------------------------------------------------------------------
# normal-form symbols: raw closed forms


def _symbols_holo_raw(xi, eta):
    """(A^h, B^h, C^h) by the closed-form solution of the 3x3 system.

    Valid off the three lines; vectorized.  Singular (division by an Omega
    zero or a zeta pole) entries come back as inf/nan.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = -(xi + eta)
    Jx, Je, Jz = _J(xi), _J(eta), _J(zeta)
    Om = omega_resonance(xi, eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        Ah = 2j * eta * Jx * (Jz - Jx + Je) / Om
        Bh = -2j * zeta * Jx * Je / Om
        Ch = -1j * xi * eta * zeta * _J_sum_diff(xi, eta, zeta) / Om
    return Ah, Bh, Ch


def _symbols_mixed_raw(xi, eta):
    """(A^a, B^a, C^a, D^a) evaluated at (xi, -eta), off the lines.

    Closed forms in terms of B^h(xi, eta), C^h(xi, eta) with
    zeta = -(xi + eta); the exponential prefactors are written through
    sigmoids of 2 zeta so that nothing overflows for large |zeta|.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = -(xi + eta)
    _, Bh, Ch = _symbols_holo_raw(xi, eta)
    Jx, Je, Jz = _J(xi), _J(eta), _J(zeta)
    tx, te = np.tanh(xi), np.tanh(eta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # e^{2z}/(e^{2z}+1) and e^{2z}/(e^{2z}-1), overflow-free
        sig = 1.0 / (1.0 + np.exp(-2.0 * zeta))
        pol = 1.0 / -np.expm1(-2.0 * zeta)
        Aa = -sig * ((Je + eta) * Bh / (zeta * te) + (Jx - xi) * Ch / (xi * zeta))
        Ba = pol * ((Jz - (xi - eta)) * Bh / zeta
                    + (eta * Jx - xi * Je) * Ch / (xi * eta * zeta))
        Ca = pol * ((eta * Jx - xi * Je) * Bh / (zeta * tx * te)
                    + (Jz - (xi - eta)) * Ch / zeta)
        Da = -sig * ((Jx - xi) * Bh / (zeta * tx) + (Je + eta) * Ch / (eta * zeta))
    return Aa, Ba, Ca, Da


# exact line limits (paper-derived closed forms)


def _holo_limits_eta0(xi):
    J, Jp, _, Lam = dispersion_kit(xi)
    Ah = 2j * J * Jp / Lam
    Bh = 2j * xi * J / Lam
    Ch = 1j * xi ** 2 * Jp / Lam
    return Ah, Bh, Ch


def _holo_limits_xi0(eta):
    J, Jp, _, Lam = dispersion_kit(eta)
    Ah = 4j * eta * J / Lam
    # B^h, C^h are symmetric in (xi, eta)
    Bh = 2j * eta * J / Lam
    Ch = 1j * eta ** 2 * Jp / Lam
    return Ah, Bh, Ch


def _mixed_limits_eta0(xi):
    J, Jp, _, Lam = dispersion_kit(xi)
    common = 2.0 * J - xi * Jp + J * Jp
    Aa = 1j * common / (Lam * (np.exp(2.0 * xi) + 1.0))
    Ca = 1j * xi * common / (Lam * (np.exp(2.0 * xi) - 1.0))
    return Aa, Ca


def _mixed_limits_xi0(eta):
    J, Jp, _, Lam = dispersion_kit(eta)
    common = 2.0 * J - eta * Jp - J * Jp
    Ca = -1j * eta * common / (Lam * (np.exp(2.0 * eta) - 1.0))
    Da = -1j * common / (Lam * (np.exp(2.0 * eta) + 1.0))
    return Ca, Da


def _nearest_line(xi, eta):
    """(name, signed transverse distance) of the closest resonance line."""
    zeta = -(xi + eta)
    cands = (("xi", xi), ("eta", eta), ("zeta", zeta))
    return min(cands, key=lambda c: abs(c[1]))


def _taylor_from_line(f: Callable[[float], complex], limit: Optional[complex],
                      t: float) -> complex:
    """Second-order transverse Taylor expansion about a line.

    ``f(s)`` evaluates the raw symbol at transverse offset ``s``; ``limit``
    is the exact on-line value (estimated by even Richardson extrapolation
    when no closed form is available).  Returns the expansion at offset t.
    """
    d = _TAYLOR_STEP
    fp, fm = f(d), f(-d)
    if limit is None:
        f2p, f2m = f(2 * d), f(2 * d * -1)
        limit = ((fp + fm) * 4.0 - (f2p + f2m)) / 6.0
    d1 = (fp - fm) / (2.0 * d)
    d2 = (fp - 2.0 * limit + fm) / d ** 2
    return limit + d1 * t + 0.5 * d2 * t * t


def symbols_holo(xi: float, eta: float) -> tuple[complex, complex, complex]:
    """Normal-form symbols (A^h, B^h, C^h) at a point of the plane.

    Within ``LINE_TOL`` of the lines xi = 0 or eta = 0 the closed-form
    limits seed a transverse Taylor evaluation; on the output line
    zeta = 0 all three have simple poles and :class:`SingularLineError`
    is raised.
    """
    xi, eta = float(xi), float(eta)
    line, t = _nearest_line(xi, eta)
    if line == "zeta":
        # genuine simple pole: no limit exists; off the line the raw forms
        # are accurate (the pole is explicit, not a cancellation artifact)
        if t == 0.0:
            raise SingularLineError(
                "(A^h, B^h, C^h) have a simple pole on zeta = 0")
        out = _symbols_holo_raw(xi, eta)
        return tuple(complex(v) for v in out)
    if abs(t) > _TAYLOR_SWITCH:
        out = _symbols_holo_raw(xi, eta)
        return tuple(complex(v) for v in out)
    if line == "eta":
        limits = _holo_limits_eta0(xi)
        fs = [lambda s, i=i: complex(_symbols_holo_raw(xi, s)[i]) for i in range(3)]
    else:
        limits = _holo_limits_xi0(eta)
        fs = [lambda s, i=i: complex(_symbols_holo_raw(s, eta)[i]) for i in range(3)]
    return tuple(_taylor_from_line(f, lim, t) for f, lim in zip(fs, limits))


def symbols_mixed(xi: float, eta: float) -> tuple[complex, complex, complex, complex]:
    """Mixed symbols (A^a, B^a, C^a, D^a) evaluated at (xi, -eta).

    Line handling mirrors :func:`symbols_holo`: closed limits exist for
    A^a, C^a on eta = 0 and C^a, D^a on xi = 0; the remaining on-line
    values are seeded by even Richardson extrapolation.  B^a and C^a keep
    a genuine pole on zeta = 0.
    """
    xi, eta = float(xi), float(eta)
    line, t = _nearest_line(xi, eta)
    if line == "zeta":
        if t == 0.0:
            raise SingularLineError(
                "(B^a, C^a) have a simple pole on zeta = 0")
        out = _symbols_mixed_raw(xi, eta)
        return tuple(complex(v) for v in out)
    if abs(t) > _TAYLOR_SWITCH:
        out = _symbols_mixed_raw(xi, eta)
        return tuple(complex(v) for v in out)
    if line == "eta":
        Aa0, Ca0 = _mixed_limits_eta0(xi)
        limits = [Aa0, None, Ca0, None]
        fs = [lambda s, i=i: complex(_symbols_mixed_raw(xi, s)[i]) for i in range(4)]
    else:
        Ca0, Da0 = _mixed_limits_xi0(eta)
        limits = [None, None, Ca0, Da0]
        fs = [lambda s, i=i: complex(_symbols_mixed_raw(s, eta)[i]) for i in range(4)]
    return tuple(_taylor_from_line(f, lim, t) for f, lim in zip(fs, limits))


def system_residuals(xi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Relative residuals of the defining 3x3 and 4x4 symbol systems.

    The computed symbols are substituted back into the linear systems they
    solve; the residual vectors are normalized by the largest row scale, so
    values near machine precision certify the closed forms.
    """
    xi, eta = float(xi), float(eta)
    s = xi + eta
    tx, te, ts = np.tanh(xi), np.tanh(eta), np.tanh(s)
    Ah, Bh, Ch = symbols_holo(xi, eta)
    # A^h is not symmetric; the first-row constraint is pointwise, while the
    # remaining two involve the (xi, eta)-symmetrized combinations through
    # which the bilinear operator actually enters the equations.
    Ah_sw = symbols_holo(eta, xi)[0]
    xA = 0.5 * (xi * Ah + eta * Ah_sw)
    tA = 0.5 * (te * Ah + tx * Ah_sw)
    rows3 = [
        (s * Ah - 2.0 * eta * Bh - 2.0 * tx * Ch, 0.0),
        (-xA + ts * Ch, 1j * xi * eta),
        (-tA + ts * Bh, 0.0),
    ]
    scales3 = [
        abs(s * Ah) + abs(2.0 * eta * Bh) + abs(2.0 * tx * Ch),
        abs(xA) + abs(ts * Ch) + abs(xi * eta),
        abs(tA) + abs(ts * Bh),
    ]
    # one global scale: rows whose entries all decay exponentially would
    # otherwise compare round-off noise against itself
    scale3 = max(max(scales3), 1e-300)
    r3 = np.array([abs(lhs - rhs) / scale3 for (lhs, rhs) in rows3])

    Aa, Ba, Ca, Da = symbols_mixed(xi, eta)
    M4 = np.array([[s, -eta, -tx, 0.0],
                   [0.0, -xi, -te, s],
                   [-xi, 0.0, ts, -eta],
                   [-te, ts, 0.0, -tx]], dtype=complex)
    # 1 - coth(s) and 1 - tanh(s) via expm1/sigmoid: both decay like
    # e^{-2s} and would otherwise round to zero against the unit part
    one_m_coth = -2.0 / np.expm1(2.0 * s)
    one_m_tanh = 2.0 / (1.0 + np.exp(2.0 * s))
    rhs4 = np.array([0.5j * one_m_coth * xi * eta,
                     -0.5j * one_m_coth * xi * eta,
                     0.5j * one_m_tanh * xi * eta,
                     0.0])
    v4 = np.array([Aa, Ba, Ca, Da])
    resid4 = M4 @ v4 - rhs4
    scale4 = max(float(np.max(np.abs(M4) @ np.abs(v4) + np.abs(rhs4))), 1e-300)
    r4 = np.abs(resid4) / scale4
    return r3, r4


# ---------------------------------------------------------------------------
# lattice machinery (integer frequencies; requires L = 2 pi)


def is_unit_cell(grid: SpectralGrid) -> bool:
    """True on the cell the lattice sums are built for: L = 2 pi, h = 1."""
    return (abs(grid.L - 2.0 * np.pi) <= 1e-12 * 2.0 * np.pi
            and abs(grid.h - 1.0) <= 1e-12)


def _require_unit_cell(grid: SpectralGrid) -> None:
    if not is_unit_cell(grid):
        raise ValueError("normal-form evaluation requires L = 2 pi and h = 1")


def _band_coeffs(values: np.ndarray, grid: SpectralGrid, band: int) -> np.ndarray:
    """Spectrum entries for integer modes -band..band as index m + band."""
    c = to_spectrum(values)
    idx = (np.arange(-band, band + 1)) % grid.N
    return c[idx]


def _holo_symbol_grids(band: int):
    """Symbols on the integer lattice (xi = j, eta = k), lines masked to 0.

    Cached per band; the lattice never touches the singular lines because
    rows/columns with j = 0, k = 0 or j + k = 0 are zeroed (their field
    coefficients vanish for the mean-free inputs used here, and zero-output
    modes are excluded by the cutoff).
    """
    key = band
    cached = _symbol_cache.get(key)
    if cached is not None:
        return cached
    j = np.arange(-band, band + 1, dtype=float)
    XI, ETA = np.meshgrid(j, j, indexing="ij")
    mask = (XI != 0) & (ETA != 0) & (XI + ETA != 0)
    Ah, Bh, Ch = _symbols_holo_raw(XI, ETA)
    Aa, Ba, Ca, Da = _symbols_mixed_raw(XI, ETA)
    out = {}
    for name, arr in (("Ah", Ah), ("Bh", Bh), ("Ch", Ch),
                      ("Aa", Aa), ("Ba", Ba), ("Ca", Ca), ("Da", Da)):
        a = np.where(mask, arr, 0.0)
        a = np.where(np.isfinite(a), a, 0.0)
        out[name] = a
    out["XI"], out["ETA"] = XI, ETA
    _symbol_cache[key] = out
    return out


_symbol_cache: dict = {}


def _bilinear_holo(symbol: np.ndarray, a: np.ndarray, b: np.ndarray,
                   band: int, zeta_cutoff: float) -> np.ndarray:
    """Coefficients of the bilinear form with kernel s(xi, eta) a(xi) b(eta).

    Output mode m collects the diagonal j + k = m; modes with
    |m| < zeta_cutoff (and |m| > band) receive nothing.
    """
    size = 2 * band + 1
    out = np.zeros(size, dtype=complex)
    prod = symbol * np.outer(a, b)
    j = np.arange(-band, band + 1)
    for m in range(-band, band + 1):
        if abs(m) < zeta_cutoff:
            continue
        k = m - j
        sel = (k >= -band) & (k <= band)
        out[m + band] = np.sum(prod[sel, k[sel] + band])
    return out


def _conj_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(f^(-xi)) on the symmetric band array (index m + band)."""
    return np.conj(coeffs[::-1])


def nf_transform(state, zeta_cutoff: float = 0.5):
    """Quadratic normal-form change of variables (W~, Q~).

    W~ = W + B^h[W,W] + (1/g) C^h[Q,Q] + B^a[W, conj W] + (1/g) C^a[Q, conj Q]
    Q~ = Q + A^h[W,Q] + A^a[W, conj Q] + D^a[Q, conj W]

    evaluated as double mode sums over the dealiased band.  Output modes
    with |frequency| < ``zeta_cutoff`` keep their original coefficients:
    the symbols have genuine simple poles when the output frequency
    vanishes, and the periodic cell has no continuum of modes there to
    cancel them.  Requires L = 2 pi and h = 1.
    """
    grid = state.grid
    _require_unit_cell(grid)
    if not zeta_cutoff > 0:
        raise ValueError("zeta_cutoff must be positive")
    g = state.g
    band = grid.N // 3
    sym = _holo_symbol_grids(band)
    w = _band_coeffs(state.W.values - np.mean(state.W.values), grid, band)
    q = _band_coeffs(state.Q.values - np.mean(state.Q.values), grid, band)
    wbar = _conj_flip(w)
    qbar = _conj_flip(q)

    dW = (_bilinear_holo(sym["Bh"], w, w, band, zeta_cutoff)
          + _bilinear_holo(sym["Ch"], q, q, band, zeta_cutoff) / g
          + _bilinear_holo(sym["Ba"], w, wbar, band, zeta_cutoff)
          + _bilinear_holo(sym["Ca"], q, qbar, band, zeta_cutoff) / g)
    dQ = (_bilinear_holo(sym["Ah"], w, q, band, zeta_cutoff)
          + _bilinear_holo(sym["Aa"], w, qbar, band, zeta_cutoff)
          + _bilinear_holo(sym["Da"], q, wbar, band, zeta_cutoff))

    def back(corr):
        c = np.zeros(grid.N, dtype=complex)
        idx = (np.arange(-band, band + 1)) % grid.N
        c[idx] = corr
        return np.fft.ifft(c * grid.N)

    Wt = state.W.values + back(dW)
    Qt = state.Q.values + back(dQ)
    return HoloField(grid, Wt), HoloField(grid, Qt)


# The mixed-argument convention: the antiholomorphic slot enters through
# conj(f^)(-eta) with (xi, eta, zeta) still on the plane, so every bilinear
# and trilinear sum below lives on the same integer lattice.


# ---------------------------------------------------------------------------
# cubic energy symbols


def _tilde_B_point(n: int, xi: float, eta: float) -> complex:
    """Unsymmetrized cubic-energy symbol tilde-B(xi, eta, zeta)."""
    zeta = -(xi + eta)
    _, Bh, _ = symbols_holo(xi, eta)
    _, Ba, _, _ = symbols_mixed(xi, eta)
    return (np.exp(2.0 * zeta) - 1.0) * zeta ** (2 * n) * (
        Bh + np.exp(2.0 * eta) * Ba)


def _tilde_A_point(n: int, zw: float, xi: float, eta: float) -> complex:
    """Unsymmetrized tilde-A(zeta_W, xi, eta): W at the first slot."""
    t1 = 0.0
    if zw != 0.0:
        _, _, Ch = symbols_holo(xi, eta)
        _, _, Ca, _ = symbols_mixed(xi, eta)
        t1 = zw ** (2 * n) * (np.exp(2.0 * zw) - 1.0) * (
            Ch + np.exp(2.0 * eta) * Ca)
    t2 = 0.0
    if xi != 0.0:
        Ah, _, _ = symbols_holo(zw, eta)
        Aa, _, _, _ = symbols_mixed(zw, eta)
        _, _, _, Da = symbols_mixed(eta, zw)
        t2 = xi ** (2 * n + 1) * (np.exp(2.0 * xi) + 1.0) * (
            Ah + np.exp(2.0 * eta) * Aa + np.exp(2.0 * zw) * Da)
    return t1 + t2


def tilde_symbols(n: int, p: PlanePoint) -> tuple[complex, complex]:
    """Symmetrized cubic-energy symbols (A~^sym, B~^sym) at a plane point.

    B~ is symmetrized over all permutations of (xi, eta, zeta); A~ over its
    two potential slots (the first coordinate carries the position
    variable).  Both are then reflection-symmetrized, s(p) -> -s(-p), which
    keeps them i x real.  On the resonance lines the symmetrized symbols
    vanish identically -- they factor as xi eta zeta times a bounded
    exponential-class symbol -- and the analytic zero is returned; within
    ``LINE_TOL`` of a line the value is a transverse Taylor step off that
    zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xi, eta, zeta = p.coords()

    def A_sym_raw(zw, x, e):
        vals = [_tilde_A_point(n, zw, x, e), _tilde_A_point(n, zw, e, x),
                -_tilde_A_point(n, -zw, -x, -e), -_tilde_A_point(n, -zw, -e, -x)]
        return sum(vals) / 4.0

    def B_sym_raw(x, e, z):
        acc = 0.0
        for (u, v) in ((x, e), (e, x), (x, z), (z, x), (e, z), (z, e)):
            acc += _tilde_B_point(n, u, v) - _tilde_B_point(n, -u, -v)
        return acc / 12.0

    dmin = min(abs(xi), abs(eta), abs(zeta))
    if dmin < 1e-12:
        # exact resonance line: both symbols carry the factor xi eta zeta
        return 0.0 + 0.0j, 0.0 + 0.0j
    if dmin <= LINE_TOL:
        # Taylor step off the analytic on-line zero, transverse to the line
        line, t = _nearest_line(xi, eta)

        def eval_at(s):
            if line == "eta":
                return (A_sym_raw(-(xi + s), xi, s),
                        B_sym_raw(xi, s, -(xi + s)))
            if line == "xi":
                return (A_sym_raw(-(s + eta), s, eta),
                        B_sym_raw(s, eta, -(s + eta)))
            # zeta near 0: vary zeta = s at fixed xi - eta
            x, e = xi + 0.5 * (zeta - s), eta + 0.5 * (zeta - s)
            return A_sym_raw(s, x, e), B_sym_raw(x, e, s)

        d = _TAYLOR_STEP
        plus = eval_at(d)
        minus = eval_at(-d)
        out = []
        for fp, fm in zip(plus, minus):
            d1 = (fp - fm) / (2.0 * d)
            d2 = (fp + fm) / d ** 2
            out.append(d1 * t + 0.5 * d2 * t * t)
        return out[0], out[1]
    return A_sym_raw(zeta, xi, eta), B_sym_raw(xi, eta, zeta)


# ---------------------------------------------------------------------------
# discrete trilinear forms


@dataclass(frozen=True)
class TrilinearForm:
    """Translation-invariant real trilinear form given by a plane symbol.

    ``symbol(xi, eta, zeta)`` must accept arrays.  ``conj_slots`` marks the
    arguments entering through conj(f^)(-freq) -- the discrete counterpart
    of the exponential-class factors, applied via the holomorphic flip
    relation instead of evaluating growing exponentials.  ``n`` records the
    homogeneity index of the originating energy.
    """

    symbol: Callable
    conj_slots: tuple[bool, bool, bool] = (False, False, False)
    n: int = 1

    def symmetry_defect(self, pts: Sequence[tuple[float, float]]) -> float:
        """Max deviation of the symbol under swapping (xi, eta)."""
        worst = 0.0
        for (x, e) in pts:
            z = -(x + e)
            a = complex(np.asarray(self.symbol(x, e, z)))
            b = complex(np.asarray(self.symbol(e, x, z)))
            worst = max(worst, abs(a - b))
        return worst


def trilinear_eval(form: TrilinearForm, f1, f2, f3,
                   grid: Optional[SpectralGrid] = None) -> float:
    """Discrete trilinear form L Re sum s(xi, eta, zeta) c1 c2 c3.

    The sum runs over the dealiased band with zeta = -(xi + eta) folded into
    the band; the constant L is fixed so that the constant symbol 1 on real
    fields reproduces the physical-space quadrature of f1 f2 f3.  Dropped
    (out-of-band) output contributions are accumulated and must stay below
    1e-12 of the total mass.
    """
    fields = [f1, f2, f3]
    vals = [f.values if isinstance(f, HoloField) else np.asarray(f, dtype=complex)
            for f in fields]
    if grid is None:
        for f in fields:
            if isinstance(f, HoloField):
                grid = f.grid
                break
    if grid is None:
        raise ValueError("grid required when all inputs are raw arrays")
    band = grid.N // 3
    _require_unit_cell(grid)
    cs = [_band_coeffs(v, grid, band) for v in vals]
    for i, c in enumerate(cs):
        if form.conj_slots[i]:
            cs[i] = _conj_flip(c)
    j = np.arange(-band, band + 1, dtype=float)
    XI, ETA = np.meshgrid(j, j, indexing="ij")
    ZETA = -(XI + ETA)
    inband = np.abs(ZETA) <= band
    S = np.asarray(form.symbol(XI, ETA, ZETA), dtype=complex)
    prod12 = np.outer(cs[0], cs[1])
    # third coefficient at the folded output index
    zi = (-(np.add.outer(np.arange(-band, band + 1), np.arange(-band, band + 1))))
    c3 = np.zeros_like(prod12)
    ok = np.abs(zi) <= band
    c3[ok] = cs[2][zi[ok] + band]
    total = grid.L * float(np.real(np.sum(S[inband] * prod12[inband] * c3[inband])))
    # out-of-band output frequencies: weight by the actual third-slot
    # spectrum where the grid still resolves it (band < |zeta| <= N/2)
    full3 = to_spectrum(vals[2])
    if form.conj_slots[2]:
        full3 = np.conj(full3[(-np.arange(grid.N)) % grid.N])
    zi_all = -(np.add.outer(np.arange(-band, band + 1), np.arange(-band, band + 1)))
    resolved = np.abs(zi_all) <= grid.N // 2
    c3_out = np.zeros_like(prod12)
    sel = (~inband) & resolved
    c3_out[sel] = full3[zi_all[sel] % grid.N]
    dropped = float(np.sum(np.abs(prod12[~inband] * c3_out[~inband])))
    kept = float(np.sum(np.abs(prod12[inband] * c3[inband])))
    if dropped > 1e-12 * max(kept, 1e-300):
        raise ValueError(
            f"unresolved output modes carry {dropped:.3e} of spectral mass")
    return total


# ---------------------------------------------------------------------------
# cubic-accurate energies in the diagonal variables


def _E0(w: np.ndarray, r: np.ndarray, g: float, grid: SpectralGrid) -> float:
    """Quadratic energy E0(w, r) = g <w, w> - <r, T^{-1} r_alpha>."""
    return (g * inner_h(w, w, grid)
            - inner_h(r, inv_tilbert(deriv(r, grid), grid), grid))


def _antiderivative(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Mean-free spectral antiderivative (zero modes dropped)."""
    c = to_spectrum(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(grid.xi != 0.0, c / (1j * grid.xi), 0.0)
    a[grid.nyquist_index] = 0.0
    return np.fft.ifft(a * grid.N)


def _preflip_cubic(n: int, w: np.ndarray, q: np.ndarray, g: float,
                   grid: SpectralGrid) -> float:
    """Cubic part g B~ + A~ of the normal-form energy, pre-flip evaluation.

    The seven double sums of the construction are evaluated with conjugated
    coefficients in the antiholomorphic slots, never with e^{2 xi} factors,
    so nothing grows; the front constant 2L is the discrete image of the
    continuum normalization (the symbol-1 calibration constant L times the
    explicit factor 2 of the trilinear representation).

    Each sum runs over the lattice (xi, eta) = (j, k) and weights the
    symbol by a factor of the output frequency zeta = -(j + k) alone:
    zeta^{2n} times the flip defect of w for the B and C sums, and
    coth(zeta) zeta^{2n+1} times that of q for the A and D sums.  Each
    weight is therefore one vector over j + k, read as a Hankel matrix H (a
    strided view, zero where |zeta| exceeds the band), and each sum is the
    form c1 @ ((S * H) @ c2).
    """
    band = grid.N // 3
    size = 2 * band + 1
    sym = _holo_symbol_grids(band)
    cw = _band_coeffs(w - np.mean(w), grid, band)
    cq = _band_coeffs(q - np.mean(q), grid, band)
    cwb = _conj_flip(cw)
    cqb = _conj_flip(cq)
    # output frequency zeta = -m for m = j + k in -2 band .. 2 band, and the
    # flip defects conj(c^)(-zeta) - c^(zeta) along m, zero off the band
    zeta = -np.arange(-2 * band, 2 * band + 1, dtype=float)
    dw = np.pad((cwb - cw)[::-1], band)
    dq = np.pad((cqb - cq)[::-1], band)
    with np.errstate(divide="ignore", invalid="ignore"):
        coth = np.where(zeta == 0.0, 0.0, 1.0 / np.tanh(zeta))
    Hw = sliding_window_view(zeta ** (2 * n) * dw, size)
    Hq = sliding_window_view(coth * zeta ** (2 * n + 1) * dq, size)

    def acc(H, S, c1, c2):
        # einsum keeps this small matrix-vector product out of the threaded
        # BLAS, whose start-up would cost more than the product itself
        return float(np.real(c1 @ np.einsum("jk,k->j", S * H, c2)))

    B_val = acc(Hw, sym["Bh"], cw, cw) + acc(Hw, sym["Ba"], cw, cwb)
    A_val = (acc(Hw, sym["Ch"], cq, cq)
             + acc(Hw, sym["Ca"], cq, cqb)
             + acc(Hq, sym["Ah"], cw, cq)
             + acc(Hq, sym["Aa"], cw, cqb)
             + acc(Hq, sym["Da"], cq, cwb))
    return 2.0 * grid.L * (g * B_val + A_val)


def nf_energy(n: int, diag: DiagState) -> float:
    """Normal-form energy E^n_NF, quadratic + cubic, quartic-accurate.

    E^n_NF = E0(d^{n-1} W, d^{n-1} R)
             - 2 <[R W]^{(n-1)}, T^{-1} d^{n-1} R_alpha>
             + g B~1(W, W, W) + A~1(W, R, R),

    with the trilinear symbols evaluated through the undifferentiated
    potentials (the division by (i xi)(i eta)(i zeta) is realized by
    feeding antiderivatives to the pre-flip double sums).
    """
    if n < 1 or n > 2:
        raise ValueError("n must be 1 or 2")
    grid = diag.grid
    _require_unit_cell(grid)
    g = diag.g
    bW = diag.bW.values
    R = diag.R.values
    wd = deriv(bW, grid, n - 1) if n > 1 else bW
    rd = deriv(R, grid, n - 1) if n > 1 else R
    quad = _E0(wd, rd, g, grid)
    RW = dealias(R * bW, grid)
    RWd = deriv(RW, grid, n - 1) if n > 1 else RW
    cross = -2.0 * inner_h(RWd, inv_tilbert(deriv(rd, grid), grid), grid)
    Wstar = _antiderivative(bW, grid)
    Qstar = _antiderivative(R, grid)
    cubic = _preflip_cubic(n, Wstar, Qstar, g, grid)
    return quad + cross + cubic


def high_forms(n: int, diag: DiagState) -> tuple[float, float]:
    """High-frequency forms (B_high, A_high) of the normal-form energy.

    n = 1:  B_high = <W, W>_{-4 Re W + 1/2 (1+T^2) Re W}
            A_high = -<R, T^{-1} R_alpha>_{-4 Re W - 1/2 (1+T^2) Re W}
                     - 2 <R W, T^{-1} R_alpha>
    n = 2:  same with d W, d R, weight coefficient -8 Re W, and the extra
            + 2 <W R_alpha, T^{-1} d R_alpha> transfer term.
    """
    if n < 1 or n > 2:
        raise ValueError("n must be 1 or 2")
    grid = diag.grid
    bW = diag.bW.values
    R = diag.R.values
    from .grid import smooth_one_plus_T2
    smooth = smooth_one_plus_T2(bW.real, grid)
    wplus = -4.0 * n * bW.real + 0.5 * smooth
    wminus = -4.0 * n * bW.real - 0.5 * smooth
    wd = deriv(bW, grid, n - 1) if n > 1 else bW
    rd = deriv(R, grid, n - 1) if n > 1 else R
    Tird = inv_tilbert(deriv(rd, grid), grid)
    B_high = weighted_inner(wd, wd, wplus, grid)
    A_high = (-weighted_inner(rd, Tird, wminus, grid)
              - 2.0 * inner_h(dealias(bW * rd, grid), Tird, grid))
    if n == 2:
        Ra = deriv(R, grid)
        A_high += 2.0 * inner_h(dealias(bW * Ra, grid), Tird, grid)
    return B_high, A_high


def cubic_energy_high(n: int, diag: DiagState, aux=None) -> float:
    """Quasilinear modified energy E^{n,(3)}_high.

    E^(3)_high(w, r) = E^(2)_lin(w, r) - 1/4 E^(2)_{omega,lin}(w, r) with
    omega = (1 + T^2) Re W; defaults (w, r) = (d^{n-1} W, d^{n-1} R).  For
    n = 1 the finite-depth correction
    E^(3),a = -2 <W, W^2> + 2 <R, W T^{-1} R_alpha> is added.
    """
    if n < 1 or n > 2:
        raise ValueError("n must be 1 or 2")
    from .dynamics import model_energies
    from .grid import smooth_one_plus_T2
    grid = diag.grid
    bW = diag.bW.values
    R = diag.R.values
    if aux is None:
        aux = (deriv(bW, grid, n - 1) if n > 1 else bW,
               deriv(R, grid, n - 1) if n > 1 else R)
    omega = smooth_one_plus_T2(bW.real, grid)
    e2, e2w = model_energies(diag, aux, omega)
    out = e2 - 0.25 * e2w
    if n == 1:
        W2 = dealias(bW * bW, grid)
        corr = (-2.0 * inner_h(bW, W2, grid)
                + 2.0 * inner_h(R, dealias(bW * inv_tilbert(deriv(R, grid), grid),
                                           grid), grid))
        out += corr
    return out
