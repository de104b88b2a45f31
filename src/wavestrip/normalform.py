"""Resonance analysis, normal-form symbols, and cubic-accurate energies.

The symbols are unit-depth (h = 1) functions; g stays free.  By the scaling
symmetry (``dynamics.scale_state``, lam = h) a cell (L, h) is the unit-depth
cell of length L/h, with W/h, Q/h^2, g/h and band modes at xi = kappa j,
kappa = 2 pi h / L.

The module has two layers:

* closed-form dispersion/resonance algebra on the plane xi + eta + zeta = 0
  (``dispersion_kit``, ``omega_resonance``) and the seven bilinear
  normal-form symbols obtained from the holomorphic 3x3 and mixed 4x4
  linear systems (``symbols_holo``, ``symbols_mixed``,
  ``system_residuals``), all of which take scalars or arrays;
* mode sums of a state over the symbol table: the quadratic normal-form
  change of variables (``nf_transform``) and the cubic-accurate energies
  of the diagonal variables, the normal-form energy (``nf_energy``) and
  the quasilinear modified energy (``cubic_energy_high``).

Every mode sum runs on one lattice, the modes (j, k) of the dealiased band
with output mode -(j + k), and is one of two reductions: a Hankel-weighted
form (the cubic energy, ``_preflip_cubic``) or anti-diagonal sums over
j + k (``nf_transform``).  Functions of a state act per member of a stack;
the lattice reductions take one member at a time, so no temporary of
theirs grows as B N^2.  Every symbol is i times a real function, so the
lattice table holds that function: seven float64 (2 band + 1)^2 arrays,
built a block of rows at a time, and the reductions put the factor i back
(``_holo_symbol_grids``).

Singular-line policy: the three lines xi = 0, eta = 0, zeta = 0 carry the
resonances.  The seven symbols have one evaluation rule, ``_symbols``, for
a point, a sample of points and the lattice table alike, so a point gets
exactly 1j times its table entry.  Off the lines every symbol is one closed
form, evaluated without cancellation near xi = 0 and eta = 0: the
differences of O(1) values of J there are formed by ``_J_excess`` as sums
of terms of one sign.  On xi = 0 and eta = 0 the symbols take their closed
limits.  The output line zeta = 0 is a genuine simple pole of all three
holomorphic symbols and of the mixed B^a/C^a; requesting a value there
raises :class:`SingularLineError`.  Near zeta = 0 the mixed forms
still lose accuracy (``_symbols``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (SpectralGrid, antideriv, dealias, dealias_band, deriv,
                   from_spectrum, inv_tilbert, smooth_one_plus_T2, to_spectrum)
from .holo import inner_h
from .dynamics import DiagState, WaveState, model_energies

__all__ = [
    "SingularLineError",
    "dispersion_kit",
    "omega_resonance",
    "symbols_holo",
    "symbols_mixed",
    "system_residuals",
    "nf_transform",
    "nf_energy",
    "cubic_energy_high",
]

class SingularLineError(ValueError):
    """Requested a symbol value on a line where it has a genuine pole."""


# ---------------------------------------------------------------------------
# dispersion algebra


def dispersion_kit(xi):
    """Depth-one dispersion data (J, J', omega, Lambda).

    J = xi tanh xi, J' = tanh xi + xi sech^2 xi, omega = -sgn(xi) sqrt(J),
    Lambda = J'^2 - 4J (negative away from xi = 0).  sech^2 is written as
    4u/(1 + u)^2, u = e^{-2|xi|}, which cannot overflow.
    """
    xi = np.asarray(xi, dtype=float)
    t = np.tanh(xi)
    J = xi * t
    u = np.exp(-2.0 * np.abs(xi))
    Jp = t + 4.0 * xi * u / (1.0 + u) ** 2
    om = -np.sign(xi) * np.sqrt(J)
    Lam = Jp ** 2 - 4.0 * J
    return J, Jp, om, Lam


def _J(x):
    x = np.asarray(x, dtype=float)
    return x * np.tanh(x)


def _J_excess(a, b):
    """J(a + b) - J(a) - J(b), as a sum of terms of one sign.

    For a, b of one sign, tanh(a + b) = (tanh a + tanh b)/(1 + tanh a tanh b)
    gives (a tanh b sech^2 a + b tanh a sech^2 b) / (1 + tanh a tanh b),
    with sech^2 x = 4u/(1 + u)^2, u = e^{-2|x|}.  For opposite signs, with d
    the smaller of a, b in size and c the other,
    tanh x - tanh y = tanh(x - y)(1 - tanh x tanh y) gives
    J(c + d) - J(c) - J(d) = d (tanh(c + d) - tanh d)
    + c tanh(d)(1 - tanh c tanh(c + d)), whose two terms are negative.  So nothing cancels near
    a = 0 or b = 0, where the excess is O(distance) but J(a + b) and J(a)
    are O(1), nor far out in the same-sign quadrant, where it is
    exponentially small.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ta, tb = np.tanh(a), np.tanh(b)
    abs_a, abs_b = np.abs(a), np.abs(b)
    ua, ub = np.exp(-2.0 * abs_a), np.exp(-2.0 * abs_b)
    same = (4.0 * (a * tb * ua / (1.0 + ua) ** 2 + b * ta * ub / (1.0 + ub) ** 2)
            / (1.0 + ta * tb))
    first = abs_a >= abs_b
    c, d = np.where(first, a, b), np.where(first, b, a)
    tc, td = np.where(first, ta, tb), np.where(first, tb, ta)
    t = np.tanh(c + d)
    opposite = d * (t - td) + c * td * (1.0 - tc * t)
    return np.where(a * b >= 0.0, same, opposite)


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
    # factored evaluation (J_c - J_a - J_b)^2 - 4 J_a J_b with c the largest
    # coordinate: near a line one of a, b is small, and both terms are of
    # the order of its square, where the direct quadratic form cancels O(1)
    # terms and loses every digit
    x, e, z = np.abs(xi), np.abs(eta), np.abs(zeta)
    xi_largest = (x >= e) & (x >= z)
    a = np.where(xi_largest, eta, xi)
    b = np.where(xi_largest | (e >= z), zeta, eta)
    return _J_excess(a, b) ** 2 - 4.0 * _J(a) * _J(b)


# ---------------------------------------------------------------------------
# normal-form symbols: raw closed forms


def _symbols_holo_raw(xi, eta):
    """(A^h, B^h, C^h) by the closed-form solution of the 3x3 system.

    Valid off the three lines; vectorized.  Singular (division by an Omega
    zero or a zeta pole) entries come back as inf/nan.
    """
    zeta = -(xi + eta)
    Jx, Je = _J(xi), _J(eta)
    Om = omega_resonance(xi, eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        # J(zeta) - J(xi) + J(eta) = -(J(xi) - J(eta) - J(zeta))
        Ah = -2j * eta * Jx * _J_excess(eta, zeta) / Om
        Bh = -2j * zeta * Jx * Je / Om
        Ch = -1j * xi * eta * zeta * _J_excess(xi, eta) / Om
    return Ah, Bh, Ch


def _symbols_mixed_raw(xi, eta, Bh, Ch):
    """(A^a, B^a, C^a, D^a) evaluated at (xi, -eta), off the lines.

    Closed forms in terms of the caller's B^h(xi, eta), C^h(xi, eta) with
    zeta = -(xi + eta); the exponential prefactors are written through
    sigmoids of 2 zeta so that nothing overflows for large |zeta|.
    """
    zeta = -(xi + eta)
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
    J, _, _, Lam = dispersion_kit(eta)
    # B^h, C^h are symmetric in (xi, eta)
    return (4j * eta * J / Lam,) + _holo_limits_eta0(eta)[1:]


def _mixed_limits_eta0(xi):
    J, Jp, _, Lam = dispersion_kit(xi)
    with np.errstate(over="ignore"):
        # 1/(e^{2 xi} + 1) and 1/(e^{2 xi} - 1), overflow-free
        plus = 1.0 / (1.0 + np.exp(2.0 * xi))
        minus = 1.0 / np.expm1(2.0 * xi)
    common = 2.0 * J - xi * Jp + J * Jp
    other = 2.0 * J - 2.0 * xi + Jp
    return (1j * common * plus / Lam, 1j * J * other * minus / Lam,
            1j * xi * common * minus / Lam, 1j * xi * other * plus / Lam)


def _mixed_limits_xi0(eta):
    J, Jp, _, Lam = dispersion_kit(eta)
    with np.errstate(over="ignore"):
        plus = 1.0 / (1.0 + np.exp(2.0 * eta))
        minus = 1.0 / np.expm1(2.0 * eta)
    common = 2.0 * J - eta * Jp - J * Jp
    AB = 1j * J * (2.0 * J + 2.0 * eta - Jp) * minus / Lam
    return (AB, AB, -1j * eta * common * minus / Lam,
            -1j * common * plus / Lam)


_SYMBOL_NAMES = ("Ah", "Bh", "Ch", "Aa", "Ba", "Ca", "Da")


def _symbols(xi, eta) -> tuple:
    """The seven symbols (A^h, B^h, C^h, A^a, B^a, C^a, D^a): the one rule.

    xi and eta are scalars or arrays that broadcast; scalars give numpy
    scalars, arrays arrays of the broadcast shape.  Off the three lines the
    closed forms are evaluated; through :func:`_J_excess` they carry no
    cancellation near xi = 0 or eta = 0.  On eta = 0 and xi = 0, where the
    quotients are 0/0, the closed limits are written in by boolean index;
    a line that holds no point costs nothing.
    If any point lies on zeta = 0, where A^h, B^h, C^h, B^a and C^a have a
    simple pole, :class:`SingularLineError` is raised.  The mixed forms
    take B^h and C^h from the same evaluation.

    Near zeta = 0 the mixed forms lose accuracy: each is a sum of terms of
    order 1/zeta^2 (the prefactor e^{2 zeta}/(e^{2 zeta} - 1) ~ 1/(2 zeta)
    times B^h/zeta and C^h/zeta) that cancel down to the simple pole.
    """
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    if np.any(xi + eta == 0.0):
        raise SingularLineError("the normal-form symbols have a simple pole "
                                "on zeta = 0")
    on_eta0 = eta == 0.0
    on_xi0 = xi == 0.0
    off = ~(on_eta0 | on_xi0)
    x, e = xi[off], eta[off]
    holo = _symbols_holo_raw(x, e)
    parts = [(off, holo + _symbols_mixed_raw(x, e, *holo[1:]))]
    if on_eta0.any():
        parts.append((on_eta0, _holo_limits_eta0(xi[on_eta0])
                      + _mixed_limits_eta0(xi[on_eta0])))
    if on_xi0.any():
        parts.append((on_xi0, _holo_limits_xi0(eta[on_xi0])
                      + _mixed_limits_xi0(eta[on_xi0])))
    out = [np.empty(xi.shape, dtype=complex) for _ in _SYMBOL_NAMES]
    for where, values in parts:
        for o, v in zip(out, values):
            o[where] = v
    return tuple(o[()] for o in out)


def symbols_holo(xi, eta) -> tuple:
    """Normal-form symbols (A^h, B^h, C^h) at points of the plane.

    Closed forms off the lines, closed limits on xi = 0 and eta = 0
    (:func:`_symbols`); scalars or arrays.  On the output line zeta = 0 all
    three have simple poles and :class:`SingularLineError` is raised.
    """
    return _symbols(xi, eta)[:3]


def symbols_mixed(xi, eta) -> tuple:
    """Mixed symbols (A^a, B^a, C^a, D^a) evaluated at (xi, -eta).

    Evaluated like :func:`symbols_holo`, with closed limits for all four
    on xi = 0 and on eta = 0.  B^a and C^a keep a genuine pole on
    zeta = 0.
    """
    return _symbols(xi, eta)[3:]


def system_residuals(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Relative residuals of the defining 3x3 and 4x4 symbol systems.

    The computed symbols are substituted back into the linear systems they
    solve; the residual vectors are normalized by the largest row scale, so
    values near machine precision certify the closed forms.  xi and eta are
    scalars or arrays that broadcast; r3[i] and r4[i] are the residuals of
    row i, each of the broadcast shape.
    """
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    s = xi + eta
    tx, te, ts = np.tanh(xi), np.tanh(eta), np.tanh(s)
    Ah, Bh, Ch, Aa, Ba, Ca, Da = _symbols(xi, eta)
    # A^h is not symmetric; the first-row constraint is pointwise, while the
    # remaining two involve the (xi, eta)-symmetrized combinations through
    # which the bilinear operator actually enters the equations.
    Ah_sw = symbols_holo(eta, xi)[0]
    xA = 0.5 * (xi * Ah + eta * Ah_sw)
    tA = 0.5 * (te * Ah + tx * Ah_sw)
    rows3 = np.array([s * Ah - 2.0 * eta * Bh - 2.0 * tx * Ch,
                      -xA + ts * Ch - 1j * xi * eta,
                      -tA + ts * Bh])
    scales3 = np.array([
        np.abs(s * Ah) + np.abs(2.0 * eta * Bh) + np.abs(2.0 * tx * Ch),
        np.abs(xA) + np.abs(ts * Ch) + np.abs(xi * eta),
        np.abs(tA) + np.abs(ts * Bh),
    ])
    # one global scale: rows whose entries all decay exponentially would
    # otherwise compare round-off noise against itself
    r3 = np.abs(rows3) / np.maximum(scales3.max(axis=0), 1e-300)

    zero = np.zeros(s.shape)
    M4 = np.array([[s, -eta, -tx, zero],
                   [zero, -xi, -te, s],
                   [-xi, zero, ts, -eta],
                   [-te, ts, zero, -tx]])
    # 1 - coth(s) and 1 - tanh(s) via expm1/sigmoid: both decay like
    # e^{-2s} and would otherwise round to zero against the unit part
    one_m_coth = -2.0 / np.expm1(2.0 * s)
    one_m_tanh = 2.0 / (1.0 + np.exp(2.0 * s))
    rhs4 = np.array([0.5j * one_m_coth * xi * eta,
                     -0.5j * one_m_coth * xi * eta,
                     0.5j * one_m_tanh * xi * eta,
                     zero])
    v4 = np.array([Aa, Ba, Ca, Da])
    # M4 @ v4 at every point
    resid4 = np.einsum("ij...,j...->i...", M4, v4) - rhs4
    scale4 = (np.einsum("ij...,j...->i...", np.abs(M4), np.abs(v4))
              + np.abs(rhs4))
    r4 = np.abs(resid4) / np.maximum(scale4.max(axis=0), 1e-300)
    return r3, r4


# ---------------------------------------------------------------------------
# lattice machinery (band modes j; unit-depth wavenumbers kappa j)


def _kappa(grid: SpectralGrid) -> float:
    """Lattice spacing kappa = 2 pi h / L of the cell's unit-depth image."""
    return 2.0 * np.pi * grid.h / grid.L


def _band_coeffs(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Spectrum entries for the band's integer modes -band..band as index
    m + band (``grid.band_index``)."""
    # np.take keeps each member's row contiguous: BLAS sums it as if alone
    return np.take(to_spectrum(values), grid.band_index, axis=-1)


def _band_samples(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Inverse of :func:`_band_coeffs`: samples whose spectrum is ``coeffs``
    on the band and zero off it."""
    c = np.zeros(coeffs.shape[:-1] + (grid.N,), dtype=complex)
    c[..., grid.band_index] = coeffs
    return from_spectrum(c)


def _holo_symbol_grids(band: int, kappa: float) -> dict:
    """Im S of the seven symbols on the lattice kappa (j, k), lines set to 0.

    Every symbol is i times a real function, so the table holds that real
    function: entry [j + band, k + band] of a name is Im of :func:`_symbols`
    at kappa (j, k), bit for bit, and 1j times it is the pointwise value.
    Each is a float64 (2 band + 1)^2 array, filled a block of lattice rows
    at a time, with at most ``_SYMBOL_ENTRIES`` points a block, so the build
    holds the table and one block's values.  The lattice never touches the
    singular lines because rows/columns with j = 0, k = 0 or j + k = 0 are
    zeroed (their field coefficients vanish for the mean-free inputs used
    here, and the zero output mode is left out of every sum).  Off those
    lines every entry must be finite and have real part exactly 0; any
    other raises.  Only the (band, kappa) in use is kept: a new one
    replaces the table.
    """
    cached = _symbol_cache.get((band, kappa))
    if cached is not None:
        return cached
    _symbol_cache.clear()
    j = np.arange(-band, band + 1, dtype=float)
    out = {name: np.zeros((j.size, j.size)) for name in _SYMBOL_NAMES}
    rows = max(1, _SYMBOL_ENTRIES // j.size)
    for start in range(0, j.size, rows):
        jr = j[start:start + rows, None]
        mask = (jr != 0) & (j != 0) & (jr + j != 0)
        XI, ETA = np.broadcast_arrays(kappa * jr, kappa * j)
        # an overflowed closed form is refused below, on one line
        with np.errstate(over="ignore"):
            values = _symbols(XI[mask], ETA[mask])
        for name, vals in zip(_SYMBOL_NAMES, values):
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite {name} symbol at kappa "
                                 f"{kappa!r}")
            if np.any(vals.real != 0.0):
                raise ValueError(f"{name} symbol with a nonzero real part at "
                                 f"kappa {kappa!r}")
            out[name][start:start + rows][mask] = vals.imag
    _symbol_cache[(band, kappa)] = out
    return out


# Lattice points per block of :func:`_holo_symbol_grids`: one block's
# symbol values and intermediates take the same memory whatever the band
_SYMBOL_ENTRIES = 1 << 12
_symbol_cache: dict = {}


def _members(c: np.ndarray) -> np.ndarray:
    """The members of a stack of vectors (last axis), one per row; a lone
    vector is one row."""
    return c.reshape((-1,) + c.shape[-1:])


def _hankel_form(H: np.ndarray, S, c1: np.ndarray, c2: np.ndarray):
    """Re sum_{j,k} S[j, k] H[j, k] c1[j] c2[k], one value per member.

    H is the Hankel view (``sliding_window_view(weight, 2 band + 1, -1)``) of
    a weight over the output frequency m = j + k, -2 band .. 2 band, and
    has the members of c1 and c2.  Each member is its own expression
    ``Re vecdot(conj(c1), matvec(S * H, c2))``, so it keeps the bits of a
    single-member call, and the one temporary ``S * H`` is a (2 band + 1)^2
    table whatever the stack's size.
    """
    # a BLAS mat-vec, which beats einsum at every band; forming S * H costs
    # more than the mat-vec itself
    size = c1.shape[-1]
    forms = [np.real(np.vecdot(np.conj(a), np.matvec(S * h, b)))
             for h, a, b in zip(H.reshape((-1, size, size)), _members(c1),
                                _members(c2))]
    return np.reshape(forms, c1.shape[:-1])[()]


def _antidiagonal_modes(P: np.ndarray) -> np.ndarray:
    """Output modes sum_{j + k = m} P[j, k] for |m| <= band, index m + band.

    A skewed copy of the square P turns its anti-diagonals into columns.
    """
    size = P.shape[-1]
    band = size // 2
    skew = np.pad(P, ((0, 0), (0, size))).reshape(-1)[:size * (2 * size - 1)]
    return skew.reshape(size, -1).sum(axis=0)[band:3 * band + 1]


def _conj_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(f^(-xi)) on the symmetric band array (index m + band)."""
    return np.conj(coeffs[..., ::-1])


def nf_transform(state: WaveState) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic normal-form change of variables (W~, Q~).

    W~ = W + B^h[W,W] + (1/g) C^h[Q,Q] + B^a[W, conj W] + (1/g) C^a[Q, conj Q]
    Q~ = Q + A^h[W,Q] + A^a[W, conj Q] + D^a[Q, conj W]

    evaluated as double mode sums over the dealiased band.  The zero output
    mode keeps its original coefficient: the symbols have genuine simple
    poles at zero output frequency, and the periodic cell has no continuum
    of modes there to cancel them, so the symbol table is 0 on j + k = 0.
    The sums run in the cell's unit-depth image (module docstring); the
    corrections scale back by h for W and h^2 for Q.  The kernels are built
    one member at a time from the table's imaginary parts, and each sum is
    multiplied by 1j, so the (2 band + 1)^2 tables they take do not grow
    with a stack's size.
    """
    grid = state.grid
    lam = grid.h
    Wv, Qv = state.W, state.Q
    g = state.g / lam
    sym = _holo_symbol_grids(dealias_band(grid), _kappa(grid))
    w = _band_coeffs(Wv - np.mean(Wv, -1, keepdims=True), grid) / lam
    q = _band_coeffs(Qv - np.mean(Qv, -1, keepdims=True), grid) / lam**2
    dW, dQ = np.empty_like(_members(w)), np.empty_like(_members(q))
    for j, (wj, qj) in enumerate(zip(_members(w), _members(q))):
        # outer products: columns times rows
        wc, qc = wj[:, None], qj[:, None]
        wr, qr, wbr, qbr = (a[None, :] for a in
                            (wj, qj, _conj_flip(wj), _conj_flip(qj)))
        # the table holds Im S, so the sums are 1j times those of its terms
        dW[j] = 1j * _antidiagonal_modes(
            sym["Bh"] * (wc * wr) + sym["Ch"] * (qc * qr) / g
            + sym["Ba"] * (wc * wbr) + sym["Ca"] * (qc * qbr) / g)
        dQ[j] = 1j * _antidiagonal_modes(
            sym["Ah"] * (wc * qr) + sym["Aa"] * (wc * qbr)
            + sym["Da"] * (qc * wbr))
    Wt = Wv + lam * _band_samples(dW.reshape(w.shape), grid)
    Qt = Qv + lam ** 2 * _band_samples(dQ.reshape(q.shape), grid)
    return Wt, Qt


# The mixed-argument convention: the antiholomorphic slot enters through
# conj(f^)(-eta) with (xi, eta, zeta) still on the plane, so every bilinear
# and trilinear sum below lives on the same band lattice.


# ---------------------------------------------------------------------------
# cubic-accurate energies in the diagonal variables


def _rung(n: int, grid: SpectralGrid) -> Callable[[np.ndarray], np.ndarray]:
    """f -> d^{n-1} f, the field the n-th energy is built on, for n in {1, 2}.

    For n = 1 this is the identity and costs no FFT.
    """
    if n < 1 or n > 2:
        raise ValueError("n must be 1 or 2")
    if n == 1:
        return lambda f: f
    return lambda f: deriv(f, grid)


def _E0(w: np.ndarray, r: np.ndarray, g: float, grid: SpectralGrid) -> float:
    """Quadratic energy E0(w, r) = g <w, w> - <r, T^{-1} r_alpha>."""
    return (g * inner_h(w, w, grid)
            - inner_h(r, inv_tilbert(deriv(r, grid), grid), grid))


def _preflip_cubic(n: int, w: np.ndarray, q: np.ndarray, g: float,
                   grid: SpectralGrid) -> float:
    """Cubic part g B~ + A~ of the normal-form energy, pre-flip evaluation.

    The seven double sums of the construction are evaluated with conjugated
    coefficients in the antiholomorphic slots, never with e^{2 xi} factors,
    so nothing grows; the front constant 2L is the discrete image of the
    continuum normalization (the symbol-1 calibration constant L times the
    explicit factor 2 of the trilinear representation).

    Each sum runs over the lattice (xi, eta) = kappa (j, k) and weights the
    symbol by a factor of the output frequency zeta = -kappa (j + k) alone:
    zeta^{2n} times the flip defect of w for the B and C sums, and
    coth(zeta) zeta^{2n+1} times that of q for the A and D sums.  Each
    weight is therefore one vector over j + k, read as a Hankel matrix H (a
    strided view, zero where |j + k| exceeds the band), and each sum is the
    form c1 @ ((S * H) @ c2), :func:`_hankel_form`, taken one member of a
    stack at a time: a sum holds one (2 band + 1)^2 table however many
    members the stack has.

    The sums run in the cell's unit-depth image (module docstring); the
    cubic part of E^n has scaling degree 4 - 2n, so it scales back by
    h^(4 - 2n).
    """
    lam = grid.h
    kappa = _kappa(grid)
    band = dealias_band(grid)
    size = 2 * band + 1
    sym = _holo_symbol_grids(band, kappa)
    cw = _band_coeffs(w - np.mean(w, -1, keepdims=True), grid) / lam
    cq = _band_coeffs(q - np.mean(q, -1, keepdims=True), grid) / lam**2
    cwb = _conj_flip(cw)
    cqb = _conj_flip(cq)
    # output frequency zeta = -kappa m for m = j + k in -2 band .. 2 band,
    # and the flip defects conj(c^)(-zeta) - c^(zeta) along m, 0 off the band
    zeta = -kappa * np.arange(-2 * band, 2 * band + 1, dtype=float)
    pad = ((0, 0),) * (cw.ndim - 1) + ((band, band),)
    dw = np.pad((cwb - cw)[..., ::-1], pad)
    dq = np.pad((cqb - cq)[..., ::-1], pad)
    with np.errstate(divide="ignore", invalid="ignore"):
        coth = np.where(zeta == 0.0, 0.0, 1.0 / np.tanh(zeta))
    Hw = sliding_window_view(zeta ** (2 * n) * dw, size, -1)
    Hq = sliding_window_view(coth * zeta ** (2 * n + 1) * dq, size, -1)
    # the table holds Im S: Re(c1 (i S o H) c2) = Re((i c1) (S o H) c2), and
    # multiplying by 1j is exact
    icw, icq = 1j * cw, 1j * cq
    B_val = (_hankel_form(Hw, sym["Bh"], icw, cw)
             + _hankel_form(Hw, sym["Ba"], icw, cwb))
    A_val = (_hankel_form(Hw, sym["Ch"], icq, cq)
             + _hankel_form(Hw, sym["Ca"], icq, cqb)
             + _hankel_form(Hq, sym["Ah"], icw, cq)
             + _hankel_form(Hq, sym["Aa"], icw, cqb)
             + _hankel_form(Hq, sym["Da"], icq, cwb))
    return (2.0 * (grid.L / lam) * (g / lam * B_val + A_val)
            * lam ** (4 - 2 * n))


def nf_energy(n: int, diag: DiagState) -> float:
    """Normal-form energy E^n_NF, quadratic + cubic, quartic-accurate.

    E^n_NF = E0(d^{n-1} W, d^{n-1} R)
             - 2 <[R W]^{(n-1)}, T^{-1} d^{n-1} R_alpha>
             + g B~1(W, W, W) + A~1(W, R, R),

    with the trilinear symbols evaluated through the undifferentiated
    potentials (the division by (i xi)(i eta)(i zeta) is realized by
    feeding antiderivatives to the pre-flip double sums).
    """
    quad, cross, cubic = _nf_energy_terms(n, diag)
    return quad + cross + cubic


def _nf_energy_terms(n: int, diag: DiagState):
    """The three terms of :func:`nf_energy`, which sums them in this order;
    at n = 1 the first is E0(W, R)."""
    grid, g, bW, R = diag.grid, diag.g, diag.bW, diag.R
    dn = _rung(n, grid)
    wd, rd = dn(bW), dn(R)
    quad = _E0(wd, rd, g, grid)
    RWd = dn(dealias(R * bW, grid))
    cross = -2.0 * inner_h(RWd, inv_tilbert(deriv(rd, grid), grid), grid)
    return quad, cross, _preflip_cubic(n, antideriv(bW, grid),
                                       antideriv(R, grid), g, grid)


def cubic_energy_high(n: int, diag: DiagState) -> float:
    """Quasilinear modified energy E^{n,(3)}_high.

    E^(3)_high(w, r) = E^(2)_lin(w, r) - 1/4 E^(2)_{omega,lin}(w, r) with
    omega = (1 + T^2) Re W at (w, r) = (d^{n-1} W, d^{n-1} R).  For
    n = 1 the finite-depth correction
    E^(3),a = -2 <W, W^2> + 2 <R, W T^{-1} R_alpha> is added.
    """
    grid, bW, R = diag.grid, diag.bW, diag.R
    dn = _rung(n, grid)
    pair = (dn(bW), dn(R))
    omega = smooth_one_plus_T2(bW.real, grid)
    e2, e2w = model_energies(diag, pair, omega)
    out = e2 - 0.25 * e2w
    if n == 1:
        W2 = dealias(bW * bW, grid)
        corr = (-2.0 * inner_h(bW, W2, grid)
                + 2.0 * inner_h(R, dealias(bW * inv_tilbert(deriv(R, grid), grid),
                                           grid), grid))
        out += corr
    return out
