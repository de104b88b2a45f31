"""Periodic spectral substrate: grids, transforms, and the Tilbert calculus.

Everything downstream lives on a uniform periodic grid of ``N`` nodes over a
cell of length ``L``, above a flat bottom at depth ``h``.  Spectra are stored
in the standard FFT ordering ``k = 0, 1, ..., N/2-1, -N/2, ..., -1`` with the
Fourier-series normalization ``f(alpha) = sum_k c_k exp(i xi_k alpha)``,
``xi_k = 2 pi k / L``, so multiplier symbols act on coefficients directly.

The depth enters through the Tilbert transform, the Fourier multiplier
``-i tanh(h xi)`` -- the finite-depth analogue of the Hilbert transform -- and
the operators built from it (its gauged inverse, the half-order elliptic
weight L_h, and the smoothing multiplier sech^2(h xi)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpectralGrid",
    "make_grid",
    "to_spectrum",
    "from_spectrum",
    "apply_multiplier",
    "deriv",
    "tilbert",
    "inv_tilbert",
    "lh_apply",
    "lh_symbol",
    "smooth_one_plus_T2",
    "dealias",
    "dealias_band",
    "product",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with depth metadata.

    Attributes
    ----------
    L : float
        Period of the domain (length units).
    N : int
        Number of samples; must be even and at least 8.
    h : float
        Fluid depth (length units).
    """

    L: float
    N: int
    h: float

    def __post_init__(self):
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")
        if not (self.h > 0):
            raise ValueError(f"h must be positive, got {self.h}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """Physical collocation points alpha_j = j L / N."""
        return np.arange(self.N) * (self.L / self.N)

    @cached_property
    def k(self) -> np.ndarray:
        """Integer mode numbers in FFT ordering."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers xi_k = 2 pi k / L in FFT ordering."""
        return 2.0 * np.pi * self.k / self.L

    @cached_property
    def sech2(self) -> np.ndarray:
        """Smoothing symbol sech^2(h xi) in FFT ordering.

        Evaluated as 4 e^{-2|x|} / (1 + e^{-2|x|})^2, x = h xi, which cannot
        overflow: cosh(x)^2 does once |x| exceeds about 355 (from N = 712
        at unit depth on the 2 pi cell).
        """
        e = np.exp(-2.0 * np.abs(self.h * self.xi))
        return 4.0 * e / (1.0 + e) ** 2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping the 2/3-rule band |k| <= N/3."""
        return np.abs(self.k) <= self.N // 3

    @property
    def nyquist_index(self) -> int:
        return self.N // 2

    def same_as(self, other: "SpectralGrid") -> bool:
        return self.L == other.L and self.N == other.N and self.h == other.h

    def require_same(self, other: "SpectralGrid") -> None:
        if not self.same_as(other):
            raise ValueError(f"grid mismatch: {self} vs {other}")


def make_grid(L: float, N: int, h: float) -> SpectralGrid:
    """Construct a validated :class:`SpectralGrid`."""
    return SpectralGrid(float(L), int(N), float(h))


def to_spectrum(values: np.ndarray) -> np.ndarray:
    """Fourier-series coefficients c_k of sampled values (FFT ordering)."""
    values = np.asarray(values)
    return np.fft.fft(values) / values.shape[-1]


def from_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_spectrum`."""
    coeffs = np.asarray(coeffs)
    return np.fft.ifft(coeffs * coeffs.shape[-1])


def apply_multiplier(f: np.ndarray, m, grid: SpectralGrid) -> np.ndarray:
    """Apply a Fourier multiplier ``m`` to a sampled field.

    ``m`` may be a callable of the wavenumber array or a precomputed array of
    per-mode values in FFT ordering.  Real input with a symbol of proper
    parity comes back real (the tiny imaginary round-off is dropped).
    """
    mvals = np.asarray(m(grid.xi) if callable(m) else m)
    if not np.all(np.isfinite(mvals)):
        raise ValueError("multiplier is not finite at every grid wavenumber")
    was_real = np.isrealobj(f)
    out = from_spectrum(to_spectrum(f) * mvals)
    if was_real:
        # real-preserving symbols (odd-imaginary or even-real) give a real
        # result; verify rather than assume, so misuse surfaces in tests.
        if np.max(np.abs(out.imag)) <= 1e-12 * max(1.0, np.max(np.abs(out.real))):
            return out.real
    return out


def deriv(f: np.ndarray, grid: SpectralGrid, order: int = 1) -> np.ndarray:
    """Spectral derivative d^order/d alpha^order."""
    return apply_multiplier(f, (1j * grid.xi) ** order, grid)


def _tilbert_symbol(grid: SpectralGrid) -> np.ndarray:
    m = -1j * np.tanh(grid.h * grid.xi)
    # The symbol is odd; the unpaired Nyquist mode is assigned the odd-symbol
    # convention value 0 so that real fields map to real fields exactly.
    m[grid.nyquist_index] = 0.0
    return m


def tilbert(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Tilbert transform: Fourier multiplier -i tanh(h xi)."""
    return apply_multiplier(f, _tilbert_symbol(grid), grid)


def inv_tilbert(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Gauged inverse Tilbert transform: i coth(h xi), 0 on the mean.

    The zero mode has no well-defined preimage under the Tilbert transform;
    on the periodic cell the constant is pure gauge and is mapped to 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 1j / np.tanh(grid.h * grid.xi)
    m[0] = 0.0
    m[grid.nyquist_index] = 0.0  # odd-symbol convention, as in tilbert
    return apply_multiplier(f, m, grid)


def lh_symbol(xi: np.ndarray, h: float) -> np.ndarray:
    """Symbol of L_h = (-T_h^{-1} d/dalpha)^{1/2}: sqrt(xi coth(h xi)).

    The xi -> 0 limit of xi coth(h xi) is 1/h, giving sqrt(1/h) at the mean.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    nz = xi != 0.0
    out[nz] = np.sqrt(xi[nz] / np.tanh(h * xi[nz]))
    out[~nz] = np.sqrt(1.0 / h)
    return out


def lh_apply(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Apply the positive self-adjoint operator L_h."""
    return apply_multiplier(f, lh_symbol(grid.xi, grid.h), grid)


def smooth_one_plus_T2(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Apply 1 + T_h^2, i.e. the multiplier sech^2(h xi)."""
    return apply_multiplier(f, grid.sech2, grid)


def dealias(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Zero all modes with |k| > N/3 (2/3 rule). Idempotent."""
    was_real = np.isrealobj(f)
    out = from_spectrum(to_spectrum(f) * grid.dealias_mask)
    return out.real if was_real else out


def dealias_band(grid: SpectralGrid) -> int:
    """Largest retained integer mode number under the 2/3 rule."""
    return grid.N // 3


def product(f: np.ndarray, g: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Pointwise product followed by dealiasing."""
    return dealias(f * g, grid)
