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

Every Fourier symbol of the calculus, with its zero-mode and Nyquist
conventions, is built once per grid as a read-only cached attribute of
:class:`SpectralGrid`, and every transform goes through :func:`to_spectrum`
and :func:`from_spectrum`.

Every Fourier multiplier takes one transform path, :func:`_transform`: the
forward FFT into a new buffer, the symbol multiplied into that buffer in
place, and the inverse FFT written back into the same buffer (the ``out``
argument of :func:`from_spectrum`).  So an operator allocates its output
and nothing else, and still makes one ``numpy.fft.fft`` and one
``numpy.fft.ifft`` call.  The in-place product ``c *= m`` is the same
product as ``c * m``, bit for bit, for the bool, float and complex symbols
used here, on a single field and on a stack; tests/test_grid.py pins it.

Transforms and multipliers act on the last axis, so a stack of fields
shaped (B, N) goes through each operator in one call.  Its rows equal the
single-field results bit for bit while a stacked array stays below numpy's
256 KiB temporary-elision size (B N < 16384 complex samples); above it
numpy evaluates some complex products of an expression in place, by
another loop, and rows can move at round-off.  A row that reaches BLAS must
be contiguous: BLAS sums a strided row by another kernel, also at
round-off.  The real-output check of :func:`apply_multiplier` is taken over
the whole stack.
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
    "antideriv",
    "lh_apply",
    "lh_symbol",
    "smooth_one_plus_T2",
    "dealias",
    "dealias_band",
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
    def ixi(self) -> np.ndarray:
        """i xi, the symbol of d/dalpha, in FFT ordering."""
        return _frozen(1j * self.xi)

    @cached_property
    def tanh(self) -> np.ndarray:
        """tanh(h xi), the Tilbert symbol's magnitude, in FFT ordering."""
        return _frozen(np.tanh(self.h * self.xi))

    @cached_property
    def neg_index(self) -> np.ndarray:
        """Index of the mode -k for each mode k: (-k) mod N."""
        return _frozen((-self.k) % self.N)

    @cached_property
    def tilbert_symbol(self) -> np.ndarray:
        """-i tanh(h xi); the unpaired Nyquist mode gets the odd-symbol value 0
        so that real fields map to real fields exactly."""
        m = -1j * self.tanh
        m[self.nyquist_index] = 0.0
        return _frozen(m)

    @cached_property
    def inv_tilbert_symbol(self) -> np.ndarray:
        """i coth(h xi), gauged to 0 on the mean and (odd symbol) at Nyquist."""
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1j / self.tanh
        m[0] = 0.0
        m[self.nyquist_index] = 0.0
        return _frozen(m)

    @cached_property
    def lh(self) -> np.ndarray:
        """Symbol of L_h, see :func:`lh_symbol`."""
        return _frozen(lh_symbol(self.xi, self.h))

    @cached_property
    def interior(self) -> np.ndarray:
        """Boolean mask of the modes k != 0, N/2, which pair with a distinct -k."""
        return _frozen((self.k != 0) & (np.abs(self.k) != self.nyquist_index))

    @cached_property
    def project_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-length coefficients (pa, pb) of the holomorphic projection.

        (P u)_k = pa_k u_k + pb_k conj(u_{-k}): on the interior modes
        pa = (2 - t - 1/t)/4 and pb = (1/t - t)/4 with t = tanh(h xi); on the
        two gauge modes pa = 1/2 and pb = 0, see :func:`wavestrip.holo.project`.
        Both are real and held as complex128, like :attr:`dealias_symbol`.
        """
        inner = self.interior
        t = self.tanh[inner]
        pa = np.full(self.N, 0.5 + 0j)
        pb = np.zeros(self.N, np.complex128)
        pa[inner] = 0.25 * (2.0 - t - 1.0 / t)
        pb[inner] = 0.25 * (1.0 / t - t)
        return _frozen(pa), _frozen(pb)

    @cached_property
    def tanh2(self) -> np.ndarray:
        """|tilbert_symbol|^2: tanh(h xi)^2, 0 at Nyquist.

        The weight of the Re part in the trace inner product taken by
        Parseval, see :func:`wavestrip.holo.parseval_inner`.
        """
        return _frozen(np.abs(self.tilbert_symbol) ** 2)

    @cached_property
    def sech2(self) -> np.ndarray:
        """Smoothing symbol sech^2(h xi) in FFT ordering.

        Evaluated as 4 e^{-2|x|} / (1 + e^{-2|x|})^2, x = h xi, which cannot
        overflow: cosh(x)^2 does once |x| exceeds about 355 (from N = 712
        at unit depth on the 2 pi cell).
        """
        e = np.exp(-2.0 * np.abs(self.h * self.xi))
        return _frozen(4.0 * e / (1.0 + e) ** 2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping the 2/3-rule band |k| <= N/3."""
        return _frozen(np.abs(self.k) <= self.N // 3)

    @cached_property
    def dealias_symbol(self) -> np.ndarray:
        """:attr:`dealias_mask` as a complex128 multiplier of ones and zeros.

        A complex spectrum times it equals the spectrum times the mask bit
        for bit, since numpy casts a bool or real operand of a complex
        product to complex; a complex operand spares that cast.
        """
        return _frozen(self.dealias_mask.astype(np.complex128))

    @property
    def nyquist_index(self) -> int:
        return self.N // 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached per-grid array read-only, so no caller can alter it.

    Every cached multiplier passes through here once per grid, so this is
    where a value that is not finite at some grid wavenumber is refused.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("multiplier is not finite at every grid wavenumber")
    a.setflags(write=False)
    return a


def make_grid(L: float, N: int, h: float) -> SpectralGrid:
    """Construct a validated :class:`SpectralGrid`."""
    return SpectralGrid(float(L), int(N), float(h))


def to_spectrum(values: np.ndarray) -> np.ndarray:
    """Fourier-series coefficients c_k of sampled values (FFT ordering).

    The coefficients are complex128, written into a new array handed to the
    FFT, which spares it working out the output's type and shape.
    """
    return np.fft.fft(values, norm="forward",
                      out=np.empty(np.shape(values), np.complex128))


def from_spectrum(coeffs: np.ndarray, out=None) -> np.ndarray:
    """Inverse of :func:`to_spectrum`, into ``out`` if given, which may be
    ``coeffs`` itself."""
    return np.fft.ifft(coeffs, norm="forward", out=out)


def _transform(f: np.ndarray, m) -> np.ndarray:
    """``from_spectrum(to_spectrum(f) * m)`` in one complex buffer: the
    transform path of every Fourier multiplier (see the module docstring).
    ``m`` acts on the last axis and must not broadcast ``f`` to more rows."""
    c = to_spectrum(f)
    c *= m
    return from_spectrum(c, out=c)


def apply_multiplier(f: np.ndarray, m, grid: SpectralGrid) -> np.ndarray:
    """Apply a Fourier multiplier ``m`` to a sampled field.

    ``m`` holds the per-mode values in FFT ordering, all finite: the grid's
    cached symbols are checked once, when they are built (:func:`_frozen`).
    Real input with a symbol of proper parity comes back real (the tiny
    imaginary round-off is dropped).
    """
    f = np.asarray(f)
    out = _transform(f, m)
    if f.dtype.kind != "c":
        # real-preserving symbols (odd-imaginary or even-real) give a real
        # result; verify rather than assume, so misuse surfaces in tests.
        if np.abs(out.imag).max() <= 1e-12 * max(1.0, np.abs(out.real).max()):
            return out.real
    return out


def deriv(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Spectral derivative d/dalpha."""
    return apply_multiplier(f, grid.ixi, grid)


def tilbert(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Tilbert transform: Fourier multiplier -i tanh(h xi)."""
    return apply_multiplier(f, grid.tilbert_symbol, grid)


def inv_tilbert(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Gauged inverse Tilbert transform: i coth(h xi), 0 on the mean.

    The zero mode has no well-defined preimage under the Tilbert transform;
    on the periodic cell the constant is pure gauge and is mapped to 0.
    """
    return apply_multiplier(f, grid.inv_tilbert_symbol, grid)


def antideriv(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Mean-free spectral antiderivative (complex samples).

    The mean has no preimage under d/dalpha and the unpaired Nyquist mode
    follows the odd-symbol convention; both map to 0.
    """
    c = to_spectrum(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(grid.xi != 0.0, c / grid.ixi, 0.0)
    a[..., grid.nyquist_index] = 0.0
    return from_spectrum(a)


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
    return apply_multiplier(f, grid.lh, grid)


def smooth_one_plus_T2(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Apply 1 + T_h^2, i.e. the multiplier sech^2(h xi)."""
    return apply_multiplier(f, grid.sech2, grid)


def dealias(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Zero all modes with |k| > N/3 (2/3 rule). Idempotent."""
    f = np.asarray(f)
    out = _transform(f, grid.dealias_symbol)
    return out if f.dtype.kind == "c" else out.real


def dealias_band(grid: SpectralGrid) -> int:
    """Largest retained integer mode number under the 2/3 rule."""
    return grid.N // 3
