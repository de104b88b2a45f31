"""Algebra of strip-holomorphic boundary traces.

A trace ``u`` of a function holomorphic in the strip ``(-h, 0)`` and real on
the bottom satisfies ``Im u = -T_h Re u``.  Traces are plain complex sample
arrays on a :class:`~wavestrip.grid.SpectralGrid`, passed together with that
grid.  This module builds such traces from a real part and provides the
holomorphic / antiholomorphic projections, the depth-adapted inner products
(also from two spectra by Parseval) and norms, and the residual of the
constraint.

Zero-mode conventions: the underlying space does not see real constants, so
the mean of ``Re u`` is a gauge scalar excluded from every norm.  The mean of
``Im u`` is zero for a trace built from its real part (``holo_from_real``),
but nothing forces it: the conformal map puts the small vertical offset of
the surface there, and the time step keeps both means as it finds them.
The holomorphy residual is therefore measured modulo the ``Im`` mean.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import SpectralGrid, from_spectrum, lh_apply, tilbert, to_spectrum

__all__ = [
    "holo_from_real",
    "flip_combine",
    "project_spectrum",
    "project",
    "parseval_inner",
    "inner_h",
    "pair_form",
    "sobolev_weight",
    "grid_sobolev_weight",
    "sobolev_norm",
    "holomorphy_residual",
]


def holomorphy_residual(values: np.ndarray, grid: SpectralGrid) -> float:
    """Sup-norm defect of Im u = -T_h Re u per member, modulo the Im mean."""
    im = values.imag
    im = im - np.mean(im, axis=-1, keepdims=True)
    return np.max(np.abs(im + tilbert(values.real, grid)), axis=-1)


def holo_from_real(re: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Holomorphic trace with prescribed real part: u = re - i T_h re."""
    re = np.asarray(re, dtype=float)
    return re - 1j * tilbert(re, grid)


def flip_combine(c: np.ndarray, coeffs, grid: SpectralGrid,
                 out=None) -> np.ndarray:
    """a_k c_k + b_k conj(c_{-k}) from a spectrum (or a stack of them) and
    full-length symbols (a, b) = ``coeffs``, into ``out`` if given (``c``
    itself allowed), each product rounded as written.  The flip and the
    result are C-ordered like a stack ``c``, so a reduction keeps row bits."""
    a, b = coeffs
    flip = np.take(c, grid.neg_index, axis=-1)
    np.conjugate(flip, out=flip)
    np.multiply(b, flip, out=flip)
    out = np.multiply(a, c, out=out)
    out += flip
    return out


def project_spectrum(c: np.ndarray, grid: SpectralGrid,
                     out=None) -> np.ndarray:
    """Spectrum of the holomorphic projection (:func:`project`) of the
    spectrum ``c``: :func:`flip_combine` with the grid's ``project_coeffs``."""
    return flip_combine(c, grid.project_coeffs, grid, out=out)


def project(f: np.ndarray, grid: SpectralGrid,
            which: str = "holo") -> np.ndarray:
    """Holomorphic / antiholomorphic projection of a complex field.

    Spectral form of P u = 1/2[(1 - iT)Re u + i(1 + iT^{-1})Im u]:

        (P u)_k = 1/4 [(2 - t_k - 1/t_k) u_k + (1/t_k - t_k) conj(u_{-k})],

    with t_k = tanh(h xi_k) for k != 0, N/2.  On the two gauge modes, the
    mean (where T^{-1} is gauged to 0) and the Nyquist mode, u_k is split
    evenly, so P + Pbar = identity including the mean.  Both cases are one
    full-length product with the grid's ``project_coeffs``.  As on the
    transform path of :mod:`wavestrip.grid`, the spectrum's buffer takes
    the projection and then the result ("anti" takes one more buffer).
    """
    if which not in ("holo", "anti"):
        raise ValueError(f"which must be 'holo' or 'anti', got {which!r}")
    c = to_spectrum(np.asarray(f, dtype=np.complex128))
    if which == "holo":
        p = project_spectrum(c, grid, out=c)
    else:
        p = project_spectrum(c, grid)
        np.subtract(c, p, out=p)
    return from_spectrum(p, out=p)


def parseval_inner(u: np.ndarray, dual: np.ndarray, grid: SpectralGrid):
    """L Re sum_k conj(dual_k) u_k, one value per member.  With ``dual`` the
    :func:`flip_combine` of v's spectrum under ((w_re + w_im)/2,
    (w_re - w_im)/2) for real, even weights, it is by Parseval L Re sum_k
    [w_re Re-u_k conj(Re-v_k) + w_im Im-u_k conj(Im-v_k)]: :func:`inner_h`
    at (``grid.tanh2``, 1)."""
    return grid.L * np.vecdot(dual, u).real


def inner_h(u: np.ndarray, v: np.ndarray, grid: SpectralGrid,
            weight=None):
    """Depth-adapted inner product on boundary traces.

    <u, v> = integral( T Re u . T Re v + Im u . Im v ) d alpha, by the grid's
    trapezoidal (here: exact periodic) quadrature, one value per member of a
    stack.  Blind to real constants.  A real ``weight`` (array or scalar)
    multiplies the integrand inside the quadrature: <u, v>_weight.
    """
    tu = tilbert(u.real, grid)
    tv = tilbert(v.real, grid)
    integrand = tu * tv + u.imag * v.imag
    if weight is not None:
        if np.iscomplexobj(weight):
            raise ValueError("weight must be real")
        integrand = integrand * weight
    return np.sum(integrand, axis=-1) * grid.L / grid.N


def pair_form(p1, p2, g: float, grid: SpectralGrid) -> float:
    """Energy pairing g/2 <w1, w2> + 1/2 <L_h q1, L_h q2> of two (w, q) pairs;
    twice its value on one pair is the squared energy norm ||(w, q)||_H^2."""
    (w1, q1), (w2, q2) = p1, p2
    return (0.5 * g * inner_h(w1, w2, grid)
            + 0.5 * inner_h(lh_apply(q1, grid), lh_apply(q2, grid), grid))


def sobolev_weight(xi: np.ndarray, h: float, s: float) -> np.ndarray:
    """Inhomogeneous Japanese-bracket weight (h^{-1} sqrt(1 + h^2 xi^2))^s."""
    return (np.sqrt(1.0 + (h * np.asarray(xi, dtype=float)) ** 2) / h) ** s


@lru_cache(maxsize=64)
def grid_sobolev_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """:func:`sobolev_weight` on the grid's wavenumbers, built once per
    (grid, s) and read-only."""
    w = sobolev_weight(grid.xi, grid.h, s)
    w.setflags(write=False)
    return w


def sobolev_norm(f: np.ndarray, s: float, grid: SpectralGrid,
                 base: str = "l2") -> float:
    """Sobolev norm with the depth-uniform bracket weight, per member.

    base='l2'   : || <D>^s f ||_{L^2}     (used for graph-side quantities)
    base='holo' : sqrt(<v, v>) with v = <D>^s f in the trace inner product
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    c = to_spectrum(f) * grid_sobolev_weight(grid, s)
    if base == "l2":
        return np.sqrt(grid.L * np.sum(np.abs(c) ** 2, axis=-1))
    if base == "holo":
        vf = from_spectrum(c)
        return np.sqrt(inner_h(vf, vf, grid))
    raise ValueError(f"unknown base {base!r}")
