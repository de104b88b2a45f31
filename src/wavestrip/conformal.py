"""Conformal parametrization of a graph surface.

Given a periodic surface elevation ``y = eta(x)`` over a flat bottom at depth
``h``, find the boundary trace ``W`` of the conformal map from the reference
strip, so that the free surface is ``Z(alpha) = alpha + W(alpha)`` with
``Im W(alpha) = eta(alpha + Re W(alpha))``.  The real and imaginary parts of
the trace are linked by ``Im W = -T_h[Re W]`` up to the mean of ``Im W``,
which records the (second-order small) offset between the graph's mean level
in physical and conformal sampling.

The construction is a fixed-point iteration: starting from ``Y_0 = eta``,
alternate ``Re W = -T_h^{-1} Y`` (horizontal-translation gauge: mean
``Re W = 0``) with resampling ``Y <- eta(alpha + Re W(alpha))`` by
trigonometric interpolation.  It contracts for small surface slope.

Trigonometric interpolation at M points never forms the M x N matrix of
phases exp(i x xi_k): :func:`trig_interp` factors each phase into one of
m = ceil(sqrt(N)) and one of ceil(N / m) exponentials per point, so an
iterate costs O(M sqrt(N)) exponentials and memory and O(M N) multiply-adds,
and its result keeps its bits when L and the points scale by the same
power of 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid, deriv, inv_tilbert, to_spectrum
from .holo import sobolev_norm

__all__ = [
    "SurfaceGraph",
    "ConformalResult",
    "graph_to_holo",
    "trig_interp",
    "holo_to_graph",
    "norm_comparability",
]


@dataclass(frozen=True)
class SurfaceGraph:
    """Periodic surface elevation sampled on the physical x-grid."""

    grid: SpectralGrid
    eta: np.ndarray

    def __post_init__(self):
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=float))
        if eta.shape != (self.grid.N,):
            raise ValueError(f"expected {self.grid.N} samples, got {eta.shape}")
        if np.min(eta) <= -self.grid.h:
            raise ValueError("surface touches or crosses the bottom")
        object.__setattr__(self, "eta", eta)

    @property
    def max_slope(self) -> float:
        return float(np.max(np.abs(deriv(self.eta, self.grid))))


def trig_interp(values: np.ndarray, grid: SpectralGrid,
                x: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples at points x.

    ``values`` holds one field or a stack of fields on its last axis; the
    result has the stack's leading shape followed by ``x.shape``, and is
    real for real values.  The Nyquist mode is split symmetrically between
    -N/2 and +N/2, so the interpolant of real samples is real everywhere.

    The phase matrix exp(i x xi_k) is never formed.  With d = 2 pi / L,
    m = ceil(sqrt(N)) and P = ceil(N / m), the mode k + N/2 = q m + r
    (0 <= r < m, 0 <= q < P; the spectrum is padded with zeros to P m
    modes) has the phase exp(i x d r) exp(i x d (q m - N/2)).  So a point
    costs m + P complex exponentials, the sum over modes is one
    vector-matrix product per point (BLAS gemv) with the spectrum reshaped
    (P, m) and a product with the q phases summed per point, and memory is
    O(M sqrt(N)) for M points.  A stack shares the phases, and each of its
    rows is summed by the same calls as a single field, so it equals that
    field's own call bit for bit.  Every phase comes from theta = x d, which
    scaling L and x by the same power of 2 leaves unchanged, so the result
    keeps its bits under dyadic scaling.
    """
    values = np.asarray(values)
    N = grid.N
    m = math.isqrt(N - 1) + 1
    P = -(-N // m)
    # modes k = -N/2, ..., N/2 - 1, then zeros; half of the Nyquist mode
    # sits at -N/2 and the other half is added at +N/2 below
    c = np.zeros(values.shape[:-1] + (P * m,), dtype=complex)
    c[..., :N] = np.fft.fftshift(to_spectrum(values), axes=-1)
    c[..., 0] *= 0.5
    theta = np.asarray(x, dtype=float) * (2.0 * np.pi / grid.L)
    Er = 1j * np.multiply.outer(theta, np.arange(m))
    Eq = 1j * np.multiply.outer(theta, np.arange(P) * m - N // 2)
    np.exp(Er, out=Er)
    np.exp(Eq, out=Eq)
    out = np.empty(c.shape[:-1] + theta.shape, dtype=complex)
    for i in np.ndindex(c.shape[:-1]):
        # one gemv per point: a 2-D product would be a gemm, whose first
        # call in a process grows its resident set by its packing buffers
        S = np.matmul(Er[..., None, :], c[i].reshape(P, m).T)[..., 0, :]
        S *= Eq
        out[i] = S.sum(-1) + np.conj(Eq[..., 0]) * c[i][0]
    if np.isrealobj(values):
        return out.real
    return out


@dataclass(frozen=True)
class ConformalResult:
    W: np.ndarray
    residual: float
    iterations: int


def graph_to_holo(surface: SurfaceGraph) -> ConformalResult:
    """Fixed-point construction of the conformal trace W from a graph.

    Iterates until the sup-norm change of ``Im W`` is at most 1e-12, which
    is the ``residual`` reported.  Raises ``RuntimeError`` if that takes
    more than 200 iterations (the usual cause is surface slope too large
    for the contraction).
    """
    grid = surface.grid
    slope = surface.max_slope
    if slope >= 1.0:
        raise ValueError(f"max slope {slope:.3f} >= 1: outside the small-slope regime")
    alpha = grid.nodes
    Y = surface.eta.copy()
    for it in range(1, 201):
        X = alpha - inv_tilbert(Y - Y.mean(), grid)
        Y_new = trig_interp(surface.eta, grid, X)
        res = float(np.max(np.abs(Y_new - Y)))
        Y = Y_new
        if res <= 1e-12:
            break
    else:
        raise RuntimeError(
            f"conformal iteration did not reach tol=1.0e-12 in 200 "
            f"iterations (last residual {res:.3e}); slope too large?")
    return ConformalResult((X - alpha) + 1j * Y, res, it)


def holo_to_graph(W: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Resample the surface described by W back onto the physical x-grid.

    Inverts ``X(alpha) = alpha + Re W(alpha)`` by Newton iteration with
    trigonometric interpolation (at most 60 steps, stopping once the sup
    defect is below 1e-14), then evaluates ``Im W`` there.  Each step
    interpolates Re W and its derivative in one stacked
    :func:`trig_interp` call, which builds the phases once.  Inverse of
    :func:`graph_to_holo` up to interpolation round-off.
    """
    x = grid.nodes
    reW = np.stack([W.real, deriv(W.real, grid)])
    alpha = x.copy()
    for _ in range(60):
        R, dR = trig_interp(reW, grid, alpha)
        F = alpha + R - x
        if np.max(np.abs(F)) < 1e-14:
            break
        alpha = alpha - F / (1.0 + dR)
    return trig_interp(W.imag, grid, alpha)


@dataclass(frozen=True)
class ComparabilityRow:
    order: int
    graph_norm: float
    holo_norm: float

    @property
    def ratio(self) -> float:
        if self.graph_norm == 0.0 and self.holo_norm == 0.0:
            return 1.0
        return self.holo_norm / self.graph_norm


def norm_comparability(surface: SurfaceGraph,
                       W: np.ndarray) -> list[ComparabilityRow]:
    """Compare graph-side and conformal-side Sobolev norms for j = 0, 1, 2.

    Row ``j`` holds ``h^{-j}||eta||_L2 + ||eta||_{H^j_h}`` against the same
    quantity for ``z - alpha = W`` measured in the trace norms.
    """
    grid = surface.grid
    h = grid.h
    dx_weight = np.sqrt(grid.L / grid.N)
    l2_eta = float(np.linalg.norm(surface.eta)) * dx_weight
    l2_w = float(np.linalg.norm(W)) * dx_weight
    rows = []
    for j in (0, 1, 2):
        graph = (h ** (-j) * l2_eta
                 + sobolev_norm(surface.eta, j, grid, base="l2"))
        holo = h ** (-j) * l2_w + sobolev_norm(W, j, grid, base="holo")
        rows.append(ComparabilityRow(j, graph, holo))
    return rows
