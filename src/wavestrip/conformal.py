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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid, deriv, inv_tilbert, to_spectrum
from .holo import sobolev_norm

__all__ = [
    "SurfaceGraph",
    "ConformalResult",
    "graph_to_holo",
    "trig_interp",
    "surface_curve",
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


# Entries per block of the phase matrix in :func:`trig_interp` (1 MiB of
# complex values): a block holds as many points as fit, so up to N = 256 the
# whole N x N matrix is one block, and beyond it the memory stays fixed.
_INTERP_ENTRIES = 1 << 16


def trig_interp(values: np.ndarray, grid: SpectralGrid, x: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples at points x."""
    c = to_spectrum(values)
    # Nyquist mode of a real signal is split symmetrically so the
    # interpolant is real at arbitrary points.
    c = c.copy()
    nyq = grid.N // 2
    c[nyq] = 0.5 * c[nyq]
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    block = max(1, _INTERP_ENTRIES // grid.N)
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        phases = np.exp(1j * np.outer(x[rows], grid.xi))
        out[rows] = phases @ c + np.conj(phases[:, nyq]) * c[nyq]
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


@dataclass(frozen=True)
class SurfaceCurve:
    X: np.ndarray
    Y: np.ndarray
    min_dx: float

    @property
    def monotone(self) -> bool:
        return self.min_dx > 0


def surface_curve(W: np.ndarray, grid: SpectralGrid) -> SurfaceCurve:
    """Sampled parametric curve Z(alpha) = alpha + W(alpha) with spacing report."""
    X = grid.nodes + W.real
    Y = W.imag
    dX = np.diff(np.concatenate([X, [X[0] + grid.L]]))
    return SurfaceCurve(X, Y, float(np.min(dX)))


def holo_to_graph(W: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Resample the surface described by W back onto the physical x-grid.

    Inverts ``X(alpha) = alpha + Re W(alpha)`` by Newton iteration with
    trigonometric interpolation (at most 60 steps, stopping once the sup
    defect is below 1e-14), then evaluates ``Im W`` there.  Inverse of
    :func:`graph_to_holo` up to interpolation round-off.
    """
    x = grid.nodes
    reW = W.real
    d_reW = deriv(reW, grid)
    alpha = x.copy()
    for _ in range(60):
        F = alpha + trig_interp(reW, grid, alpha) - x
        if np.max(np.abs(F)) < 1e-14:
            break
        alpha = alpha - F / (1.0 + trig_interp(d_reW, grid, alpha))
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
