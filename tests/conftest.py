import numpy as np
import pytest

from wavestrip.grid import make_grid
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import WaveState
from reference import holo_from_spectrum


@pytest.fixture
def grid():
    return make_grid(2 * np.pi, 128, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_trace(grid, rng, scale=0.1, decay=2.0):
    """Random band-limited holomorphic trace with power-law mode decay."""
    m = grid.N // 3
    c = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    c *= scale / (1.0 + np.arange(m)) ** decay
    return holo_from_spectrum(c, grid)


def small_state(grid, eps=0.02, g=1.0):
    """Generic small-amplitude state with incommensurate phases."""
    x = grid.nodes
    k0 = 2 * np.pi / grid.L
    W = holo_from_real(eps * (np.cos(k0 * x + 0.7)
                              + 0.5 * np.cos(2 * k0 * x + 1.3)), grid)
    Q = holo_from_real(eps * (0.4 * np.sin(k0 * x + 2.1)
                              + 0.25 * np.sin(3 * k0 * x + 0.4)), grid)
    return WaveState(grid, W, Q, g)


def same_bits(a, b) -> bool:
    """a and b have the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def count_ffts(monkeypatch, fn):
    """fn()'s result and its number of np.fft.fft and np.fft.ifft calls."""
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(*args, _fn=original, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    out = fn()
    monkeypatch.undo()
    return out, len(calls)
