import numpy as np
import pytest

from wavestrip.grid import make_grid
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import WaveState, diag_of
from wavestrip.diagnostics import (
    DiagnosticsRecord,
    bmo_proxy,
    control_norms,
    sobolev_Nn,
    measure,
)
from conftest import small_state


def _record(**overrides):
    base = dict(t=0.0, E_ham=1.0, E_repr=1.0, I=0.0, E0=1.0, E1_NF=1.0,
                E13_high=1.0, taylor_min=1.0, A_proxy=0.1, B_proxy=0.1,
                N1=1.0, N2=1.0, dt=0.1)
    base.update(overrides)
    return DiagnosticsRecord(**base)


def test_bmo_proxy_constant_and_zero(grid):
    assert bmo_proxy(np.zeros(grid.N), grid) == 0.0
    # constants sit entirely in the low-frequency part
    assert np.isclose(bmo_proxy(3.0 * np.ones(grid.N), grid), 3.0)


def test_bmo_proxy_oscillation_sandwich(grid):
    # a single high-frequency mode: the windowed mean oscillation of
    # amp*cos is comparable to amp (mean |cos| = 2/pi over a full period)
    for k in (8, 20):
        amp = 0.7
        val = bmo_proxy(amp * np.cos(k * grid.nodes), grid)
        assert 0.1 * amp <= val <= 10.0 * amp


@pytest.mark.parametrize("N, widths", [
    (64, (64, 32, 16, 8, 4, 2)), (18, (18, 9)), (50, (50, 25)),
    (100, (100, 50, 25)), (120, (120, 60, 30, 15))])
def test_bmo_proxy_windows_divide_N(N, widths):
    # the windows are the dyadic parts N/2^j of the cell that hold a whole
    # number of samples; halving 25 to 12 would leave 100 = 8 x 12 + 4
    grid = make_grid(2 * np.pi, N, 1.0)
    v = np.cos(3 * grid.nodes + 0.2) + 0.3 * np.sin(7 * grid.nodes)
    low = np.fft.ifft(np.where(np.abs(grid.xi) < 1.0, np.fft.fft(v), 0.0))
    high = v - low.real
    osc = [np.abs(b - b.mean()).mean()
           for w in widths for b in high.reshape(N // w, w)]
    assert np.isclose(bmo_proxy(v, grid),
                      max(np.max(np.abs(low.real)), max(osc)), rtol=1e-13)


def test_bmo_proxy_is_the_larger_part_not_the_sum():
    # at h = 0.1 the low block holds |k| < 10: cos(x) is low, the k = 40
    # oscillation high, and both parts are of comparable size
    grid = make_grid(2 * np.pi, 128, 0.1)
    x = grid.nodes
    low, high = np.cos(x + 0.4), 0.8 * np.sin(40 * x + 0.3)
    osc = max(np.abs(b - b.mean()).mean()
              for w in (128, 64, 32, 16, 8, 4, 2)
              for b in high.reshape(128 // w, w))
    sup = np.max(np.abs(low))
    assert 0.4 * sup < osc < sup
    val = bmo_proxy(low + high, grid)
    assert np.isclose(val, max(sup, osc), rtol=1e-13)
    assert val < 0.8 * (sup + osc)


def test_control_norms_zero_and_monotone(grid):
    z = np.zeros(grid.N, dtype=complex)
    from wavestrip.dynamics import DiagState
    d0 = DiagState(grid, z, z, 1.0)
    assert control_norms(d0) == (0.0, 0.0)
    A1, B1 = control_norms(diag_of(small_state(grid, eps=0.02)))
    A2, B2 = control_norms(diag_of(small_state(grid, eps=0.04)))
    assert 0 < A1 < A2
    assert 0 < B1 < B2


def test_sobolev_ladder(grid):
    d = diag_of(small_state(grid, eps=0.03))
    n1 = sobolev_Nn(d, 1)
    n2 = sobolev_Nn(d, 2)
    assert 0 < n1 < n2
    # the n = 0 rung is holo.norm_calH of the undifferentiated state
    with pytest.raises(ValueError):
        sobolev_Nn(d, 0)


def test_measure_full_row(grid):
    rec = measure(small_state(grid, eps=0.02), dt=0.05)
    (row,) = rec.table([rec.t])
    assert row[0] == rec.t and row[-1] == rec.dt == 0.05
    assert rec.E_ham > 0 and rec.taylor_min > 0


def test_record_rows_split_a_stack():
    # one row per member in field order: its own t, its member's values,
    # and the shared dt in every row
    values = {name: np.array([v, 2 * v]) for name, v in
              vars(_record()).items() if name not in ("t", "dt")}
    table = _record(**values).table([0.5, 0.75])
    assert list(vars(_record())) == ["t", *values, "dt"]
    assert table.dtype == np.float64
    assert np.array_equal(table, [[t, *(v[j] for v in values.values()), 0.1]
                                  for j, t in enumerate([0.5, 0.75])])
    # a single-state record gives its values to every row it is asked for
    assert np.array_equal(_record().table([0.5, 0.75])[:, 1:],
                          table[[0, 0], 1:])


@pytest.mark.parametrize("record, ts, message", [
    (_record(E_ham=np.nan), [0.0], "E_ham = nan at t = 0.0"),
    (_record(N2=np.inf), [0.25], "N2 = inf at t = 0.25"),
    (_record(dt=-np.inf), [0.5], "dt = -inf at t = 0.5"),
    # the earliest row wins over an earlier field of a later row, and the
    # first field within that row over a later one
    (_record(E_ham=np.array([1.0, 1.0, np.nan]),
             N1=np.array([1.0, np.inf, 1.0]),
             N2=np.array([1.0, np.nan, 1.0])),
     [0.5, 0.75, 1.0], "N1 = inf at t = 0.75"),
])
def test_record_table_names_the_earliest_non_finite_row(record, ts, message):
    with pytest.raises(ValueError) as exc:
        record.table(ts)
    assert str(exc.value) == f"non-finite diagnostic entry {message}"
