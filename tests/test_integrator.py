import numpy as np
import pytest

from wavestrip.grid import make_grid, to_spectrum
from wavestrip.holo import holo_from_real, holomorphy_residual
from wavestrip.conformal import SurfaceGraph, graph_to_holo
from wavestrip.dynamics import WaveState, energy
from wavestrip import integrator
from wavestrip.integrator import (
    SolverConfig,
    StepAbort,
    suggest_dt,
    step_rk4,
    evolve,
)
from conftest import small_state


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T_final=-1.0)
    # a run must take at least one step: T_final rounds to whole steps
    for T_final in (0.0, 0.04, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="takes no step"):
            SolverConfig(dt=0.1, T_final=T_final)
    assert SolverConfig(dt=0.1, T_final=0.06).n_steps == 1
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T_final=1.0, observer_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T_final=1.0, method="euler")


def test_suggest_dt(grid):
    dt = suggest_dt(grid, 1.0, cfl=0.5)
    xi_max = (2 * np.pi / grid.L) * (grid.N // 3)
    omega_max = np.sqrt(xi_max * np.tanh(grid.h * xi_max))
    assert np.isclose(dt, 0.5 * 2.8 / omega_max)
    with pytest.raises(ValueError):
        suggest_dt(grid, -1.0)
    with pytest.raises(ValueError):
        suggest_dt(grid, 1.0, cfl=0.0)


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_fourth_order_convergence(grid, method):
    state = small_state(grid, eps=0.05)
    T = 0.4
    finals = []
    for nsteps in (8, 16, 32):
        s = state
        for _ in range(nsteps):
            s = step_rk4(s, T / nsteps, method)
        finals.append(s)
    e1 = np.max(np.abs(finals[0].W - finals[2].W))
    e2 = np.max(np.abs(finals[1].W - finals[2].W))
    # successive-refinement errors of a 4th-order scheme drop ~16x
    assert 10.0 < e1 / e2 < 24.0


def test_ifrk4_exact_linear_phase(grid):
    # a 1e-8-amplitude mode is linear to machine precision; the integrating
    # factor then propagates it exactly regardless of dt
    k, g = 5, 1.0
    amp = 1e-8
    W = holo_from_real(amp * np.cos(k * grid.nodes), grid)
    state = WaveState(grid, W, np.zeros(grid.N, dtype=complex), g)
    omega = np.sqrt(g * k * np.tanh(grid.h * k))
    T = 3.0
    config = SolverConfig(dt=T / 20, T_final=T, method="ifrk4")
    final, _ = evolve(state, config)
    c = to_spectrum(final.W)[k]
    c0 = to_spectrum(state.W)[k]
    assert abs(c - c0 * np.cos(omega * T)) < 1e-12 * abs(c0) + 1e-22


def test_steps_preserve_holomorphy(grid):
    state = small_state(grid, eps=0.05)
    s = state
    for _ in range(20):
        s = step_rk4(s, 0.05, "rk4")
    assert holomorphy_residual(s.W, grid) < 1e-10
    assert holomorphy_residual(s.Q, grid) < 1e-10


def test_step_abort_carries_last_good(grid):
    state = small_state(grid, eps=0.05)
    config = SolverConfig(dt=50.0, T_final=200.0)  # wildly unstable
    with pytest.raises(StepAbort) as exc:
        evolve(state, config)
    assert exc.value.step_index >= 1
    assert isinstance(exc.value.last_good, WaveState)


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_invalid_stage_state_aborts_the_step(grid, monkeypatch, method):
    # a vector field that is non-finite at the first stage: the second stage
    # state breaks the validity rule and is refused before the field is
    # evaluated on it
    calls = []

    def nan_field(state):
        calls.append(state)
        nan = np.full(state.grid.N, np.nan, dtype=complex)
        return nan, nan

    monkeypatch.setattr(integrator, "rhs_full", nan_field)
    state = small_state(grid)
    with pytest.raises(StepAbort) as exc:
        evolve(state, SolverConfig(dt=0.05, T_final=0.5, method=method))
    assert exc.value.step_index == 1
    assert exc.value.reason == "non-finite field values"
    assert exc.value.last_good is state
    assert len(calls) == 1


def test_invalid_projected_state_aborts_the_step(grid, monkeypatch):
    # a shell projection that moves the surface below the bottom
    monkeypatch.setattr(integrator, "_project_to_invariant_shell",
                        lambda s, E, I: s.with_fields(s.W - 2j, s.Q))
    state = small_state(grid)
    config = SolverConfig(dt=0.05, T_final=0.5, project_energy=True)
    with pytest.raises(StepAbort) as exc:
        evolve(state, config)
    assert exc.value.step_index == 1
    assert exc.value.reason == "surface touched the bottom"
    assert exc.value.last_good is state


def test_observer_stride(grid):
    state = small_state(grid, eps=0.01)
    calls = []
    config = SolverConfig(dt=0.05, T_final=0.5, observer_stride=3)
    final, records = evolve(state, config, [lambda i, t, s: calls.append(i)])
    # step 0, multiples of 3, and the final step
    assert calls == [0, 3, 6, 9, 10]
    assert np.isclose(final.t, 0.5)
    assert records == []  # observer returned None


def test_observer_records_collected(grid):
    state = small_state(grid, eps=0.01)
    config = SolverConfig(dt=0.05, T_final=0.2)
    _, records = evolve(state, config, [lambda i, t, s: (i, t)])
    assert len(records) == 5
    assert records[0] == (0, 0.0)


def test_energy_shell_projection(grid):
    state = small_state(grid, eps=0.05)
    E0 = energy(state)[0]
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=5.0,
                          method="rk4", project_energy=True)
    final, _ = evolve(state, config)
    assert abs(energy(final)[0] - E0) < 1e-11 * abs(E0)


def test_energy_shell_projection_converges_at_large_amplitude():
    # at graph amplitude 0.2 the Gram matrix of the two gradients is a poor
    # Jacobian of the invariants: solving with it alone converges linearly
    # and stops near 1e-9 relative energy error at the cap of 4 updates
    grid = make_grid(2 * np.pi, 64, 1.0)
    x = grid.nodes
    state = WaveState(grid, graph_to_holo(SurfaceGraph(grid, 0.2 * np.cos(x))).W,
                      holo_from_real(0.01 * np.cos(x), grid), 1.0)
    E0 = energy(state)[0]
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=10.0,
                          method="ifrk4", project_energy=True)
    _, E = evolve(state, config, [lambda i, t, s: energy(s)[0]])
    assert len(E) > 30
    assert max(abs(e - E0) for e in E) <= 1e-12 * abs(E0)
