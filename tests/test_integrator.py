from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from wavestrip.grid import (apply_multiplier, dealias, make_grid,
                            from_spectrum, to_spectrum)
from wavestrip.holo import (holo_from_real, holomorphy_residual, pair_form,
                            project)
from wavestrip.conformal import SurfaceGraph, graph_to_holo
from wavestrip.dynamics import (WaveState, energy, energy_gradient, momentum,
                                momentum_gradient, rhs_full, stack_states,
                                taylor_field)
from wavestrip.cli import _drift_profile
from wavestrip import integrator
from wavestrip.integrator import (
    SolverConfig,
    StepAbort,
    suggest_dt,
    step_rk4,
    evolve,
)
from conftest import count_ffts, random_trace, same_bits, small_state
from reference import classical_rk4, lawson_rk4


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
    final = evolve(state, config)
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
    final = evolve(state, config, [lambda i, t, s: calls.append(i)])
    # step 0, multiples of 3, and the final step
    assert calls == [0, 3, 6, 9, 10]
    assert np.isclose(final.t, 0.5)


def test_energy_shell_projection(grid):
    state = small_state(grid, eps=0.05)
    E0 = energy(state)[0]
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=5.0,
                          method="rk4", project_energy=True)
    final = evolve(state, config)
    assert abs(energy(final)[0] - E0) < 1e-11 * abs(E0)


def test_energy_shell_projection_converges_at_large_amplitude():
    # at graph amplitude 0.2 the invariants are far from linear on the
    # projection's plane, so their slopes at the incoming state (the Gram
    # matrix of the two gradients) are a poor Jacobian; Newton on the exact
    # cubic and quadratic lands each step on the shell to round-off, 9e-15
    # of E0 here in two or three steps
    grid = make_grid(2 * np.pi, 64, 1.0)
    x = grid.nodes
    state = WaveState(grid, graph_to_holo(SurfaceGraph(grid, 0.2 * np.cos(x))).W,
                      holo_from_real(0.01 * np.cos(x), grid), 1.0)
    E0 = energy(state)[0]
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=10.0,
                          method="ifrk4", project_energy=True)
    E = []
    evolve(state, config, [lambda i, t, s: E.append(energy(s)[0])])
    assert len(E) > 30
    assert max(abs(e - E0) for e in E) <= 1e-12 * abs(E0)


def _random_state(L, h, N=64, seed=0):
    grid = make_grid(L, N, h)
    rng = np.random.default_rng(seed)
    scale = 0.2 * min(h, 1.0)
    return WaveState(grid, random_trace(grid, rng, scale=scale),
                     random_trace(grid, rng, scale=scale), 1.0)


SHELL_CELLS = [(2 * np.pi, 1.0), (2 * np.pi, 0.125), (4 * np.pi, 1.0),
               (2 * np.pi, 16.0)]


@pytest.mark.parametrize("L, h", SHELL_CELLS)
def test_shell_projection_invariants_by_parseval(L, h):
    # the projection's polynomials E(a, b) and I(a, b), from Parseval
    # pairings, are the physical-space energy and momentum on the plane
    # x + a dE + b dI: at (0, 0), in their slopes there (the pair_form of
    # the gradients), and at points off it
    for seed in range(3):
        s = _random_state(L, h, seed=seed)
        grid, g = s.grid, s.g
        c, = integrator._shell_polynomials(s)[0].tolist()
        E, I = c[:10], c[10:]
        phys = (energy_gradient(s), momentum_gradient(s))
        for a, b in ((0.0, 0.0), (0.01, -0.02), (-0.3, 0.2)):
            m = s.with_fields(s.W + a * phys[0][0] + b * phys[1][0],
                              s.Q + a * phys[0][1] + b * phys[1][1])
            E_ref, I_ref = energy(m)[0], momentum(m)
            # the momentum of a random state can nearly cancel; both are
            # held to the scale the projection's own tolerance uses
            scale = max(abs(E_ref), abs(I_ref))
            assert abs(integrator._cubic(E, a, b)[0] - E_ref) <= 1e-14 * scale
            assert abs(integrator._cubic(I, a, b)[0] - I_ref) <= 1e-14 * scale
        slopes = (integrator._cubic(E, 0.0, 0.0)[1:],
                  integrator._cubic(I, 0.0, 0.0)[1:])
        for i in range(2):
            for j in range(2):
                want = pair_form(phys[i], phys[j], g, grid)
                scale = np.sqrt(pair_form(phys[i], phys[i], g, grid)
                                * pair_form(phys[j], phys[j], g, grid))
                assert abs(slopes[i][j] - want) <= 1e-14 * scale, (i, j)


@pytest.mark.parametrize("L, h", SHELL_CELLS)
def test_shell_projection_lands_on_the_shell(L, h):
    s = _random_state(L, h, seed=7)
    E0, I0 = energy(s)[0], momentum(s)
    moved = s.with_fields(1.001 * s.W, 0.998 * s.Q)
    p = integrator._project_to_invariant_shell(moved, E0, I0)
    scale = max(abs(E0), abs(I0))
    assert abs(energy(p)[0] - E0) <= 1e-13 * scale
    assert abs(momentum(p) - I0) <= 1e-13 * scale
    assert p.t == moved.t and p.g == moved.g


def test_shell_projection_fft_budget(monkeypatch):
    # one projection call after an ifrk4 step at N = 256: 4 FFT calls build
    # the polynomials and 2 check the result's WaveState
    grid = make_grid(2 * np.pi, 256, 1.0)
    s0 = _drift_profile(0.05, grid, 1.0)
    E0, I0 = energy(s0)[0], momentum(s0)
    s = step_rk4(s0, suggest_dt(grid, 1.0, 0.5), "ifrk4")
    p, count = count_ffts(
        monkeypatch, lambda: integrator._project_to_invariant_shell(s, E0, I0))
    assert p is not s
    assert count == 6
    assert abs(energy(p)[0] - E0) <= 1e-13 * abs(E0)


def test_linear_propagator_built_once():
    grid = make_grid(2 * np.pi, 64, 1.0)
    prop = integrator._linear_propagator(grid, 1.0, 0.05)
    assert integrator._linear_propagator(make_grid(2 * np.pi, 64, 1.0),
                                         1.0, 0.05) is prop
    assert not any(a.flags.writeable for a in prop)


@pytest.mark.parametrize("shape", [(64,), (100,), (512,), (7, 100),
                                   (32, 512)])
def test_apply_propagator_equals_its_expression(shape):
    # the propagator combines its spectra in place, bit for bit the
    # expression it stands for with the real cos diagonal
    rng = np.random.default_rng(shape[-1])
    y, k = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    grid = make_grid(2 * np.pi, shape[-1], 0.7)
    prop = integrator._linear_propagator(grid, 1.0, 0.0123)
    c, a12, a21 = prop
    c = c.real.copy()
    cW, cQ = to_spectrum(y), to_spectrum(k)
    W, Q = integrator._apply_propagator(prop, y, k)
    assert same_bits(W, from_spectrum(c * cW + a12 * cQ))
    assert same_bits(Q, from_spectrum(a21 * cW + c * cQ))


def _held_arrays(*objects):
    """The arrays of each object: a grid's cached ones, or a tuple's."""
    out = []
    for obj in objects:
        for v in (vars(obj).values() if hasattr(obj, "__dict__") else obj):
            out.extend(v if isinstance(v, tuple) else [v])
    return [a for a in out if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("B", [None, 5])
def test_operators_return_fresh_arrays(B):
    # an in-place operator writes only into buffers of its own: its result
    # shares no memory with its inputs or with a cached symbol, and its
    # inputs keep their values
    grid = make_grid(2 * np.pi, 64, 1.0)
    rng = np.random.default_rng(7)
    shape = (64,) if B is None else (B, 64)
    f, g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    r = rng.standard_normal(shape)
    prop = integrator._linear_propagator(grid, 1.0, 0.05)
    ops = {
        "apply_multiplier": lambda: [apply_multiplier(f, grid.ixi, grid)],
        "apply_multiplier real": lambda: [
            apply_multiplier(r, grid.sech2, grid)],
        "dealias": lambda: [dealias(f, grid)],
        "dealias real": lambda: [dealias(r, grid)],
        "project holo": lambda: [project(f, grid, "holo")],
        "project anti": lambda: [project(f, grid, "anti")],
        "_apply_propagator": lambda: list(
            integrator._apply_propagator(prop, f, g)),
    }
    for name, attr in vars(type(grid)).items():
        if isinstance(attr, cached_property):
            getattr(grid, name)   # build every cached symbol
    inputs = [f, g, r]
    held = inputs + _held_arrays(grid, prop)
    before = [x.copy() for x in inputs]
    for name, op in ops.items():
        outs = op()
        for i, out in enumerate(outs):
            for x in held + outs[i + 1:]:
                assert not np.shares_memory(out, x), name
        for x, x0 in zip(inputs, before):
            assert same_bits(x, x0), name


def _stack_members(L, h, N):
    grid = make_grid(L, N, h)
    rng = np.random.default_rng(11)
    scale = 0.02 * min(h, 1.0)
    return [WaveState(grid, random_trace(grid, rng, scale=scale),
                      random_trace(grid, rng, scale=scale), 1.0)
            for _ in range(3)]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("L, N, h", [(2 * np.pi, 64, 1.0),
                                     (2 * np.pi, 100, 0.25),
                                     (4 * np.pi, 128, 0.5)])
@pytest.mark.parametrize("method, formula", [("rk4", classical_rk4),
                                             ("ifrk4", lawson_rk4)])
def test_step_is_its_rk4_formula_bit_for_bit(method, formula, L, N, h,
                                             stacked):
    # both methods run one tableau: plain rk4 with the identity between
    # stages is the classical formula, ifrk4 the Lawson one
    members = _stack_members(L, h, N)
    state = stack_states(members) if stacked else members[0]
    dt = suggest_dt(state.grid, 1.0, 0.5)
    got, want = step_rk4(state, dt, method), formula(state, dt)
    assert got.W.tobytes() == want.W.tobytes()
    assert got.Q.tobytes() == want.Q.tobytes()
    assert got.t == want.t


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("L, h", [(2 * np.pi, 1.0), (4 * np.pi, 0.5)])
def test_stack_matches_its_members_bit_for_bit(L, h, N):
    members = _stack_members(L, h, N)
    stack = stack_states(members)
    dt = suggest_dt(stack.grid, 1.0, 0.5)
    rows = {"rhs_full": rhs_full(stack),
            "taylor_field": taylor_field(stack),
            "energy": energy(stack), "momentum": (momentum(stack),)}
    for method in ("rk4", "ifrk4"):
        s = step_rk4(stack, dt, method)
        rows[method] = (s.W, s.Q)
    for j, m in enumerate(members):
        single = {"rhs_full": rhs_full(m), "taylor_field": taylor_field(m),
                  "energy": energy(m), "momentum": (momentum(m),)}
        for method in ("rk4", "ifrk4"):
            s = step_rk4(m, dt, method)
            single[method] = (s.W, s.Q)
        for name, got in rows.items():
            for a, b in zip(got, single[name]):
                assert np.array_equal(a[j], b), (name, j)


def test_stacked_step_costs_the_ffts_of_one_member(monkeypatch):
    # the pinned counts of bench/tracer.py at N = 256: a stack of three
    # makes the same transform calls as a single member
    grid = make_grid(2 * np.pi, 256, 1.0)
    members = [_drift_profile(eps, grid, 1.0) for eps in (0.05, 0.04, 0.03)]
    stack = stack_states(members)
    dt = suggest_dt(grid, 1.0, 0.5)
    for method, pinned in (("rk4", 108), ("ifrk4", 152)):
        for state in (members[0], stack):
            _, count = count_ffts(monkeypatch,
                                  lambda: step_rk4(state, dt, method))
            assert count == pinned, (method, state.W.shape)


def _nan_in_member_1_after(t_bad):
    """rhs_full, but non-finite in member 1 of a stack from time t_bad on."""
    def field(state):
        fW, fQ = rhs_full(state)
        if state.W.ndim == 2 and state.t > t_bad:
            fW = fW.copy()
            fW[1] = np.nan
        return fW, fQ
    return field


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_stack_abort_carries_the_failing_members_last_good(monkeypatch,
                                                           method):
    members = _stack_members(2 * np.pi, 1.0, 64)
    dt = suggest_dt(members[0].grid, 1.0, 0.5)
    # the stage states of step 3 start from t = 2 dt: the first stage of
    # member 1 is non-finite there, and the second stage state is refused
    monkeypatch.setattr(integrator, "rhs_full",
                        _nan_in_member_1_after(1.5 * dt))
    config = SolverConfig(dt=dt, T_final=10 * dt, method=method)
    with pytest.raises(StepAbort) as exc:
        evolve(stack_states(members), config)
    assert exc.value.step_index == 3
    assert exc.value.reason == "non-finite field values"
    last = exc.value.last_good
    # member 1 run alone (the patched field leaves single states alone)
    want = evolve(members[1], SolverConfig(dt=dt, T_final=2 * dt,
                                           method=method))
    assert last.W.shape == (64,) and last.t == want.t
    assert np.array_equal(last.W, want.W)
    assert np.array_equal(last.Q, want.Q)


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_projected_stack_matches_its_members_bit_for_bit(method):
    # each member is projected onto the shell of its own initial energy and
    # momentum, as when it runs alone
    members = _stack_members(2 * np.pi, 1.0, 64)
    dt = suggest_dt(members[0].grid, 1.0, 0.5)
    config = SolverConfig(dt=dt, T_final=6 * dt, method=method,
                          project_energy=True)
    final = evolve(stack_states(members), config)
    for j, m in enumerate(members):
        alone = evolve(m, config)
        assert np.array_equal(final.W[j], alone.W), j
        assert np.array_equal(final.Q[j], alone.Q), j
        assert not np.array_equal(
            alone.W, evolve(m, replace(config, project_energy=False)).W)


def test_projected_stack_abort_carries_the_failing_members_last_good(
        monkeypatch):
    members = _stack_members(2 * np.pi, 1.0, 64)
    dt = suggest_dt(members[0].grid, 1.0, 0.5)
    config = SolverConfig(dt=dt, T_final=10 * dt, method="ifrk4",
                          project_energy=True)
    want = evolve(members[1], replace(config, T_final=2 * dt))
    real = integrator._project_to_invariant_shell

    def project(state, E, I):
        # at step 3, member 1's energy target is 1e4 times its own: its
        # projected surface lies below the bottom, which the check of the
        # stacked result refuses
        if 2.5 * dt < state.t < 3.5 * dt:
            E = E * np.array([1.0, 1e4, 1.0])
        return real(state, E, I)

    monkeypatch.setattr(integrator, "_project_to_invariant_shell", project)
    with pytest.raises(StepAbort) as exc:
        evolve(stack_states(members), config)
    assert exc.value.step_index == 3
    assert exc.value.reason == "surface touched the bottom"
    last = exc.value.last_good
    assert last.W.shape == (64,) and last.t == want.t
    assert np.array_equal(last.W, want.W)
    assert np.array_equal(last.Q, want.Q)


def test_projected_stack_costs_the_ffts_of_one_member(monkeypatch):
    # two projected ifrk4 steps at N = 256: the stack of three makes the
    # transform calls of a single member
    grid = make_grid(2 * np.pi, 256, 1.0)
    members = [_drift_profile(eps, grid, 1.0) for eps in (0.05, 0.04, 0.03)]
    dt = suggest_dt(grid, 1.0, 0.5)
    config = SolverConfig(dt=dt, T_final=2 * dt, method="ifrk4",
                          project_energy=True)
    counts = [count_ffts(monkeypatch, lambda: evolve(s, config))[1]
              for s in (members[0], stack_states(members))]
    assert counts == [346, 346]


def test_shell_projection_of_a_stack_is_per_member():
    # member 0 is on its own shell and keeps its samples; member 1 is off
    # its shell and is moved as it is alone
    on = _random_state(2 * np.pi, 1.0, seed=3)
    s = _random_state(2 * np.pi, 1.0, seed=4)
    off = s.with_fields(1.001 * s.W, 0.998 * s.Q)
    E = np.array([energy(on)[0], energy(s)[0]])
    I = np.array([momentum(on), momentum(s)])
    p = integrator._project_to_invariant_shell(stack_states([on, off]), E, I)
    assert integrator._project_to_invariant_shell(on, E[0], I[0]) is on
    alone = integrator._project_to_invariant_shell(off, E[1], I[1])
    assert alone is not off
    assert np.array_equal(p.W[0], on.W) and np.array_equal(p.Q[0], on.Q)
    assert np.array_equal(p.W[1], alone.W) and np.array_equal(p.Q[1], alone.Q)


def test_closed_form_2x2_matches_linalg():
    # the projection's 2x2 guard and solve against np.linalg.cond > 1e12 and
    # np.linalg.solve on random, near-singular, singular and zero systems
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-100, 100, (300, 1, 1))
    rand = rng.standard_normal((300, 2, 2)) * scale
    u, v = rng.standard_normal((2, 300, 2))
    near = (u[:, :, None] * v[:, None, :]
            + 10.0 ** rng.uniform(-17, -5, (300, 1, 1))
            * rng.standard_normal((300, 2, 2))) * scale
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 3.0]],
                         [[1e-300, 0.0], [0.0, 0.0]], [[3.0, -3.0], [1.0, -1.0]]])
    M = np.concatenate([rand, near, singular, np.zeros((3, 2, 2))])
    rhs = rng.standard_normal((len(M), 2))
    solved = [integrator._solve_2x2(m, r)
              for m, r in zip(M.tolist(), rhs.tolist())]
    ok = np.array([s[0] for s in solved])
    x = np.array([s[1] for s in solved])
    cond = np.linalg.cond(M)
    assert np.all(np.isfinite(x))
    # the same systems are refused, away from round-off of the bound
    far = ~(np.abs(np.log10(cond / 1e12)) < 0.05)
    assert far.sum() >= len(M) - 3
    assert np.array_equal(ok[far], ~(cond[far] > 1e12))
    assert not ok[-7:].any()
    assert 0 < ok[300:600].sum() < 300
    want = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
    err = np.abs(x[ok] - want).max(-1) / np.abs(want).max(-1)
    assert np.all(err <= 1e-15 * cond[ok] + 1e-15)
