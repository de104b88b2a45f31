"""Exact symmetries of the water-wave system as oracles of the nonlinear flow.

Time reversal (W, Q) -> (W, -Q) with t -> -t, and the reflection
alpha -> -alpha, which acts as (W, Q) -> (-conj W(-alpha), conj Q(-alpha)),
map solutions onto solutions.  Neither needs a known answer or a fitted
range: a rewrite of ``rhs_full``, the step or the shell projection that
breaks one of them is wrong whatever the bounds say.  Nor does spatial
self-convergence: runs at N and 2N on one dt agree on the coarse band, and
the gap shrinks faster with each doubling.
"""

import numpy as np
import pytest

from wavestrip.cli import _drift_profile
from wavestrip.dynamics import energy, momentum, rhs_full, stack_states
from wavestrip.grid import make_grid, to_spectrum
from wavestrip.integrator import (SolverConfig, _project_to_invariant_shell,
                                  evolve, step_rk4, suggest_dt)
from conftest import same_bits

DEPTHS = (0.25, 1.0, 20.0)


def _profile(h, N=128):
    grid = make_grid(2 * np.pi, N, h)
    return _drift_profile(0.1 * min(h, 1.0), grid, 1.0)


def _mirror(v, grid, sign):
    """sign * conj v(-alpha) on the grid's nodes alpha_j = j L / N."""
    return sign * np.conj(np.take(v, grid.neg_index, axis=-1))


def _reflect(state):
    return state.with_fields(_mirror(state.W, state.grid, -1),
                             _mirror(state.Q, state.grid, 1))


def _off_shell(state):
    return state.with_fields(1.001 * state.W, 0.998 * state.Q)


@pytest.mark.parametrize("h", DEPTHS)
def test_rhs_full_reverses_time_bit_for_bit(h):
    s = _profile(h)
    fW, fQ = rhs_full(s)
    rW, rQ = rhs_full(s.with_fields(s.W, -s.Q))
    assert same_bits(rW, -fW) and same_bits(rQ, fQ)


@pytest.mark.parametrize("h", DEPTHS)
def test_rhs_full_commutes_with_reflection(h):
    s = _profile(h)
    grid = s.grid
    fW, fQ = rhs_full(s)
    gW, gQ = rhs_full(_reflect(s))
    scale = max(np.max(np.abs(fW)), np.max(np.abs(fQ)))
    # 3.8e-15 and 7.9e-16 of the scale at h = 1
    assert np.max(np.abs(gW - _mirror(fW, grid, -1))) <= 2e-14 * scale
    assert np.max(np.abs(gQ - _mirror(fQ, grid, 1))) <= 2e-14 * scale


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_one_step_commutes_with_reflection(method):
    s = _profile(1.0)
    dt = suggest_dt(s.grid, s.g, 0.5)
    a = step_rk4(_reflect(s), dt, method)
    b = _reflect(step_rk4(s, dt, method))
    # 7e-17 and 9e-17 in W on a state of size 0.1
    assert np.max(np.abs(a.W - b.W)) <= 1e-15
    assert np.max(np.abs(a.Q - b.Q)) <= 1e-15


@pytest.mark.parametrize("h", DEPTHS)
def test_shell_projection_reverses_time_bit_for_bit(h):
    # reversal keeps E and sends I to -I
    s = _profile(h)
    E0, I0 = energy(s)[0], momentum(s)
    moved = _off_shell(s)
    p = _project_to_invariant_shell(moved, E0, I0)
    r = _project_to_invariant_shell(moved.with_fields(moved.W, -moved.Q),
                                    E0, -I0)
    assert p is not moved
    assert same_bits(r.W, p.W) and same_bits(r.Q, -p.Q)


def test_shell_projection_reverses_time_on_a_stack():
    members = [_off_shell(_profile(h)) for h in (1.0, 1.0)]
    members[1] = members[1].with_fields(1.002 * members[1].W, members[1].Q)
    s = stack_states(members)
    E0 = np.array([energy(m)[0] for m in members]) * (1 - 2e-3)
    I0 = np.array([momentum(m) for m in members]) * (1 - 2e-3)
    p = _project_to_invariant_shell(s, E0, I0)
    r = _project_to_invariant_shell(s.with_fields(s.W, -s.Q), E0, -I0)
    assert same_bits(r.W, p.W) and same_bits(r.Q, -p.Q)


@pytest.mark.parametrize("h", DEPTHS)
def test_shell_projection_commutes_with_reflection(h):
    # reflection keeps E and sends I to -I
    s = _profile(h)
    E0, I0 = energy(s)[0], momentum(s)
    moved = _off_shell(s)
    p = _reflect(_project_to_invariant_shell(moved, E0, I0))
    q = _project_to_invariant_shell(_reflect(moved), E0, -I0)
    # 5.0e-17 in W and 2.2e-17 in Q at h = 1
    assert np.max(np.abs(q.W - p.W)) <= 1e-15
    assert np.max(np.abs(q.Q - p.Q)) <= 1e-15


# 200 steps forward, Q negated, 200 steps more at cfl 0.5 and at half the
# step: the errors at h = 1 are 4.8e-4 and 1.6e-5 (rk4), 1.3e-5 and 4.1e-7
# (ifrk4), ratios of 30 and 31; fourth order alone would give 16
@pytest.mark.parametrize("method, min_ratio", [("rk4", 24.0), ("ifrk4", 21.0)])
def test_round_trip_returns_at_fourth_order(method, min_ratio):
    s = _profile(1.0)
    dt = suggest_dt(s.grid, s.g, 0.5)
    errors = []
    for refine in (1, 2):
        state = s
        for _ in range(2):
            for _ in range(200 * refine):
                state = step_rk4(state, dt / refine, method)
            state = state.with_fields(state.W, -state.Q)
        errors.append(max(np.max(np.abs(state.W - s.W)),
                          np.max(np.abs(state.Q - s.Q))))
    assert errors[0] / errors[1] >= min_ratio, errors


def test_runs_converge_spectrally_in_N():
    # ifrk4 to T = 5 on N = 32, 64, 128, 256 with N = 256's cfl-0.5 step;
    # the largest gap between the spectra of W (and of Q) of runs at N and
    # 2N on the modes |k| < N/2.  At eps 0.1 the gaps are 3.7e-5, 2.0e-7,
    # 1.1e-11 (Q: 7.7e-6, 4.4e-8, 1.6e-12), shrinking 175-191x, then
    # 18000-28000x; the bounds are what eps 0.12 still meets (W: 78x, then
    # 2700x; Q: 90x, then 4700x).  At eps 0.18 the N = 256 run aborts
    dt = suggest_dt(make_grid(2 * np.pi, 256, 1.0), 1.0, 0.5)
    solver = SolverConfig(dt=dt, T_final=5.0, method="ifrk4")
    spectra = []
    for N in (32, 64, 128, 256):
        s = evolve(_drift_profile(0.1, make_grid(2 * np.pi, N, 1.0), 1.0),
                   solver)
        spectra.append((N, to_spectrum(s.W), to_spectrum(s.Q)))
    gaps = []
    for (N, *coarse), (_, *fine) in zip(spectra, spectra[1:]):
        k = np.arange(1 - N // 2, N // 2)  # negative k index from the end
        gaps.append([np.abs(c[k] - f[k]).max() for c, f in zip(coarse, fine)])
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all(ratios[0] >= 75) and np.all(ratios[1] >= 2500), gaps
