import numpy as np
import pytest

from wavestrip.grid import make_grid, deriv, dealias, tilbert
from wavestrip.holo import holo_from_real, project
from wavestrip.dynamics import (
    InvalidState,
    WaveState,
    DiagState,
    coefficients,
    diag_of,
    rhs_full,
    rhs_diag,
    taylor_field,
    energy,
    momentum,
    hamiltonian_vf,
    momentum_vf,
    skew_check,
    rhs_linearized,
    model_energies,
    scale_state,
    stack_states,
    unstack,
)
from conftest import same_bits, small_state, random_trace


def _zero_state(grid, g=1.0):
    z = np.zeros(grid.N, dtype=complex)
    return WaveState(grid, z, z, g)


def test_state_validation(grid):
    z = np.zeros(grid.N, dtype=complex)
    with pytest.raises(ValueError):
        WaveState(grid, z, z, -1.0)
    nan = z.copy()
    nan[5] = np.nan
    inf = z.copy()
    inf[5] = np.inf
    # W_alpha = -1 at alpha = pi/2: J = 0 there
    flat_spot = holo_from_real(np.cos(grid.nodes), grid)
    for W, Q, reason in ((nan, z, "non-finite"), (inf, z, "non-finite"),
                         (z, nan, "non-finite"),
                         (flat_spot, z, "degenerate parametrization"),
                         (z - 1.0j, z, "touched the bottom")):
        with pytest.raises(InvalidState, match=reason):
            WaveState(grid, W, Q, 1.0)
    # the diagonal record tests its slope bW directly
    dip = z.copy()
    dip[5] = -1.0
    for bW, R, reason in ((nan, z, "non-finite"), (inf, z, "non-finite"),
                          (z, inf, "non-finite"),
                          (dip, z, "degenerate parametrization")):
        with pytest.raises(InvalidState, match=reason):
            DiagState(grid, bW, R, 1.0)


def test_stack_validity_names_the_lowest_failing_member(grid):
    z = np.zeros(grid.N, dtype=complex)
    nan = z.copy()
    nan[5] = np.nan
    flat_spot = holo_from_real(np.cos(grid.nodes), grid)
    ok = small_state(grid).W
    # members 1 and 2 fail; member 1 is reported with its own first reason
    for rows, reason in (((ok, z - 1.0j, nan), "touched the bottom"),
                         ((ok, flat_spot, z - 1.0j),
                          "degenerate parametrization"),
                         ((ok, nan, flat_spot), "non-finite")):
        with pytest.raises(InvalidState, match=reason) as exc:
            WaveState(grid, np.stack(rows), np.stack([z, z, z]), 1.0)
        assert exc.value.member == 1
    with pytest.raises(InvalidState, match="non-finite") as exc:
        WaveState(grid, np.stack([ok, ok]), np.stack([z, nan]), 1.0)
    assert exc.value.member == 1
    with pytest.raises(InvalidState) as exc:
        WaveState(grid, nan, z, 1.0)
    assert exc.value.member is None


def test_stack_and_unstack(grid):
    a, b = small_state(grid, eps=0.02), small_state(grid, eps=0.03)
    s = stack_states([a, b])
    assert s.W.shape == s.Q.shape == (2, grid.N)
    for m, want in zip(unstack(s), (a, b)):
        assert np.array_equal(m.W, want.W) and np.array_equal(m.Q, want.Q)
        assert (m.grid, m.g, m.t) == (want.grid, want.g, want.t)
    assert stack_states([a]) is a and unstack(a) == [a]
    for other in (WaveState(grid, a.W, a.Q, 2.0),
                  WaveState(grid, a.W, a.Q, 1.0, t=1.0),
                  WaveState(make_grid(2 * np.pi, grid.N, 2.0), a.W, a.Q, 1.0),
                  s):
        with pytest.raises(ValueError, match="single members"):
            stack_states([a, other])


def test_steep_valid_state_has_a_diagonal_state(grid):
    # min Re W_alpha = -0.7, so min J = 0.09 and ||Y||_inf = 0.7/0.3 > 1:
    # Y is a size in the control norm, not a validity bound
    W = holo_from_real(0.35 * np.cos(2 * grid.nodes), grid)
    Wa = deriv(W, grid)
    assert np.isclose(np.min(Wa.real), -0.7)
    d = diag_of(WaveState(grid, W, 0.01 * W, 1.0))
    assert np.max(np.abs(d.bW / (1.0 + d.bW))) > 2.3
    assert np.all(np.isfinite(rhs_diag(d)[0]))


def test_state_shape_check(grid):
    z = np.zeros(grid.N, dtype=complex)
    short = np.zeros(grid.N + 1)
    for record in (WaveState, DiagState):
        with pytest.raises(ValueError):
            record(grid, short, z, 1.0)
        with pytest.raises(ValueError):
            record(grid, z, short, 1.0)
    # real samples are stored as contiguous complex128
    state = WaveState(grid, np.zeros(2 * grid.N)[::2], z, 1.0)
    assert state.W.dtype == np.complex128 and state.W.flags.c_contiguous
    # a stack holds B >= 1 rows of N samples, the same shape for both fields
    stack = np.zeros((3, grid.N), dtype=complex)
    for record in (WaveState, DiagState):
        for a, b in ((stack, z), (z, stack), (stack, stack[:2]),
                     (stack[:0], stack[:0]), (stack[None], stack[None])):
            with pytest.raises(ValueError):
                record(grid, a, b, 1.0)
        assert record(grid, stack, stack, 1.0).t == 0.0


def test_diag_of(grid):
    state = small_state(grid)
    d = diag_of(state)
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    assert np.allclose(d.bW, dealias(Wa, grid), atol=1e-13)
    # R (1 + bW) recovers Q_alpha up to the dealias truncation
    recon = dealias(d.R * (1.0 + d.bW), grid)
    assert np.max(np.abs(recon - dealias(Qa, grid))) < 1e-8


def test_zero_state_is_stationary(grid):
    fW, fQ = rhs_full(_zero_state(grid))
    assert np.max(np.abs(fW)) < 1e-14
    assert np.max(np.abs(fQ)) < 1e-14


def test_rhs_full_linear_limit(grid):
    # at tiny amplitude the system reduces to W_t = -Q_alpha, Q_t = g T W
    from wavestrip.grid import tilbert
    eps = 1e-9
    state = small_state(grid, eps=eps, g=1.3)
    fW, fQ = rhs_full(state)
    Qa = deriv(state.Q, grid)
    assert np.max(np.abs(fW + Qa)) < 1e-16 + 100 * eps ** 2
    assert np.max(np.abs(fQ - 1.3 * tilbert(state.W, grid))) < 1e-16 + 100 * eps ** 2


def test_full_and_diag_flows_consistent(grid):
    # advancing the full state and mapping to diagonal variables must agree
    # with the diagonal vector field (first order in dt) modulo the advection
    # gauge: the two systems assign different zero-mode constants to their
    # transport speeds, so the flows differ by c * (bW_alpha, R_alpha) for a
    # single small complex constant c = O(eps^2)
    eps = 0.05
    state = small_state(grid, eps=eps)
    d0 = diag_of(state)
    f = rhs_full(state)
    dt = 1e-6
    moved = state.with_fields(state.W + dt * f[0], state.Q + dt * f[1])
    d1 = diag_of(moved)
    gW, gR = rhs_diag(d0)
    rW = (d1.bW - d0.bW) / dt - gW
    rR = (d1.R - d0.R) / dt - gR
    bWa = deriv(d0.bW, grid)
    Ra = deriv(d0.R, grid)
    c = ((np.vdot(bWa, rW) + np.vdot(Ra, rR))
         / (np.vdot(bWa, bWa) + np.vdot(Ra, Ra)))
    assert abs(c) < 10.0 * eps ** 2
    errW = np.max(np.abs(rW - c * bWa))
    errR = np.max(np.abs(rR - c * Ra))
    scale = max(np.max(np.abs(gW)), np.max(np.abs(gR)))
    assert errW < 1e-6 * scale
    assert errR < 1e-6 * scale


def test_taylor_field_flat(grid):
    field, tmin, c, bound = taylor_field(_zero_state(grid, g=2.0))
    assert np.allclose(field, 2.0, atol=1e-13)
    assert np.isclose(tmin, 2.0)
    assert np.isclose(c, 0.0)
    assert np.isclose(bound, 2.0 * grid.h)


def test_taylor_bound_holds(grid):
    state = small_state(grid, eps=0.08)
    _, tmin, c, bound = taylor_field(state)
    assert tmin >= bound - 1e-9


def test_energy_forms_agree(grid):
    state = small_state(grid, eps=0.05)
    e1, e2 = energy(state)
    assert np.isclose(e1, e2, rtol=1e-10)
    assert e1 > 0


def test_energy_momentum_of_zero_state(grid):
    state = _zero_state(grid)
    assert energy(state) == (0.0, 0.0)
    assert momentum(state) == 0.0


def test_hamiltonian_route_matches_rhs(grid):
    state = small_state(grid, eps=1e-3)
    fW, fQ = rhs_full(state)
    hW, hQ = hamiltonian_vf(state)
    scale = max(np.max(np.abs(fW)), np.max(np.abs(fQ)))
    assert np.max(np.abs(hW - fW)) < 1e-9 * scale
    # the Q row agrees up to a residual gauge constant of size O(eps^4)
    assert np.max(np.abs(hQ - fQ)) < 1e-8 * scale
    d = hQ - fQ
    assert np.max(np.abs(d - np.mean(d))) < 1e-10 * scale


def test_momentum_route_is_translation(grid):
    state = small_state(grid, eps=0.03)
    rw, rq = momentum_vf(state)
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    scale = max(np.max(np.abs(Wa)), np.max(np.abs(Qa)))
    assert np.max(np.abs(rw - Wa)) < 1e-10 * scale
    assert np.max(np.abs(rq - Qa)) < 1e-10 * scale


def test_structure_matrix_skew(grid, rng):
    state = small_state(grid, eps=0.01)
    X = (random_trace(grid, rng), random_trace(grid, rng))
    Y = (random_trace(grid, rng), random_trace(grid, rng))
    assert skew_check(state, X, Y) < 1e-9


def test_linearized_directional_derivative(grid, rng):
    state = small_state(grid, eps=0.02)
    w = random_trace(grid, rng, scale=0.01)
    q = random_trace(grid, rng, scale=0.01)
    lin = rhs_linearized(state, (w, q))
    f0 = rhs_full(state)
    d = 1e-6
    f1 = rhs_full(state.with_fields(state.W + d * w, state.Q + d * q))
    err = max(np.max(np.abs((f1[0] - f0[0]) / d - lin[0])),
              np.max(np.abs((f1[1] - f0[1]) / d - lin[1])))
    assert err < 1e-6


def test_scale_state_commutes_with_rhs(grid):
    state = small_state(grid, eps=0.05, g=1.0)
    lam = 2.0
    scaled = scale_state(state, lam)
    fW, fQ = rhs_full(state)
    sW, sQ = rhs_full(scaled)
    assert np.max(np.abs(sW - fW / lam)) < 1e-14
    assert np.max(np.abs(sQ - fQ / lam ** 2)) < 1e-14
    with pytest.raises(ValueError):
        scale_state(state, 0.0)


def test_coefficients_transport_speed(grid):
    state = small_state(grid, eps=0.04)
    # F = b - conj(Q_alpha)/J, both fields dealiased
    Wa = deriv(state.W, grid)
    Qa = deriv(state.Q, grid)
    c = coefficients(grid, state.g, Wa, dealias(Qa / (1.0 + Wa), grid))
    J = np.abs(1.0 + Wa) ** 2
    assert np.allclose(c.J, J, atol=1e-12)
    want = dealias(c.b - np.conj(Qa) / J, grid)
    # c.F is built from the diagonal R; agreement up to dealias cross terms
    assert np.max(np.abs(c.F - want)) < 1e-7


def test_model_energies_positive(grid, rng):
    state = small_state(grid, eps=0.02)
    d = diag_of(state)
    pair = (d.bW, d.R)
    e2, e2w = model_energies(d, pair, np.ones(grid.N))
    assert e2 > 0
    assert np.isclose(e2, e2w, rtol=1e-12)  # weight 1


def _rhs_full_expression(state):
    """rhs_full written as one expression per line, every temporary its own
    array: the reference for the in-place evaluation."""
    grid, g, Wv, Qv = state.grid, state.g, state.W, state.Q
    Wa = deriv(Wv, grid)
    Qa = deriv(Qv, grid)
    one_pW = 1.0 + Wa
    J = np.abs(one_pW) ** 2
    p = project(dealias((Qa - np.conj(Qa)) / J, grid), grid, "holo")
    F = p - 1j * np.mean(p, axis=-1, keepdims=True).imag
    Wt = -dealias(F * one_pW, grid)
    Qt = (-dealias(F * Qa, grid) + g * tilbert(Wv, grid)
          - project(dealias(np.abs(Qa) ** 2 / J, grid), grid, "holo"))
    return dealias(Wt, grid), dealias(Qt, grid)


@pytest.mark.parametrize("N, B", [(64, None), (100, None), (512, None),
                                  (100, 7), (128, 128)])
def test_rhs_full_equals_its_expression(N, B):
    grid = make_grid(2 * np.pi, N, 0.7)
    rng = np.random.default_rng(N)
    members = [WaveState(grid, random_trace(grid, rng, scale=0.02),
                         random_trace(grid, rng, scale=0.02), 1.3)
               for _ in range(B or 1)]
    state = members[0] if B is None else stack_states(members)
    for got, want in zip(rhs_full(state), _rhs_full_expression(state)):
        assert same_bits(got, want)
