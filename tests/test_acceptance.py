"""End-to-end acceptance checks.

Each test pins one externally checkable property of the solver and toolkit
at the tolerance it is expected to hold: operator identities, conserved
quantities, symbol systems, scaling laws, and the reproducibility of the
batch runner.  Everything runs on a laptop in a few minutes.
"""

import json

import numpy as np
import pytest

from wavestrip.grid import make_grid, deriv
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import (
    WaveState,
    diag_of,
    rhs_full,
    taylor_field,
    energy,
    momentum,
    scale_state,
)
from wavestrip.integrator import SolverConfig, evolve, suggest_dt
from wavestrip.normalform import (
    dispersion_kit,
    omega_resonance,
    system_residuals,
    _symbols_holo_raw,
    _symbols_mixed_raw,
    _holo_limits_eta0,
    _holo_limits_xi0,
    _mixed_limits_eta0,
    _mixed_limits_xi0,
)
from wavestrip.diagnostics import sobolev_Nn
from wavestrip import cli
from reference import (check_identities, hamiltonian_vf, holo_from_spectrum,
                       momentum_vf, rhs_linearized, skew_check)


def _random_pair(grid, rng, scale=0.1):
    m = grid.N // 3

    def one():
        c = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        c *= scale / (1.0 + np.arange(m)) ** 2
        return holo_from_spectrum(c, grid)

    return one(), one()


def test_operator_identities():
    grid = make_grid(2 * np.pi, 256, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u, v = _random_pair(grid, rng)
        product_formula, projected_formula = check_identities(u, v, grid)
        assert product_formula <= 1e-9
        assert projected_formula <= 1e-9


def test_taylor_lower_bound():
    grid = make_grid(2 * np.pi, 128, 1.0)
    g = 1.0
    rng = np.random.default_rng(7)
    states = cli._random_states(rng, grid, g, 6, -0.9, 0.5, 500)
    c = np.min(states.W.imag, axis=-1)
    assert np.all(-0.99 < c)
    _, tmin, c_out, bound = taylor_field(states)
    assert np.allclose(c_out, c)
    assert np.all(tmin >= g * (c + grid.h) - 1e-9 * g)


def test_smoothing_kernel_identity():
    # the physical-space kernel of the sech^2 multiplier at unit depth:
    # pi/8 sech^2(pi alpha / 4) has transform 2 xi / sinh(2 xi) and mass 1
    L, N = 80.0, 4096
    alpha = (np.arange(N) - N // 2) * (L / N)
    kernel = np.pi / 8 / np.cosh(np.pi * alpha / 4) ** 2
    xi = 2 * np.pi * np.fft.fftfreq(N, d=L / N)
    ft = np.fft.fft(np.fft.ifftshift(kernel)) * (L / N)
    with np.errstate(invalid="ignore"):
        target = np.where(xi == 0, 1.0, 2 * xi / np.sinh(2 * xi))
    resolved = np.abs(xi) <= 20.0
    assert np.max(np.abs(ft[resolved].real - target[resolved])) <= 1e-8
    assert np.max(np.abs(ft[resolved].imag)) <= 1e-8
    assert abs(np.sum(kernel) * (L / N) - 1.0) <= 1e-10


def _structure_state(grid, amp):
    x = grid.nodes
    W = holo_from_real(amp * (np.cos(x + 0.3) + 0.4 * np.cos(2 * x + 1.1)),
                       grid)
    Q = holo_from_real(amp * (0.6 * np.sin(x + 0.9)
                              + 0.3 * np.sin(3 * x + 0.2)), grid)
    return WaveState(grid, W, Q, 1.0)


def test_hamiltonian_structure():
    grid = make_grid(2 * np.pi, 128, 1.0)
    state = _structure_state(grid, 1e-3)
    fW, fQ = rhs_full(state)
    hW, hQ = hamiltonian_vf(state)
    scale = max(np.max(np.abs(fW)), np.max(np.abs(fQ)))
    assert np.max(np.abs(hW - fW)) <= 1e-8 * scale
    assert np.max(np.abs(hQ - fQ)) <= 1e-8 * scale
    rng = np.random.default_rng(3)
    X = _random_pair(grid, rng, scale=1.0)
    Y = _random_pair(grid, rng, scale=1.0)
    assert skew_check(state, X, Y) <= 1e-8
    rw, rq = momentum_vf(state)
    Wa, Qa = deriv(state.W, grid), deriv(state.Q, grid)
    tscale = max(np.max(np.abs(Wa)), np.max(np.abs(Qa)))
    assert np.max(np.abs(rw - Wa)) <= 1e-8 * tscale
    assert np.max(np.abs(rq - Qa)) <= 1e-8 * tscale


def test_dispersion_relation(tmp_path):
    cfg = cli.ExperimentConfig(kind="dispersion",
                               experiment=dict(
                                   cli._KINDS["dispersion"].experiment))
    out = tmp_path / "run"
    assert cli.run_experiment(cfg, str(out)) == 0
    doc = json.loads((out / "verdict.json").read_text())
    for v in doc["verdicts"]:
        assert v["pass"], v
        assert v["measured"] <= 1e-4


def test_energy_momentum_conservation():
    grid = make_grid(2 * np.pi, 256, 1.0)
    x = grid.nodes
    state = WaveState(grid, holo_from_real(0.01 * np.cos(x), grid),
                      holo_from_real(0.005 * np.cos(x), grid), 1.0)
    E0 = energy(state)[0]
    I0 = momentum(state)
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=100.0,
                          method="rk4", project_energy=True,
                          observer_stride=10)
    recs = []
    evolve(state, config,
           [lambda i, t, s: recs.append((energy(s)[0], momentum(s)))])
    E = np.array([r[0] for r in recs])
    I = np.array([r[1] for r in recs])
    assert np.max(np.abs(E - E0)) <= 1e-8 * abs(E0)
    assert np.max(np.abs(I - I0)) <= 1e-8 * abs(I0)


def test_symbol_systems_interior():
    rng = np.random.default_rng(17)
    worst3 = worst4 = 0.0
    n = 0
    while n < 1000:
        xi, eta = rng.uniform(-30, 30, 2)
        if min(abs(xi), abs(eta), abs(xi + eta)) < 0.5:
            continue
        r3, r4 = system_residuals(xi, eta)
        worst3 = max(worst3, float(np.max(r3)))
        worst4 = max(worst4, float(np.max(r4)))
        n += 1
    assert worst3 <= 1e-10
    assert worst4 <= 1e-10


def _even_limit(f, d=0.01):
    # fourth-order even Richardson extrapolation of f(s) to s = 0
    return (4.0 * (f(d) + f(-d)) - (f(2 * d) + f(-2 * d))) / 6.0


def _mixed_raw(xi, eta):
    return _symbols_mixed_raw(xi, eta, *_symbols_holo_raw(xi, eta)[1:])


def test_symbol_line_limits():
    # the twelve closed-form line limits against numerical limits of the raw
    # quotients, at several points along each line
    for x in (0.7, 2.0, 5.0, -3.0):
        holo = _holo_limits_eta0(x)
        for i in range(3):
            num = _even_limit(lambda s: complex(_symbols_holo_raw(x, s)[i]))
            assert abs(num - holo[i]) <= 1e-6 * max(abs(holo[i]), 1.0)
        Ah0 = _holo_limits_xi0(x)[0]
        num = _even_limit(lambda s: complex(_symbols_holo_raw(s, x)[0]))
        assert abs(num - Ah0) <= 1e-6 * max(abs(Ah0), 1.0)
        for i, want in enumerate(_mixed_limits_eta0(x)):
            num = _even_limit(lambda s: complex(_mixed_raw(x, s)[i]))
            assert abs(num - want) <= 1e-6 * max(abs(want), 1.0)
        for i, want in enumerate(_mixed_limits_xi0(x)):
            num = _even_limit(lambda s: complex(_mixed_raw(s, x)[i]))
            assert abs(num - want) <= 1e-6 * max(abs(want), 1.0)


def test_resonance_sign_and_line_limit():
    rng = np.random.default_rng(23)
    xi, eta = rng.uniform(-40, 40, (2, 10000))
    assert np.all(omega_resonance(xi, eta) <= 1e-12)
    # Omega / eta^2 converges to Lambda(xi) at first order in eta
    for x in (0.7, 3.0, 12.0):
        Lam = float(dispersion_kit(x)[3])
        etas = np.array([1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
        errs = np.array([abs(float(omega_resonance(x, e)) / e ** 2 - Lam)
                         for e in etas])
        slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2
        # and its first-order coefficient is resolved down to eta = 1e-8
        assert np.isclose(errs[-1] / etas[-1], errs[-2] / etas[-2], rtol=1e-3)
    # Lambda stays strictly negative on the resolved frequency range
    xs = np.concatenate([np.linspace(0.01, 50, 4000),
                         -np.linspace(0.01, 50, 4000)])
    assert np.all(dispersion_kit(xs)[3] < 0)


def test_quartic_drift_ratio(tmp_path):
    cfg = cli.ExperimentConfig(kind="drift-scaling",
                               experiment=dict(
                                   cli._KINDS["drift-scaling"].experiment))
    out = tmp_path / "run"
    assert cli.run_experiment(cfg, str(out)) == 0
    doc = json.loads((out / "verdict.json").read_text())
    by_name = {v["name"]: v for v in doc["verdicts"]}
    assert 12.0 <= by_name["nf_drift_ratio"]["measured"] <= 20.0
    assert 6.0 <= by_name["e0_drift_ratio"]["measured"] <= 10.0


@pytest.mark.parametrize("cell", [{"h": 0.5}, {"h": 1.0}, {"h": 2.0},
                                  {"h": 4.0}, {"h": 8.0}, {"L": 5.0}])
def test_quartic_drift_ratio_across_cells(cell, tmp_path):
    # the drift ratios hold uniformly in the depth, up to deep water, and
    # on a period that is not a multiple of 2 pi; drift-scaling takes its
    # cell from the config's grid block
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": cell}))
    cfg = cli.load_config(str(path), "drift-scaling")
    out = tmp_path / "run"
    assert cli.run_experiment(cfg, str(out)) == 0
    doc = json.loads((out / "verdict.json").read_text())
    by_name = {v["name"]: v for v in doc["verdicts"]}
    assert 12.0 <= by_name["nf_drift_ratio"]["measured"] <= 20.0
    assert 6.0 <= by_name["e0_drift_ratio"]["measured"] <= 10.0


def test_lifespan_scaling():
    grid = make_grid(2 * np.pi, 256, 1.0)
    for eps in (0.05, 0.025):
        state = cli._drift_profile(eps, grid, 1.0)
        T = 0.5 / eps ** 2
        config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=T,
                              observer_stride=20)
        n1 = []
        evolve(state, config, [lambda i, t, s: n1.append(
            sobolev_Nn(diag_of(s), 1))])
        assert max(n1) <= 2.0 * n1[0]


def test_conformal_round_trip():
    from wavestrip.conformal import (SurfaceGraph, graph_to_holo,
                                     holo_to_graph, norm_comparability)
    grid = make_grid(2 * np.pi, 256, 1.0)
    eta = 0.05 * np.cos(grid.nodes) + 0.02 * np.cos(2 * grid.nodes)
    graph = SurfaceGraph(grid, eta)
    res = graph_to_holo(graph)
    back = holo_to_graph(res.W, grid)
    assert np.max(np.abs(back - eta)) <= 1e-8
    for row in norm_comparability(graph, res.W):
        assert 0.25 <= row.ratio <= 4.0


def test_linearization_consistency():
    grid = make_grid(2 * np.pi, 128, 1.0)
    state = _structure_state(grid, 0.02)
    rng = np.random.default_rng(5)
    w, q = _random_pair(grid, rng, scale=0.01)
    lin = rhs_linearized(state, (w, q))
    f0 = rhs_full(state)
    deltas = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    errs = []
    for d in deltas:
        f1 = rhs_full(state.with_fields(state.W + d * w, state.Q + d * q))
        errs.append(max(np.max(np.abs((f1[0] - f0[0]) / d - lin[0])),
                        np.max(np.abs((f1[1] - f0[1]) / d - lin[1]))))
    errs = np.array(errs)
    # one-sided differences: error linear in the step size until round-off
    slope = np.polyfit(np.log(deltas[:3]), np.log(errs[:3]), 1)[0]
    assert 0.9 <= slope <= 1.1
    # the translation direction solves the linearized system exactly
    Wa, Qa = deriv(state.W, grid), deriv(state.Q, grid)
    lw, lq = rhs_linearized(state, (Wa, Qa))
    rw, rq = deriv(f0[0], grid), deriv(f0[1], grid)
    scale = max(np.max(np.abs(rw)), np.max(np.abs(rq)))
    assert np.max(np.abs(lw - rw)) <= 1e-8 * scale
    assert np.max(np.abs(lq - rq)) <= 1e-8 * scale


def test_scaling_symmetry():
    grid = make_grid(2 * np.pi, 128, 1.0)
    state = cli._drift_profile(0.01, grid, 1.0)
    lam = 2.0
    scaled = scale_state(state, lam)
    config = SolverConfig(dt=suggest_dt(grid, 1.0, 0.5), T_final=10.0)
    f1 = evolve(state, config)
    f2 = evolve(scaled, config)
    assert np.max(np.abs(f2.W - f1.W / lam)) <= 1e-10
    assert np.max(np.abs(f2.Q - f1.Q / lam ** 2)) <= 1e-10


def test_run_determinism(tmp_path):
    cfg = cli.ExperimentConfig(
        kind="simulate",
        grid={"L": 2 * np.pi, "N": 64, "h": 1.0},
        init={"surface_modes": [{"k": 1, "amplitude": 0.01, "phase": 0.2}],
              "velocity_modes": [{"k": 1, "amplitude": 0.005, "phase": 1.0}]},
        solver={"T_final": 2.0, "observer_stride": 4},
        experiment=dict(cli._KINDS["simulate"].experiment))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.run_experiment(cfg, str(out1)) == 0
    assert cli.run_experiment(cfg, str(out2)) == 0
    for name in ("initial.snap", "final.snap", "series.csv", "verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
