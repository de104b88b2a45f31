import json
import os
import warnings

import numpy as np
import pytest

from wavestrip.grid import make_grid, to_spectrum
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import WaveState
from wavestrip.integrator import SolverConfig, evolve, suggest_dt
from wavestrip.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _drift_profile,
    build_state,
    emit_report,
    load_config,
    main,
    read_snapshot,
    run_experiment,
    write_snapshot,
    write_series_csv,
)
from conftest import small_state


def _write_config(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json", {}), "simulate")
    assert cfg.kind == "simulate"
    assert cfg.grid["N"] == 128 and np.isclose(cfg.grid["L"], 2 * np.pi)
    assert cfg.g == 1.0 and cfg.seed == 0
    assert cfg.experiment["energy_tol"] == 1e-8


def test_load_config_rejects_unknown_keys(tmp_path):
    p = _write_config(tmp_path / "c.json", {"solver": {"timestep": 0.1}})
    with pytest.raises(ConfigError, match="solver.timestep"):
        load_config(p, "simulate")
    p2 = _write_config(tmp_path / "c2.json", {"experiment": {"bogus": 1}})
    with pytest.raises(ConfigError, match="experiment.bogus"):
        load_config(p2, "simulate")


def test_load_config_type_checks(tmp_path):
    p = _write_config(tmp_path / "c.json", {"g": True})
    with pytest.raises(ConfigError):
        load_config(p, "simulate")
    p2 = _write_config(tmp_path / "c2.json", {"grid": {"N": 12.5}})
    with pytest.raises(ConfigError):
        load_config(p2, "simulate")
    p3 = _write_config(tmp_path / "c3.json", {"solver": {"dealias": 1}})
    with pytest.raises(ConfigError):
        load_config(p3, "simulate")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p), "simulate")
    with pytest.raises(ConfigError):
        load_config(str(p), "no-such-kind")


def test_snapshot_round_trip(tmp_path, grid):
    state = small_state(grid, eps=0.02)
    p1 = tmp_path / "a.snap"
    p2 = tmp_path / "b.snap"
    write_snapshot(str(p1), state)
    loaded = read_snapshot(str(p1))
    assert np.allclose(loaded.W, state.W, atol=1e-14)
    assert np.allclose(loaded.Q, state.Q, atol=1e-14)
    assert loaded.g == state.g and loaded.t == state.t
    # a read-write cycle must be byte-identical
    write_snapshot(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_continues_a_run_bit_for_bit(tmp_path):
    grid = make_grid(2 * np.pi, 64, 1.0)
    state = small_state(grid, eps=0.05)
    dt = suggest_dt(grid, 1.0, 0.5)

    def run(s, steps):
        config = SolverConfig(dt=dt, T_final=steps * dt, method="ifrk4")
        return evolve(s, config)[0]

    p = tmp_path / "mid.snap"
    write_snapshot(str(p), run(state, 10))
    resumed = run(read_snapshot(str(p)), 10)
    straight = run(state, 20)
    assert resumed.t == straight.t
    assert np.array_equal(resumed.W, straight.W)
    assert np.array_equal(resumed.Q, straight.Q)


def test_snapshot_rejects_corruption(tmp_path, grid):
    state = small_state(grid, eps=0.02)
    p = tmp_path / "a.snap"
    write_snapshot(str(p), state)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_snapshot(str(p))
    header, _, payload = raw.partition(b"\n")
    doc = json.loads(header)
    doc["layout"] = "something-else"
    p.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    with pytest.raises(ValueError):
        read_snapshot(str(p))


def test_series_csv_format(tmp_path):
    class Row:
        pass

    row = Row()
    for i, c in enumerate(CSV_COLUMNS):
        setattr(row, c, float(i))
    p = tmp_path / "s.csv"
    write_series_csv(str(p), [row])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[0] == "0.0"


def test_build_state_variants(tmp_path, grid):
    cfg = ExperimentConfig(kind="simulate")
    state = build_state(cfg)
    assert not state.W.any() and not state.Q.any()
    cfg2 = ExperimentConfig(
        kind="simulate",
        init={"surface_modes": [{"k": 1, "amplitude": 0.02, "phase": 0.1}],
              "velocity_modes": [{"k": 2, "amplitude": 0.01, "phase": 0.0}]})
    state2 = build_state(cfg2)
    assert np.max(np.abs(state2.W.imag)) > 0.01
    assert np.max(np.abs(state2.Q.real)) > 0.005
    # snapshot takes precedence over the mode lists
    snap = tmp_path / "s.snap"
    write_snapshot(str(snap), small_state(grid, eps=0.03))
    cfg3 = ExperimentConfig(kind="simulate",
                            init={"snapshot": str(snap), "surface_modes": []})
    state3 = build_state(cfg3)
    assert np.allclose(state3.W, small_state(grid, eps=0.03).W, atol=1e-13)


def _simulate_config(tmp_path, name="c.json", T=0.5, N=32):
    return _write_config(tmp_path / name, {
        "grid": {"N": N},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}],
                 "velocity_modes": [{"k": 1, "amplitude": 0.005,
                                     "phase": 1.0}]},
        "solver": {"T_final": T, "observer_stride": 2},
    })


def test_run_simulate_and_report(tmp_path):
    cfg = load_config(_simulate_config(tmp_path), "simulate")
    out = tmp_path / "run"
    status = run_experiment(cfg, str(out))
    assert status == 0
    for name in ("initial.snap", "final.snap", "series.csv", "verdict.json"):
        assert (out / name).is_file()
    report = emit_report(str(out))
    assert report.splitlines()[-1] == "overall: PASS"
    doc = json.loads((out / "verdict.json").read_text())
    assert set(doc["checksums"]) == {"initial.snap", "final.snap",
                                     "series.csv"}


def test_simulate_off_unit_cell(tmp_path):
    path = _write_config(tmp_path / "c.json", {
        "grid": {"L": 4 * np.pi, "N": 64},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}],
                 "velocity_modes": [{"k": 2, "amplitude": 0.005}]},
        "solver": {"T_final": 1.0},
    })
    out = tmp_path / "run"
    assert run_experiment(load_config(path, "simulate"), str(out)) == 0
    lines = (out / "series.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 2
    for line in lines[1:]:
        row = dict(zip(CSV_COLUMNS, map(float, line.split(","))))
        for name, value in row.items():
            assert np.isfinite(value), name


def test_drift_profile_is_band_limited_on_any_period():
    # the profile holds modes 1 to 3 of the cell, whatever its period
    for L in (2 * np.pi, 5.0):
        grid = make_grid(L, 64, 1.0)
        state = _drift_profile(0.04, grid, 1.0)
        for f in (state.W, state.Q):
            c = np.abs(to_spectrum(f))
            assert np.max(c[np.abs(grid.k) > 3]) < 1e-15, L


def test_zero_step_runs_exit_2(tmp_path, capsys):
    # a run that takes no step would pass every verdict without testing
    # anything; each is one error line and exit 2, with no artifact
    cases = (
        ("simulate", _simulate_config(tmp_path, T=0.0)),
        ("lifespan", _write_config(tmp_path / "l.json", {
            "grid": {"N": 32}, "experiment": {"horizon_factor": 0.0}})),
        ("scaling-check", _write_config(tmp_path / "s.json", {
            "grid": {"N": 32}, "experiment": {"T": 0.0}})),
        ("drift-scaling", _write_config(tmp_path / "d.json", {
            "grid": {"N": 32}, "experiment": {"T": 0.0}})),
    )
    for kind, p in cases:
        out = tmp_path / kind
        assert main([kind, "--config", p, "--out", str(out)]) == 2, kind
        err = capsys.readouterr().err
        assert _one_error_line(err) and "takes no step" in err, err
        assert not any(out.iterdir()), kind


def test_repeated_runs_identical(tmp_path):
    cfg = load_config(_simulate_config(tmp_path), "simulate")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(cfg, str(out1))
    run_experiment(cfg, str(out2))
    for name in ("initial.snap", "final.snap", "series.csv", "verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_detects_tampering(tmp_path):
    cfg = load_config(_simulate_config(tmp_path), "simulate")
    out = tmp_path / "run"
    run_experiment(cfg, str(out))
    csv = out / "series.csv"
    csv.write_text(csv.read_text().replace("0.0", "0.1", 1))
    with pytest.raises(ValueError, match="checksum"):
        emit_report(str(out))
    with pytest.raises(FileNotFoundError):
        emit_report(str(tmp_path / "nowhere"))


def test_main_exit_codes(tmp_path, capsys):
    p = _simulate_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "overall: PASS" in captured.out
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2


def _one_error_line(err):
    return (err.startswith("error: ") and "Traceback" not in err
            and len(err.strip().splitlines()) == 1)


def test_report_subcommand_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", _simulate_config(tmp_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("overall: PASS")
    # a failed verdict: no drift can meet a negative tolerance
    failing = tmp_path / "failing"
    p = _write_config(tmp_path / "f.json", {
        "grid": {"N": 32},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}]},
        "solver": {"T_final": 0.5},
        "experiment": {"energy_tol": -1.0}})
    assert main(["simulate", "--config", p, "--out", str(failing)]) == 1
    capsys.readouterr()
    assert main(["report", "--out", str(failing)]) == 1
    assert capsys.readouterr().out.strip().endswith("overall: FAIL")
    # checksum mismatch, missing artifact, missing verdict.json
    csv = out / "series.csv"
    csv.write_text(csv.read_text().replace("0.0", "0.1", 1))
    assert main(["report", "--out", str(out)]) == 2
    assert _one_error_line(capsys.readouterr().err)
    csv.unlink()
    assert main(["report", "--out", str(out)]) == 2
    assert _one_error_line(capsys.readouterr().err)
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 2
    assert _one_error_line(capsys.readouterr().err)


def test_simulate_without_initial_data_exits_2(tmp_path, capsys):
    for init in ({}, {"surface_modes": [], "velocity_modes": []}):
        p = _write_config(tmp_path / "c.json", {"grid": {"N": 32},
                                                "init": init})
        assert main(["simulate", "--config", p, "--out",
                     str(tmp_path / "run")]) == 2
        assert _one_error_line(capsys.readouterr().err)


def test_main_runtime_error_exits_2(tmp_path, capsys):
    # slope 3 * 0.5 = 1.5 is outside the conformal map's small-slope regime
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 32},
        "init": {"surface_modes": [{"k": 3, "amplitude": 0.5}]},
    })
    assert main(["simulate", "--config", p, "--out",
                 str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "slope" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_step_abort_exits_2_with_one_error_line(tmp_path, capsys):
    # dt = 50 at N = 32 is far outside the stability region: a step fails
    # its validity check, with a ledger row after every step (stride 1) or
    # before the first ledger row after step 0 (stride 100)
    for stride in (100, 1):
        p = _write_config(tmp_path / f"c{stride}.json", {
            "grid": {"N": 32},
            "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}],
                     "velocity_modes": [{"k": 1, "amplitude": 0.005}]},
            "solver": {"dt": 50.0, "T_final": 500.0,
                       "observer_stride": stride},
        })
        out = tmp_path / f"run{stride}"
        assert main(["simulate", "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: aborted at step "), stride
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.count("step ") == 1
        assert read_snapshot(str(out / "last_good.snap")).grid.N == 32
        assert not (out / "verdict.json").exists()


def _edited_snapshot(path, edit):
    """A snapshot of a small state whose W samples ``edit`` changes in place."""
    grid = make_grid(2 * np.pi, 32, 1.0)
    write_snapshot(str(path), small_state(grid, eps=0.05))
    header, payload = path.read_bytes().split(b"\n", 1)
    W = np.frombuffer(payload[:grid.N * 16], dtype="<c16").copy()
    edit(W)
    path.write_bytes(header + b"\n" + W.tobytes() + payload[grid.N * 16:])
    return str(path)


def _set_nan(W):
    W[3] = np.nan


def _below_bottom(W):
    W -= 1.5j


@pytest.mark.parametrize("edit, reason", [
    (_set_nan, "non-finite field values"),
    (_below_bottom, "surface touched the bottom"),
])
def test_invalid_snapshot_is_refused_at_load(tmp_path, capsys, edit, reason):
    snap = _edited_snapshot(tmp_path / "bad.snap", edit)
    p = _write_config(tmp_path / "c.json", {"init": {"snapshot": snap},
                                            "solver": {"T_final": 1.0}})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", p, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert caught == []
    assert not (out / "initial.snap").exists()


def test_dispersion_needs_two_steps(tmp_path, capsys):
    # the three-term frequency fit sums over the interior samples of a run:
    # one step has none; cycles 1e-9 takes no step at all
    for cycles, message in ((0.03, "needs at least 2 steps"),
                            (1e-9, "takes no step")):
        p = _write_config(tmp_path / "c.json", {
            "experiment": {"ks": [1], "cycles": cycles}})
        assert main(["dispersion", "--config", p, "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert _one_error_line(err) and message in err, err


def test_solver_cfl_rule(tmp_path, capsys):
    init = {"surface_modes": [{"k": 1, "amplitude": 0.01}]}
    # cfl is validated even when dt is given
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 32}, "init": init,
        "solver": {"dt": 0.1, "cfl": 1.5}})
    assert main(["simulate", "--config", p, "--out",
                 str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err == "error: cfl must be in (0, 1]\n"
    # without dt, the step is the CFL step for the given cfl
    p = _write_config(tmp_path / "c2.json", {
        "grid": {"N": 32}, "init": init,
        "solver": {"cfl": 0.25, "T_final": 1.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().strip().split("\n")[1:]
    want = suggest_dt(make_grid(2 * np.pi, 32, 1.0), 1.0, 0.25)
    assert {float(line.split(",")[-1]) for line in lines} == {want}


def test_symbols_interior_points_keep_off_the_lines(tmp_path, capsys):
    # d_min bounds the distance to the nearest line; without it seed 103
    # draws a point at zeta = -5.2e-4 whose 4x4 residual (1.3e-8) fails
    # tol 1e-10
    cfg = _write_config(tmp_path / "c.json", {})
    out = tmp_path / "run"
    assert main(["symbols", "--config", cfg, "--seed", "103",
                 "--out", str(out)]) == 0
    with open(out / "verdict.json", encoding="utf-8") as fh:
        verdicts = {v["name"]: v for v in json.load(fh)["verdicts"]}
    assert verdicts["system_4x4"]["measured"] <= 1e-12


def test_symbols_passes_at_seeds_0_to_29(tmp_path):
    for seed in range(30):
        cfg = load_config(_write_config(tmp_path / "c.json", {"seed": seed}),
                          "symbols")
        assert run_experiment(cfg, str(tmp_path / f"s{seed}")) == 0, seed


def test_symbols_samples_one_pair_per_draw(tmp_path):
    # the sampled points are those of a loop drawing one (xi, eta) pair at a
    # time and keeping it at least d_min from every line with rho <= rho_max
    cfg = load_config(_write_config(tmp_path / "c.json", {"seed": 7}),
                      "symbols")
    out = tmp_path / "run"
    assert run_experiment(cfg, str(out)) == 0
    lines = (out / "symbols.csv").read_text().strip().split("\n")[1:]
    got = [tuple(float(v) for v in line.split(",")[:2]) for line in lines]
    rng = np.random.default_rng(7)
    want = []
    while len(want) < 50:
        xi, eta = rng.uniform(-30.0, 30.0, 2)
        size = (abs(xi), abs(eta), abs(xi + eta))
        if min(size) >= 0.5 and 1.0 + max(size) <= 30.0:
            want.append((xi, eta))
    assert got == want


def test_every_csv_field_parses_as_a_number(tmp_path):
    runs = (
        ("simulate", _simulate_config(tmp_path), "series.csv"),
        ("dispersion", _write_config(tmp_path / "d.json", {
            "grid": {"N": 32}, "experiment": {"ks": [1, 2], "cycles": 2.0}}),
         "dispersion.csv"),
        ("symbols", _write_config(tmp_path / "s.json", {
            "experiment": {"n_points": 60}}), "symbols.csv"),
    )
    for kind, path, name in runs:
        out = tmp_path / kind
        assert run_experiment(load_config(path, kind), str(out)) in (0, 1)
        lines = (out / name).read_text().strip().split("\n")
        assert len(lines) > 1, kind
        for line in lines[1:]:
            for field in line.split(","):
                float(field)
    doc = json.loads((tmp_path / "dispersion" / "verdict.json").read_text())
    for v in doc["verdicts"]:
        float(v["target"].removeprefix("omega="))


def test_degenerate_experiment_values_exit_2(tmp_path, capsys):
    # each would divide by zero, index past its data, hang, or pass a
    # verdict over nothing; each is one config error line and exit 2
    cases = (
        ("lifespan", {"eps": 0.0}),
        ("dispersion", {"ks": [0]}),
        ("dispersion", {"ks": []}),
        ("dispersion", {"amplitude": 0.0}),
        ("dispersion", {"cycles": 0.0}),
        ("drift-scaling", {"eps": []}),
        ("drift-scaling", {"eps": [0.04]}),
        ("drift-scaling", {"eps": [0.04, 0.0]}),
        ("drift-scaling", {"eps": [0.04, 0.02, 0.01]}),
        ("taylor-audit", {"n_states": 0}),
        ("symbols", {"n_points": 0}),
        ("symbols", {"d_min": 0.5, "rho_max": 2.0}),
        ("scaling-check", {"lam": 1.0}),
    )
    for i, (kind, experiment) in enumerate(cases):
        p = _write_config(tmp_path / f"c{i}.json", {"experiment": experiment})
        out = tmp_path / f"run{i}"
        assert main([kind, "--config", p, "--out", str(out)]) == 2, experiment
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment."), err
        assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_verdict_checksums_only_own_artifacts(tmp_path):
    cfg = load_config(_simulate_config(tmp_path), "simulate")
    out = tmp_path / "run"
    out.mkdir()
    (out / "last_good.snap").write_bytes(b"stale")
    (out / "notes.csv").write_text("stale\n")
    assert run_experiment(cfg, str(out)) == 0
    doc = json.loads((out / "verdict.json").read_text())
    assert set(doc["checksums"]) == {"initial.snap", "final.snap",
                                     "series.csv"}


def test_main_out_precedence(tmp_path, monkeypatch):
    p = _simulate_config(tmp_path)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("WAVESTRIP_OUT", str(env_dir))
    assert main(["simulate", "--config", p]) == 0
    assert (env_dir / "verdict.json").is_file()


def test_run_conformal_kind(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json", {}), "conformal")
    out = tmp_path / "run"
    assert run_experiment(cfg, str(out)) == 0
    report = emit_report(str(out))
    assert "round_trip" in report and "overall: PASS" in report


def test_run_scaling_kind(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json", {
        "grid": {"N": 64},
        "experiment": {"T": 1.0},
    }), "scaling-check")
    out = tmp_path / "run"
    assert run_experiment(cfg, str(out)) == 0
