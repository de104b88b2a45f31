import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from wavestrip.grid import make_grid, to_spectrum
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import WaveState
from wavestrip.diagnostics import DiagnosticsRecord
from wavestrip.integrator import SolverConfig, evolve, suggest_dt
from wavestrip.cli import (
    ConfigError,
    ExperimentConfig,
    _KINDS,
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
from conftest import count_ffts, small_state

# the ledger's columns are the ledger row's fields
COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


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
    # for rk4, ifrk4 and a 2-member stack, whose members go to snapshots of
    # their own; without the shell projection, whose targets a continued
    # run would take from the snapshot
    from wavestrip.dynamics import stack_states, unstack
    grid = make_grid(2 * np.pi, 64, 1.0)
    dt = suggest_dt(grid, 1.0, 0.5)
    one = small_state(grid, eps=0.05)
    two = stack_states([one, small_state(grid, eps=0.03)])
    for method, state in (("rk4", one), ("ifrk4", one), ("ifrk4", two)):

        def run(s, steps):
            config = SolverConfig(dt=dt, T_final=steps * dt, method=method)
            return evolve(s, config)

        members = []
        for j, m in enumerate(unstack(run(state, 10))):
            p = tmp_path / f"mid{j}.snap"
            write_snapshot(str(p), m)
            members.append(read_snapshot(str(p)))
        resumed = run(stack_states(members), 10)
        straight = run(state, 20)
        assert resumed.t == straight.t
        assert np.array_equal(resumed.W, straight.W), (method, state.W.shape)
        assert np.array_equal(resumed.Q, straight.Q), (method, state.W.shape)


def test_snapshot_refuses_a_stack(tmp_path, grid):
    # its header would say N over the B N samples of a stack
    from wavestrip.dynamics import stack_states
    stack = stack_states([small_state(grid, eps=0.02),
                          small_state(grid, eps=0.03)])
    p = tmp_path / "a.snap"
    with pytest.raises(ValueError, match="not a stack"):
        write_snapshot(str(p), stack)
    assert not p.exists()


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
    # one ledger table row per line, in the columns' order
    p = tmp_path / "s.csv"
    write_series_csv(str(p), np.arange(len(COLUMNS), dtype=float)[None])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert lines[1].split(",")[:2] == ["0.0", "1.0"]


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


@pytest.mark.parametrize("velocity", [[], [{"k": 1, "amplitude": 0.005}]])
def test_simulate_drifts_are_read_from_the_series(tmp_path, velocity):
    # energy drift max |E - E(0)| / |E(0)|; momentum drift on the energy's
    # scale when that is larger, as for a standing wave, whose I(0) is 0
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 32},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}],
                 "velocity_modes": velocity},
        "solver": {"T_final": 2.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    names = lines[0].split(",")
    E, I = (np.array([float(line.split(",")[names.index(c)])
                      for line in lines[1:]]) for c in ("E_ham", "I"))
    doc = json.loads((out / "verdict.json").read_text())
    measured = {v["name"]: v["measured"] for v in doc["verdicts"]}
    assert measured == {
        "energy_drift": np.max(np.abs(E - E[0])) / abs(E[0]),
        "momentum_drift": (np.max(np.abs(I - I[0]))
                           / max(abs(I[0]), abs(E[0])))}
    assert measured["energy_drift"] > 0 and measured["momentum_drift"] > 0


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
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) > 2
    for line in lines[1:]:
        row = dict(zip(COLUMNS, map(float, line.split(","))))
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


# nested past the parser's recursion limit
_DEEP = "[" * 100000 + "]" * 100000


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
    # documents of unknown kind, without a complete verdict list, or whose
    # checksums leave out the kind's artifacts
    good = json.loads((failing / "verdict.json").read_text())
    no_pass = [{k: v for k, v in good["verdicts"][0].items() if k != "pass"}]
    for doc in ({"checksums": {}}, dict(good, kind=["simulate"]),
                dict(good, verdicts=no_pass), [good],
                dict(good, checksums={}), dict(good, verdicts=[])):
        (failing / "verdict.json").write_text(json.dumps(doc))
        assert main(["report", "--out", str(failing)]) == 2, doc
        assert _one_error_line(capsys.readouterr().err)
    # a document nested past the parser's recursion limit
    (failing / "verdict.json").write_text(_DEEP)
    assert main(["report", "--out", str(failing)]) == 2
    assert capsys.readouterr().err == (
        "error: verdict.json is nested too deeply\n")
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
    """A snapshot of a small state whose header ``edit`` returns, after
    changing its W samples in place."""
    grid = make_grid(2 * np.pi, 32, 1.0)
    write_snapshot(str(path), small_state(grid, eps=0.05))
    header, payload = path.read_bytes().split(b"\n", 1)
    W = np.frombuffer(payload[:grid.N * 16], dtype="<c16").copy()
    header = json.dumps(edit(json.loads(header), W)).encode("utf-8")
    path.write_bytes(header + b"\n" + W.tobytes() + payload[grid.N * 16:])
    return str(path)


def _set_nan(header, W):
    W[3] = np.nan
    return header


def _below_bottom(header, W):
    W -= 1.5j
    return header


def _without_g(header, W):
    del header["g"]
    return header


def _in_a_list(header, W):
    return [header]


def _text_time(header, W):
    header["t"] = "0"
    return header


def _nan_time(header, W):
    header["t"] = float("nan")
    return header


_BAD_HEADER = ("snapshot header is not an object holding exactly "
               "L, N, g, h, layout, t")


@pytest.mark.parametrize("edit, reason", [
    (_set_nan, "non-finite field values"),
    (_below_bottom, "surface touched the bottom"),
    (_without_g, _BAD_HEADER),
    (_in_a_list, _BAD_HEADER),
    (_text_time, "snapshot header.t must be a number"),
    (_nan_time, "snapshot header.t must be a finite number"),
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


@pytest.mark.parametrize("ks", [[16], [11], [-40]])
def test_dispersion_refuses_a_mode_the_solver_removes(tmp_path, capsys, ks):
    # at N = 32 the 2/3 rule keeps |k| <= 10: the Nyquist mode 16 samples
    # zeros, and 11 or 40 (8 modulo 32) a mode the solver does not evolve
    p = _write_config(tmp_path / "c.json", {"grid": {"N": 32},
                                            "experiment": {"ks": [1, *ks]}})
    out = tmp_path / "run"
    assert main(["dispersion", "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err), err
    assert err == (f"error: dispersion k={ks[0]}: the solver removes modes "
                   "past |k| = 10 at N = 32\n")
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("kind, key, k", [
    ("simulate", "surface_modes", 100), ("simulate", "velocity_modes", 128),
    ("simulate", "surface_modes", 300), ("conformal", "surface_modes", 100)],
    ids=["past-band", "nyquist", "aliased", "conformal"])
def test_init_refuses_a_mode_the_solver_removes(tmp_path, capsys, kind,
                                                key, k):
    # at N = 256 the 2/3 rule keeps |k| <= 85: the solver's first dealias
    # removes 100 and the Nyquist mode 128, and 300 samples as mode 44; each
    # simulate config ran to "overall: PASS" before the refusal
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 256}, "solver": {"T_final": 1.0},
        "init": {key: [{"k": 1, "amplitude": 1e-4},
                       {"k": k, "amplitude": 1e-4}]}})
    out = tmp_path / "run"
    assert main([kind, "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: init.{key} k={k}: the solver removes modes past "
                   "|k| = 85 at N = 256\n")
    assert not (out / "verdict.json").exists()


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the conformal map's phase table is the first large allocation of a
    # run on a large grid (8 GiB at N = 2^20); fail it without allocating
    from wavestrip import conformal
    msg = ("Unable to allocate 8.00 GiB for an array with shape "
           "(1048576, 1024) and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(msg)

    monkeypatch.setattr(conformal, "trig_interp", refuse)
    p = _write_config(tmp_path / "c.json", {"grid": {"N": 64}, "init": {
        "surface_modes": [{"k": 1, "amplitude": 0.01}]}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err), err
    assert err == f"error: out of memory: {msg}\n"
    assert not (out / "verdict.json").exists()


def test_dispersion_refuses_a_mode_too_small_to_fit(tmp_path, capsys):
    # at the smallest subnormal amplitude every sampled coefficient is
    # subnormal round-off or 0
    p = _write_config(tmp_path / "c.json",
                      {"experiment": {"ks": [1], "amplitude": 5e-324}})
    out = tmp_path / "run"
    assert main(["dispersion", "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err), err
    assert "k=1: the mode's samples are too small to fit" in err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("h", [4.0, 20.0])
def test_dispersion_fits_every_mode_in_deep_water(tmp_path, h):
    # W's +|k| coefficient is a (1 - tanh(h |xi_k|)) / 2, exactly 0 once tanh
    # rounds to 1; the -|k| one carries the wave at every depth, for a
    # negative k as for a positive one
    p = _write_config(tmp_path / "c.json", {"grid": {"h": h},
                                            "experiment": {"ks": [1, -2, 5]}})
    out = tmp_path / "run"
    assert main(["dispersion", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "verdict.json").read_text())
    rels = [v["measured"] for v in doc["verdicts"]]
    assert len(rels) == 3 and max(rels) <= 1e-11, rels


@pytest.mark.parametrize("kind, grid, message", [
    ("simulate", {"N": 64, "h": 1e80}, "non-finite Ch symbol at kappa 1e+80"),
    ("simulate", {"N": 64, "h": 1e160}, "h = 1e+160 is too deep for the grid"),
    ("conformal", {"h": 1e308}, "h = 1e+308 is too deep for the grid"),
    ("dispersion", {"h": 1e308}, "h = 1e+308 is too deep for the grid")])
def test_a_depth_the_grid_cannot_represent_is_refused(tmp_path, capsys, kind,
                                                      grid, message):
    # (h xi)^2 overflows at 1e160, and the normal-form symbols at kappa 1e80:
    # one line, exit 2 and no floating-point warning
    p = _write_config(tmp_path / "c.json", {
        "grid": grid, "solver": {"T_final": 0.5},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}]}})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and message in err, err
    assert caught == []
    assert not (out / "verdict.json").exists()


def test_a_deep_grid_that_resolves_keeps_running(tmp_path):
    # tanh(h xi) is 1 at every mode but the mean, and every table is finite
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 64, "h": 1e20}, "solver": {"T_final": 0.5},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}]}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", p, "--out",
                     str(tmp_path / "run")]) == 0
    assert caught == []


@pytest.mark.parametrize("amplitude", [1e-156, 1e-170])
def test_dispersion_fits_a_mode_whose_squares_are_subnormal(tmp_path,
                                                            amplitude):
    # the sampled coefficients are below 1.5e-154, so their squares are
    # subnormal or 0 unless the samples are rescaled before the fit
    p = _write_config(tmp_path / "c.json",
                      {"experiment": {"amplitude": amplitude}})
    out = tmp_path / "run"
    assert main(["dispersion", "--config", p, "--out", str(out)]) == 0
    doc = json.loads((out / "verdict.json").read_text())
    rels = [v["measured"] for v in doc["verdicts"]]
    assert len(rels) == 3 and max(rels) <= 1e-12, rels


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
        ("taylor-audit", {"modes": 0}),
        ("taylor-audit", {"c_min": 0.5, "c_max": -0.9}),
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


@pytest.mark.parametrize("lam", [0.0, -2.0])
def test_scaling_check_refuses_a_lam_that_is_not_positive(tmp_path, capsys,
                                                          lam):
    # scale_state refuses such a lam; the config refuses it first, so no
    # run directory is made
    p = _write_config(tmp_path / "c.json", {"experiment": {"lam": lam}})
    out = tmp_path / "run"
    assert main(["scaling-check", "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: experiment.lam must be positive\n"
    assert not out.exists()


_RANGE = "must be two numbers, low <= high"


@pytest.mark.parametrize("kind, experiment, message", [
    ("drift-scaling", {"nf_range": [12.0]}, f"nf_range {_RANGE}"),
    ("drift-scaling", {"nf_range": [12.0, 16.0, 20.0]}, f"nf_range {_RANGE}"),
    ("drift-scaling", {"nf_range": [20.0, 12.0]}, f"nf_range {_RANGE}"),
    ("drift-scaling", {"e0_range": [6.0]}, f"e0_range {_RANGE}"),
    ("drift-scaling", {"e0_range": [6.0, 8.0, 10.0]}, f"e0_range {_RANGE}"),
    ("drift-scaling", {"e0_range": [10.0, 6.0]}, f"e0_range {_RANGE}"),
    ("conformal", {"ratio_low": 5.0}, "ratio_low must not exceed ratio_high"),
], ids=["nf_1", "nf_3", "nf_reversed", "e0_1", "e0_3", "e0_reversed",
        "ratio_reversed"])
def test_malformed_range_is_a_config_error(tmp_path, capsys, kind, experiment,
                                           message):
    # a range of the wrong length would crash after the whole run, and a
    # reversed one would run to a verdict that cannot pass
    p = _write_config(tmp_path / "c.json",
                      {"grid": {"N": 32}, "experiment": experiment})
    out = tmp_path / "run"
    assert main([kind, "--config", p, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: experiment.{message}\n"
    assert not out.exists()


def _config_error_line(tmp_path, capsys, data, name):
    """stderr of a simulate run on ``data``, which must exit 2 unwritten."""
    p = _write_config(tmp_path / f"{name}.json", data)
    out = tmp_path / name
    assert main(["simulate", "--config", p, "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


def test_nan_surface_amplitude_is_a_config_error(tmp_path, capsys):
    # json reads NaN; the conformal start would iterate on it 200 times
    data = {"grid": {"N": 64},
            "init": {"surface_modes": [{"k": 1, "amplitude": float("nan")}]}}
    assert _config_error_line(tmp_path, capsys, data, "nan") == (
        "config error: init.surface_modes[0].amplitude must be a finite "
        "number\n")


def test_infinite_tolerance_is_a_config_error(tmp_path, capsys):
    # an infinite tolerance passes any run, and its verdict.json would hold
    # the non-standard literal Infinity; an integer past 1e308 overflows
    init = {"surface_modes": [{"k": 1, "amplitude": 0.01}]}
    for key, block, value in (("energy_tol", "experiment", float("inf")),
                              ("T_final", "solver", 10 ** 400)):
        data = {"grid": {"N": 64}, "init": init, block: {key: value}}
        assert _config_error_line(tmp_path, capsys, data, key) == (
            f"config error: {block}.{key} must be a finite number\n")


@pytest.mark.parametrize("text, message", [
    (b'{"g": 1.0}\xff', "config is not valid JSON: 'utf-8' codec can't"),
    (f'{{"grid": {_DEEP}}}'.encode(),
     "config is not valid JSON: maximum recursion depth exceeded"),
], ids=["not_utf8", "nested"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text,
                                             message):
    p = tmp_path / "c.json"
    p.write_bytes(text)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_step_count_past_any_integer_exits_2(tmp_path, capsys):
    # T_final / dt overflows to inf, which no integer step count holds
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 32},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.01}]},
        "solver": {"dt": 1e-300, "T_final": 1e300}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: T_final 1e+300 takes more steps of dt 1e-300 than can be "
        "counted\n")
    assert not any(out.iterdir())


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


# a small config for each kind, N = 32 where it evolves
_SMALL = {
    "simulate": {"init": {"surface_modes": [{"k": 1, "amplitude": 0.01}]},
                 "solver": {"T_final": 0.5}},
    "dispersion": {"experiment": {"ks": [1], "cycles": 1.0}},
    "taylor-audit": {"experiment": {"n_states": 4}},
    "drift-scaling": {"experiment": {"T": 0.5}},
    "lifespan": {"experiment": {"horizon_factor": 0.00125}},
    "symbols": {"experiment": {"n_points": 20}},
    "conformal": {},
    "scaling-check": {"experiment": {"T": 0.5}},
}


@pytest.mark.parametrize("kind", _KINDS)
def test_each_kind_writes_exactly_its_declared_artifacts(tmp_path, kind):
    declared = _KINDS[kind].artifacts
    p = _write_config(tmp_path / "c.json", {"grid": {"N": 32}, **_SMALL[kind]})
    out = tmp_path / "run"
    assert run_experiment(load_config(p, kind), str(out)) in (0, 1)
    assert sorted(os.listdir(out)) == sorted([*declared, "verdict.json"])
    doc = json.loads((out / "verdict.json").read_text())
    assert sorted(doc["checksums"]) == sorted(declared)


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


def test_cli_import_loads_no_scipy():
    # importing scipy costs more than the whole setup of a run, so the
    # command line must not load it, even indirectly
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, wavestrip.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _evolve_shapes(monkeypatch):
    """The shapes of W that the cli's evolve calls take, one per call."""
    from wavestrip import cli
    shapes = []

    def recorded(state, solver, observers=()):
        shapes.append(state.W.shape)
        return evolve(state, solver, observers)

    monkeypatch.setattr(cli, "evolve", recorded)
    return shapes


def test_dispersion_stack_equals_one_run_per_k(tmp_path, monkeypatch):
    # the ks run as one stack in one evolve call to the longest horizon,
    # each sampled up to its own, and under the shell projection each onto
    # its own shell: every row equals the run of that k alone
    shapes = _evolve_shapes(monkeypatch)
    # each config with its exit code: plain rk4's phase bias fails the
    # tolerance (exit 1) at N = 32 for every k
    for config, N, code in (
            ({"grid": {"N": 32}}, 32, 0),
            ({"solver": {"project_energy": True}}, 128, 0),
            ({"grid": {"N": 32},
              "solver": {"project_energy": True, "method": "rk4"}}, 32, 1)):
        rows = {}
        for ks in ([1, 2, 5], [1], [2], [5]):
            p = _write_config(tmp_path / "c.json",
                              {**config, "experiment": {"ks": ks}})
            out = tmp_path / "-".join(map(str, ks))
            assert main(["dispersion", "--config", p, "--out",
                         str(out)]) == code
            lines = (out / "dispersion.csv").read_text().splitlines()[1:]
            rows[tuple(ks)] = lines
        assert shapes[-4:] == [(3, N), (N,), (N,), (N,)]
        assert rows[(1, 2, 5)] == rows[(1,)] + rows[(2,)] + rows[(5,)]


@pytest.mark.parametrize("kind, experiment", [
    ("dispersion", {"ks": [1, 2]}),
    ("drift-scaling", {"T": 2.0}),
])
def test_stacked_kinds_run_the_shell_projection_as_one_stack(
        tmp_path, monkeypatch, kind, experiment):
    # with the invariant-shell projection on or off, the members run as one
    # stack in one evolve call, and the verdicts barely move
    shapes = _evolve_shapes(monkeypatch)
    verdicts = []
    for project in (False, True):
        p = _write_config(tmp_path / "c.json", {
            "grid": {"N": 32}, "experiment": experiment,
            "solver": {"project_energy": project}})
        out = tmp_path / f"run{project}"
        assert main([kind, "--config", p, "--out", str(out)]) in (0, 1)
        doc = json.loads((out / "verdict.json").read_text())
        verdicts.append([v["measured"] for v in doc["verdicts"]])
    assert shapes == [(2, 32), (2, 32)]
    assert np.allclose(verdicts[0], verdicts[1], rtol=2e-2)


def test_drift_scaling_row_costs_the_ffts_of_one_member(tmp_path,
                                                        monkeypatch):
    # the observer keeps the 2-member rows and evaluates them in blocks of
    # 32 states at N = 128 (16 rows), one call of nf_energy's terms a block,
    # plus one for the remainder, whose first term is the row's E0; a block
    # makes the transform calls of one member's row
    from wavestrip import cli, normalform
    from wavestrip.dynamics import diag_of
    seen, nf_shapes = {}, []
    real_nf, real_blocked = normalform._nf_energy_terms, cli._blocked

    def spy(state, solver, observers=()):
        out = evolve(state, solver, observers)
        # the observer sees step 0 and every step after it
        seen["final"], seen["rows"] = out, solver.n_steps + 1
        return out

    def blocked(grid, g, evaluate):
        seen["evaluate"] = evaluate
        return real_blocked(grid, g, evaluate)

    def nf_terms(n, diag):
        nf_shapes.append(diag.bW.shape)
        return real_nf(n, diag)

    monkeypatch.setattr(cli, "evolve", spy)
    monkeypatch.setattr(cli, "_blocked", blocked)
    monkeypatch.setattr(normalform, "_nf_energy_terms", nf_terms)
    p = _write_config(tmp_path / "c.json", {"grid": {"N": 128}})
    assert main(["drift-scaling", "--config", p, "--out",
                 str(tmp_path / "run")]) == 0
    rows = seen["rows"]
    assert rows % 16
    assert nf_shapes == [(32, 128)] * (rows // 16) + [(2 * (rows % 16), 128)]
    final = seen["final"]
    member = WaveState(final.grid, final.W[0], final.Q[0], final.g, final.t)
    block = WaveState(final.grid, np.concatenate([final.W] * 16),
                      np.concatenate([final.Q] * 16), final.g, final.t)

    def one_member():
        d = diag_of(member)
        return normalform.nf_energy(1, d)

    counts = [count_ffts(monkeypatch, one_member)[1]]
    counts += [count_ffts(monkeypatch, lambda: seen["evaluate"](
        s, [s.t] * len(s.W)))[1] for s in (final, block)]
    assert counts == [36, 36, 36]


def test_stack_abort_exits_2_with_a_one_member_snapshot(tmp_path, capsys,
                                                        monkeypatch):
    # dispersion at N = 32 runs ks 1, 2, 5 as one stack for 162 steps (their
    # own horizons are 162, 102 and 63), and member 1 (k = 2) fails at
    # step 80
    from wavestrip import integrator
    real = integrator.rhs_full
    grid = make_grid(2 * np.pi, 32, 1.0)
    dt = suggest_dt(grid, 1.0, 0.5)

    def field(state):
        fW, fQ = real(state)
        if state.W.ndim == 2 and state.t > 78.5 * dt:
            fW = fW.copy()
            fW[1] = np.nan
        return fW, fQ

    monkeypatch.setattr(integrator, "rhs_full", field)
    p = _write_config(tmp_path / "c.json", {"grid": {"N": 32}})
    out = tmp_path / "run"
    assert main(["dispersion", "--config", p, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("error: aborted at step 80: non-finite field "
                          "values; last good state in ")
    last = read_snapshot(str(out / "last_good.snap"))
    assert last.W.shape == (32,) and np.isclose(last.t, 79 * dt)
    c = np.abs(to_spectrum(last.W))
    assert np.argmax(c[1:6]) + 1 == 2
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("N", [18, 100])
def test_simulate_on_a_grid_that_is_not_a_power_of_2(tmp_path, N):
    # the ledger's bmo proxy uses the dyadic windows that divide N
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": N},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
        "solver": {"T_final": 1.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", p, "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().strip().split("\n")
    col = lines[0].split(",").index("B_proxy")
    assert all(float(line.split(",")[col]) > 0 for line in lines[1:])


def test_taylor_audit_memory_is_blocked(tmp_path):
    # the 500 default states are evaluated in stacks of a few: one stack of
    # all of them peaks near 21 MiB at N = 128
    from wavestrip.cli import _run_taylor_audit
    cfg = load_config(_write_config(tmp_path / "c.json", {}), "taylor-audit")
    _run_taylor_audit(cfg, str(tmp_path))   # warm the grid's caches
    tracemalloc.start()
    try:
        verdicts = _run_taylor_audit(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert verdicts[0]["pass"]


def _spy_simulate(tmp_path, monkeypatch, data, name="run"):
    """Run ``simulate`` on ``data``; returns its exit code, its run directory
    and every state its ledger was handed, with the step size."""
    from wavestrip import cli
    seen = []

    def spy(state, solver, observers=()):
        def keep(i, t, s):
            seen.append((s, solver.dt))
            observers[0](i, t, s)
        return evolve(state, solver, [keep])

    monkeypatch.setattr(cli, "evolve", spy)
    p = _write_config(tmp_path / f"{name}.json", data)
    out = tmp_path / name
    code = main(["simulate", "--config", p, "--out", str(out)])
    monkeypatch.undo()
    return code, out, seen


@pytest.mark.parametrize("grid, T, rows", [
    # the ledger workload's grid and horizon: 133 rows, 8 x 16 + 5
    ({"N": 256}, 20.0, 133),
    ({"N": 100}, 5.0, 22),
    ({"N": 128, "L": 4 * np.pi, "h": 0.5}, 5.0, 17),
])
def test_blocked_ledger_equals_one_measure_call_per_row(tmp_path, monkeypatch,
                                                        grid, T, rows):
    # the ledger measures its states in blocks of _block_size (16 at
    # N = 256, 40 at N = 100, 32 at N = 128); each row is bit for bit the
    # row of one measure call on its own state, the partial last block
    # included
    from wavestrip import diagnostics
    from wavestrip.cli import _block_size
    sizes = []
    real = diagnostics.measure

    def measure(s, dt=0.0):
        sizes.append(s.W.shape[0])
        return real(s, dt=dt)

    monkeypatch.setattr(diagnostics, "measure", measure)
    code, out, seen = _spy_simulate(tmp_path, monkeypatch, {
        "grid": grid,
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02},
                                   {"k": 2, "amplitude": 0.005}],
                 "velocity_modes": [{"k": 1, "amplitude": 0.005}]},
        "solver": {"T_final": T}})
    assert code == 0
    assert len(seen) == rows
    block = _block_size(seen[0][0].grid)
    assert sizes == [block] * (rows // block) + [rows % block]
    write_series_csv(str(tmp_path / "single.csv"), np.concatenate(
        [real(s, dt=dt).table([s.t]) for s, dt in seen]))
    assert ((out / "series.csv").read_bytes()
            == (tmp_path / "single.csv").read_bytes())


def _measure_spy(monkeypatch, calls):
    """Patch diagnostics.measure to note, per call, its stack size, the FFT
    calls it makes and whether evolve is still running."""
    from wavestrip import cli, diagnostics
    real_measure, real_evolve = diagnostics.measure, cli.evolve
    state = {"evolving": False, "inside": False, "ffts": 0}
    for fft_name in ("fft", "ifft"):
        original = getattr(np.fft, fft_name)

        def counted(*args, _fn=original, **kwargs):
            state["ffts"] += state["inside"]
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, fft_name, counted)

    def measure(s, dt=0.0):
        state["inside"], state["ffts"] = True, 0
        try:
            return real_measure(s, dt=dt)
        finally:
            state["inside"] = False
            calls.append((s.W.shape[0], state["ffts"], state["evolving"]))

    def evolve_(*args, **kwargs):
        state["evolving"] = True
        try:
            return real_evolve(*args, **kwargs)
        finally:
            state["evolving"] = False

    monkeypatch.setattr(diagnostics, "measure", measure)
    monkeypatch.setattr(cli, "evolve", evolve_)


def test_simulate_ledger_costs_the_ffts_of_one_measure_call_per_block(
        tmp_path, monkeypatch):
    # 21 rows at N = 256 are two blocks (16, then 5): two measure calls,
    # each with the FFT calls of one call on one state
    from wavestrip.diagnostics import measure
    calls = []
    _measure_spy(monkeypatch, calls)
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 256},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
        "solver": {"T_final": 3.0}})
    assert main(["simulate", "--config", p, "--out",
                 str(tmp_path / "run")]) == 0
    monkeypatch.undo()
    lines = (tmp_path / "run" / "series.csv").read_text().splitlines()
    rows = len(lines) - 1
    assert rows == 21
    final = read_snapshot(str(tmp_path / "run" / "final.snap"))
    one = count_ffts(monkeypatch, lambda: measure(final))[1]
    assert one > 0
    assert [size for size, _, _ in calls] == [16, 5]
    assert sum(ffts for _, ffts, _ in calls) == 2 * one


def test_ledger_memory_is_bounded_for_any_horizon(tmp_path, monkeypatch):
    # the ledger keeps at most one block of states: 148 rows (more than 2
    # blocks of 64 at N = 64) are measured in stacks of at most 64, and the
    # full blocks while evolve runs, not all at its end
    calls = []
    _measure_spy(monkeypatch, calls)
    p = _write_config(tmp_path / "c.json", {
        "grid": {"N": 64},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
        "solver": {"T_final": 45.0}})
    assert main(["simulate", "--config", p, "--out",
                 str(tmp_path / "run")]) == 0
    monkeypatch.undo()
    sizes = [size for size, _, _ in calls]
    assert sizes == [64] * 2 + [20]
    assert [evolving for _, _, evolving in calls] == [True] * 2 + [False]


def test_non_finite_ledger_entry_exits_2_with_one_error_line(
        tmp_path, capsys, monkeypatch):
    # the rows of steps 5 and 9, in the first block of 16, have a
    # non-finite E1_NF: the earlier one surfaces, named by its time, when
    # that block is measured after step 15, as one error line and exit 2,
    # with no series or verdict
    from wavestrip import normalform
    real_nf = normalform.nf_energy
    calls = []

    def nf_energy(n, diag):
        out = real_nf(n, diag)
        calls.append(diag.bW.shape)
        out[[5, 9]] = np.nan
        return out

    monkeypatch.setattr(normalform, "nf_energy", nf_energy)
    code, out, seen = _spy_simulate(tmp_path, monkeypatch, {
        "grid": {"N": 256},
        "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
        "solver": {"T_final": 3.0}})
    assert code == 2
    err = capsys.readouterr().err
    assert _one_error_line(err), err
    assert calls == [(16, 256)] and len(seen) == 16
    assert err == ("error: non-finite diagnostic entry E1_NF = nan "
                   f"at t = {seen[5][0].t}\n")
    assert not (out / "series.csv").exists()
    assert not (out / "verdict.json").exists()
