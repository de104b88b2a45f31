import json
import os

import numpy as np
import pytest

from wavestrip.grid import make_grid
from wavestrip.holo import holo_from_real
from wavestrip.dynamics import WaveState
from wavestrip.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
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
    assert np.allclose(loaded.W.values, state.W.values, atol=1e-14)
    assert np.allclose(loaded.Q.values, state.Q.values, atol=1e-14)
    assert loaded.g == state.g and loaded.t == state.t
    # a read-write cycle must be byte-identical
    write_snapshot(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


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
    row.E2_NF = None
    p = tmp_path / "s.csv"
    write_series_csv(str(p), [row])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[0] == "0.0"


def test_build_state_variants(tmp_path, grid):
    cfg = ExperimentConfig(kind="simulate")
    state = build_state(cfg)
    assert not state.W.values.any() and not state.Q.values.any()
    cfg2 = ExperimentConfig(
        kind="simulate",
        init={"surface_modes": [{"k": 1, "amplitude": 0.02, "phase": 0.1}],
              "velocity_modes": [{"k": 2, "amplitude": 0.01, "phase": 0.0}]})
    state2 = build_state(cfg2)
    assert np.max(np.abs(state2.W.values.imag)) > 0.01
    assert np.max(np.abs(state2.Q.values.real)) > 0.005
    # snapshot takes precedence over the mode lists
    snap = tmp_path / "s.snap"
    write_snapshot(str(snap), small_state(grid, eps=0.03))
    cfg3 = ExperimentConfig(kind="simulate",
                            init={"snapshot": str(snap), "surface_modes": []})
    state3 = build_state(cfg3)
    assert np.allclose(state3.W.values,
                       small_state(grid, eps=0.03).W.values, atol=1e-13)


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
            if name in ("E1_NF", "E13_high"):
                assert np.isnan(value)
            else:
                assert np.isfinite(value), name


def test_zero_duration_run_preserves_snapshot(tmp_path):
    cfg = load_config(_simulate_config(tmp_path, T=0.0), "simulate")
    out = tmp_path / "run"
    assert run_experiment(cfg, str(out)) == 0
    assert (out / "initial.snap").read_bytes() == \
        (out / "final.snap").read_bytes()


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


def test_main_out_precedence(tmp_path, monkeypatch):
    p = _simulate_config(tmp_path, T=0.0)
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
