import importlib.util
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_runs", os.path.join(ROOT, "tools", "compare_runs.py"))
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def test_difference_sizes_by_column_path_and_line():
    how = compare_runs._how_different
    assert how("out/a.csv", b"x,y\n1.0,2e-3\n3,4\n",
               b"x,y\n1.0,2.2e-3\n3,5\n") == "numbers by up to 2.0e-01 (y)"
    doc = {"checksums": {"a.csv": "ab12"},
           "verdicts": [{"name": "v", "measured": 1.0, "pass": True}]}
    changed = {"checksums": {"a.csv": "ab13"},
               "verdicts": [{"name": "v", "measured": 1.5, "pass": False}]}
    assert how("verdict.json", json.dumps(doc).encode(),
               json.dumps(changed).encode()) == (
        "numbers by up to 3.3e-01 (verdicts[v].measured); "
        "text at checksums.a.csv, verdicts[v].pass")
    assert how("log.txt", b"PASS r3: measured=1e-10 tol=1e-6\n",
               b"FAIL r3: measured=4e-10 tol=1e-6\n") == (
        "numbers by up to 7.5e-01 (line 1); text at line 1")
    assert how("out/a.csv", b"x\n0.0\n", b"x\n-0.0\n") == (
        "numbers by up to 0.0e+00 (x)")
    assert how("out/a.csv", b"x\n1\n", b"x\n1,2\n") == "layout differs"
    assert how("final.snap", b"\xff\x00", b"\xfe\x00") == "binary or unparsable"


def test_runs_include_the_extra_configs(monkeypatch):
    # the plan's runs, then the projection on the stacked kinds (default N
    # and rk4 at N = 32), simulate at N = 100, drift-scaling on the
    # (2 pi, 0.25) and (3, 1) cells and simulate at N = 1024 on the
    # (4 pi, 0.5) cell; loading bench/run.py puts bench on
    # sys.path and stops bytecode writes, both undone afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    runs = compare_runs._runs(compare_runs._bench_run())
    extra = [(kind, cfg) for label, kind, cfg in runs
             if label.startswith("extra/")]
    assert extra == list(compare_runs.EXTRA_RUNS)
    assert len(runs) == 16 + len(extra)
    for kind in ("dispersion", "drift-scaling"):
        configs = [cfg for k, cfg in extra if k == kind][:2]
        assert [cfg["solver"] for cfg in configs] == [
            {"project_energy": True},
            {"project_energy": True, "method": "rk4"}]
        assert [cfg.get("grid", {}).get("N") for cfg in configs] == [None, 32]
    assert [cfg["grid"] for k, cfg in extra if k == "simulate"] == [
        {"N": 100}, {"N": 1024, "L": 4 * math.pi, "h": 0.5}]
    assert [cfg for k, cfg in extra if k == "drift-scaling"][2:] == [
        {"grid": {"h": 0.25}}, {"grid": {"L": 3.0}}]


def test_column_scale_of_a_near_zero_column():
    # entry by entry a near-zero value reads as a large relative change;
    # against the column's largest magnitude it reads at its true size
    how = compare_runs._how_different
    assert how("out/series.csv", b"E,I\n1.0,1e-17\n2.0,1.0\n",
               b"E,I\n1.0,2e-17\n2.0,1.0\n") == (
        "numbers by up to 5.0e-01 (I); "
        "relative to the column's largest magnitude 1.0e-17 of 1.0e+00 (I)")


def test_snapshot_differences_by_header_field_and_sample(tmp_path):
    from wavestrip.cli import write_snapshot
    from wavestrip.dynamics import WaveState
    from wavestrip.grid import make_grid
    from wavestrip.holo import holo_from_real

    grid = make_grid(2 * math.pi, 16, 1.0)
    W = holo_from_real(0.01 * np.cos(grid.nodes), grid)
    Q = holo_from_real(0.005 * np.sin(grid.nodes), grid)
    Q2 = Q.copy()
    Q2[3] += 1e-6 * np.abs(Q).max()

    def snap(name, state):
        write_snapshot(str(tmp_path / name), state)
        return (tmp_path / name).read_bytes()

    a = snap("a.snap", WaveState(grid, W, Q, 1.0))
    b = snap("b.snap", WaveState(grid, W, Q2, 1.0, t=2.0))
    how = compare_runs._how_different
    assert how("final.snap", a, b) == (
        "header differs at t; samples by up to 1.0e-06 (Q) "
        "of the field's largest |sample|")
    assert how("final.snap", a, a[:-16]) == "binary or unparsable"
