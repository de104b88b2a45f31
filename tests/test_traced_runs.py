"""A run under the benchmark's tracer writes what the plain run writes.

``bench/tracer.py`` wraps every layer's public calls and the FFT entry
points, and ``bench/run.py`` requires its traced passes to reproduce the
checksums of the untraced ones.  So each of these small runs goes once
through ``python -m wavestrip.cli`` and once through the tracer: both must
exit 0 with the same verdicts and the same artifact checksums.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MODE = {"k": 1, "amplitude": 0.02, "phase": 0.3}
RUNS = [
    ("simulate", {"grid": {"N": 64}, "solver": {"T_final": 2.0},
                  "init": {"surface_modes": [_MODE,
                                             {"k": 2, "amplitude": 0.005}],
                           "velocity_modes": [{"k": 1, "amplitude": 0.005}]}}),
    ("drift-scaling", {"experiment": {"T": 5.0}}),
    ("dispersion", {"grid": {"N": 32}}),
]


def _run(argv, out_dir):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(out_dir, "verdict.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    verdicts = [(v["name"], v["pass"], v["measured"]) for v in doc["verdicts"]]
    assert verdicts and all(v[1] for v in verdicts)
    return doc["checksums"], verdicts


@pytest.mark.parametrize("kind, config", RUNS, ids=[r[0] for r in RUNS])
def test_traced_run_writes_the_plain_runs_bytes(tmp_path, kind, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    args = [kind, "--config", str(cfg), "--out"]
    want = _run(["-m", "wavestrip.cli"] + args + [str(plain)], plain)
    got = _run([os.path.join(ROOT, "bench", "tracer.py"), "--spans",
                str(tmp_path / "spans.json"), "--"] + args + [str(traced)],
               traced)
    assert got == want
    assert os.path.getsize(tmp_path / "spans.json") > 0
