import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_self_test_pins_fft_counts():
    # bench/run.py --self-test checks the FFT count of one rhs_full call,
    # one rk4 and one ifrk4 step and one ledger row against pinned values
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--self-test"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
