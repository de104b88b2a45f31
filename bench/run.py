"""End-to-end benchmark of the ``waves`` command line.

    python3 bench/run.py --workload ledger --seed 1 --seconds 36 --trace 0

Each workload is a list of ``waves`` experiments whose inputs come from
``--seed``.  One pass runs them one after another, each as a fresh
single-threaded process with a fresh, empty output directory (closed loop,
one client).  Passes repeat until ``--seconds`` is spent; timings are medians
over passes.  Every process must exit 0, pass every verdict, pass
``cli.emit_report`` (which re-verifies the artifact checksums), write exactly
the artifacts its kind documents, and reproduce the checksums of the first
pass byte for byte.

``--trace 0`` prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
pass_share.  ``--trace 1`` alternates untraced passes with traced ones (each
experiment run in-process under ``tracer.py``) and prints the per-layer
metrics, including the tracing overhead.  ``--self-test`` checks the FFT
counter.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Artifacts each kind checksums into verdict.json.
ARTIFACTS = {
    "simulate": {"initial.snap", "final.snap", "series.csv"},
    "lifespan": {"final.snap"},
    "dispersion": {"dispersion.csv"},
    "taylor-audit": set(),
    "drift-scaling": set(),
    "symbols": {"symbols.csv"},
    "conformal": set(),
    "scaling-check": set(),
}

WORKLOADS = ("ledger", "evolve", "verify-suite")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0

# Seconds the calibration loop takes at the reference host speed.
CAL_REF_S = 0.3


def _mode(rng, k, lo, hi):
    return {"k": k, "amplitude": rng.uniform(lo, hi),
            "phase": rng.uniform(0.0, 2 * 3.141592653589793)}


def plan(workload: str, seed: int) -> list:
    """The workload's experiments as (kind, config) pairs, drawn from seed."""
    rng = random.Random(seed)
    if workload == "ledger":
        # simulate with the user defaults: ifrk4, invariant-shell projection
        # and a ledger row every step; graph_to_holo runs at init
        return [("simulate", {
            "grid": {"N": 256},
            "init": {"surface_modes": [_mode(rng, 1, 0.01, 0.03),
                                       _mode(rng, rng.choice((2, 3)),
                                             0.002, 0.01)],
                     "velocity_modes": [_mode(rng, 1, 0.002, 0.01)]},
            "solver": {"T_final": 20.0},
        })]
    if workload == "evolve":
        # lifespan with plain rk4 and a Sobolev row every 20 steps; the
        # horizon factor keeps T = 200 so every seed runs the same steps
        eps = rng.uniform(0.045, 0.05)
        return [("lifespan", {
            "grid": {"N": 512},
            "experiment": {"eps": eps, "horizon_factor": 200.0 * eps ** 2},
        })]
    if workload == "verify-suite":
        # symbols keeps its default sample seed 0: its system_4x4 verdict
        # fails on some other samples (seeds 101 and 103: residuals 1.7e-10
        # and 1.3e-8 against tol 1e-10), a defect reported in bench/README.md
        return [
            ("dispersion", {}),
            ("taylor-audit", {"seed": seed}),
            ("drift-scaling", {}),
            ("symbols", {"seed": 0}),
            ("conformal", {"init": {"surface_modes": [
                _mode(rng, 1, 0.03, 0.06), _mode(rng, 2, 0.01, 0.03)]}}),
            ("scaling-check", {"init": {
                "surface_modes": [_mode(rng, 1, 0.005, 0.015)],
                "velocity_modes": [_mode(rng, 2, 0.002, 0.006)]}}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# processes and host speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("WAVESTRIP_OUT", None)
    return env


def spawn(argv, log_path, env, limit_s):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB).

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which keeps one maximum over all children.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -1
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def calibration_loop() -> float:
    """Seconds for a fixed loop of small FFTs and Python bookkeeping.

    It is benchmark code, not program code, so no change to the program moves
    it; it slows down with the core the way the program's own mix of
    interpreter overhead and small numpy calls does.
    """
    import numpy as np
    x = np.exp(1j * np.linspace(0.0, 6.28, 256, endpoint=False))
    m = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(12000):
        y = np.fft.ifft(np.fft.fft(x) * m)
        row = {"i": i, "acc": acc}
        acc += float(np.max(np.abs(y.real))) + row["i"] * 1e-9
    return time.perf_counter() - t0


class HostSpeed:
    """Scales measured times to the reference host speed.

    On a shared host the speed of a core drifts by up to 2x over minutes, so
    raw times of the same code differ between runs by far more than any
    useful bound.  The benchmark and its children are pinned to one core,
    each measured interval is bracketed by calibration loops on that core,
    and the interval is multiplied by CAL_REF_S / (mean of the two loops).
    """

    def __init__(self):
        self.last = calibration_loop()
        self.loops = [self.last]

    def factor(self) -> float:
        """Scale for the interval since the previous call."""
        nxt = calibration_loop()
        self.loops.append(nxt)
        factor = CAL_REF_S / (0.5 * (self.last + nxt))
        self.last = nxt
        return factor


# ---------------------------------------------------------------------------
# correctness gate


class Checker:
    """Checks every process of every pass; counts verdicts and failures."""

    def __init__(self):
        from wavestrip.cli import emit_report
        self.emit_report = emit_report
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, kind, code, out_dir):
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            with open(os.path.join(out_dir, "verdict.json"),
                      encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
        verdicts = doc.get("verdicts", [])
        self.attempted += max(len(verdicts), 1)
        if doc.get("kind") != kind or not verdicts:
            problems.append("no verdicts of this kind")
        problems += [f"verdict {v['name']} failed: measured={v['measured']!r}"
                     for v in verdicts if not v["pass"]]
        if doc:
            try:
                self.emit_report(out_dir)   # re-verifies the checksums
            except (OSError, ValueError) as exc:
                problems.append(f"report: {exc}")
            checksums = doc.get("checksums", {})
            if set(checksums) != ARTIFACTS[kind]:
                problems.append(f"artifacts {sorted(checksums)} != "
                                f"{sorted(ARTIFACTS[kind])}")
            if self.reference.setdefault(label, checksums) != checksums:
                problems.append("outputs differ from the first pass")
        self.failed += len(problems)
        self.problems += [f"{label}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# passes


def run_pass(experiments, pass_dir, env, checker, deadline, traced):
    """Run every experiment once.

    Returns (wall s, peak RSS MB, span docs, bytes written); the last two
    only for a traced pass.
    """
    wall, rss, docs, written = 0.0, 0.0, [], 0
    for i, (kind, cfg_path) in enumerate(experiments):
        label = f"{i}-{kind}"
        out_dir = os.path.join(pass_dir, label)
        os.makedirs(out_dir)
        args = [kind, "--config", cfg_path, "--out", out_dir]
        if traced:
            spans = out_dir + ".spans.json"
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    "--spans", spans, "--"] + args
        else:
            argv = [sys.executable, "-m", "wavestrip.cli"] + args
        code, t, r = spawn(argv, out_dir + ".log", env,
                           max(deadline - time.monotonic(), 1.0))
        wall += t
        rss = max(rss, r)
        checker.check(label, kind, code, out_dir)
        if traced and code == 0:
            with open(spans, encoding="utf-8") as fh:
                docs.append(json.load(fh))
            written += sum(os.path.getsize(os.path.join(out_dir, n))
                           for n in os.listdir(out_dir))
    return wall, rss, docs, written


def measure_setup(experiments, env, work, deadline, speed) -> list:
    """Scaled fresh-process times from interpreter start to initial states."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    for kind, cfg_path in experiments:
        argv += [kind, cfg_path]
    log = os.path.join(work, "setup.log")
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, t, _ = spawn(argv, log, env,
                           max(deadline - time.monotonic(), 1.0))
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read())
            raise RuntimeError("setup probe failed")
        factor = speed.factor()
        if i:   # the first probe also writes the bytecode caches
            times.append(t * factor)
    return times


# ---------------------------------------------------------------------------
# provenance and metric names


def provenance() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wavestrip")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "cal_ref_s": CAL_REF_S,
    }


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and scratch removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "wavestrip", "cli.py")):
        print(f"no wavestrip sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    if args.self_test:
        return subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"),
                               "--self-test"], env=env, cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)
    # one core for the benchmark and its children, so that the calibration
    # loops run where the measured processes run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        experiments = []
        for i, (kind, cfg) in enumerate(plan(args.workload, args.seed)):
            path = os.path.join(work, f"{i}-{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, sort_keys=True)
            experiments.append((kind, path))
        checker = Checker()
        speed = HostSpeed()
        setup = [] if args.trace else measure_setup(experiments, env, work,
                                                    deadline, speed)
        # a traced run alternates untraced and traced passes, in pairs
        modes = (False, True) if args.trace else (False,)
        min_rounds = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
        raw, walls, rsss, traced_walls, layers = [], [], [], [], []
        n = 0
        while True:
            round_start = time.monotonic()
            for traced in modes:
                pass_dir = os.path.join(work, f"pass{n}")
                n += 1
                wall, rss, docs, written = run_pass(
                    experiments, pass_dir, env, checker, deadline, traced)
                shutil.rmtree(pass_dir)
                factor = speed.factor()
                raw.append(wall)
                if traced:
                    traced_walls.append(wall * factor)
                    layers.append({
                        k: v * factor if k.endswith("_s") else v
                        for k, v in tracer.layer_metrics(docs, written).items()})
                else:
                    walls.append(wall * factor)
                    rsss.append(rss)
            now = time.monotonic()
            if now > deadline or (len(walls) >= min_rounds and
                                  2 * now - round_start - start > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} passes={n}")
    print("# raw wall s per pass: " + " ".join(f"{w:.3f}" for w in raw))
    print("# calibration loop s:  " + " ".join(f"{c:.3f}" for c in speed.loops))
    print("# wall_s per pass:     " + " ".join(f"{w:.3f}" for w in walls))
    for problem in checker.problems:
        print("# FAIL " + problem)
    if args.trace:
        units = metric_units("per_layer")
        values = {name: statistics.median(p[name] for p in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
    else:
        units = metric_units("end_to_end")
        fail_share = min(checker.failed / checker.attempted, 1.0)
        print("# setup_s per probe:   " + " ".join(f"{t:.4f}" for t in setup))
        print(f"# fail_share={fail_share!r} "
              f"({checker.failed} of {checker.attempted} verdicts)")
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(rsss),
                  "pass_share": 1.0 - fail_share}
    for name, unit in units.items():
        print(f"# {name:40s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
