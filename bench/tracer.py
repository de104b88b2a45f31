"""Span tracer and FFT counter for the wavestrip benchmark.

Run as a script, it executes one ``waves`` experiment in this process with
every layer's public entry points wrapped, then writes the recorded spans to
a JSON file:

    python3 bench/tracer.py --spans spans.json -- simulate --config c.json --out d

``python3 bench/tracer.py --self-test`` instead checks the FFT counter
against known per-call counts at N = 256 and exits 1 on a mismatch.

Spans are kept in memory as ``[name, start, end, parent, ffts_at_start,
ffts_at_end, extra]`` and written once, at exit.  :func:`layer_metrics` turns
the span files of one workload pass into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WAVESTRIP_MODULES = ("grid", "holo", "conformal", "dynamics", "integrator",
                     "normalform", "diagnostics", "cli")

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# (module, function) -> span name.  Several functions may share a span name;
# the metric is then taken over the outermost span of that name.
SPANS = {
    ("holo", "project"): "holo.project",
    ("conformal", "graph_to_holo"): "conformal.graph_to_holo",
    ("dynamics", "rhs_full"): "dynamics.rhs_full",
    ("dynamics", "coefficients"): "dynamics.coefficients",
    ("dynamics", "energy"): "dynamics.energy",
    ("dynamics", "momentum"): "dynamics.momentum",
    ("dynamics", "energy_gradient"): "dynamics.energy_gradient",
    ("dynamics", "momentum_gradient"): "dynamics.momentum_gradient",
    ("integrator", "step_rk4"): "integrator.step_rk4",
    ("diagnostics", "measure"): "diagnostics.measure",
    ("normalform", "nf_energy"): "normalform.nf_energy",
    ("normalform", "dispersion_kit"): "normalform.pointwise",
    ("normalform", "omega_resonance"): "normalform.pointwise",
    ("normalform", "symbols_holo"): "normalform.pointwise",
    ("normalform", "symbols_mixed"): "normalform.pointwise",
    ("normalform", "system_residuals"): "normalform.pointwise",
    ("normalform", "tilde_symbols"): "normalform.pointwise",
    ("cli", "read_snapshot"): "cli.io",
    ("cli", "write_snapshot"): "cli.io",
    ("cli", "write_series_csv"): "cli.io",
    ("cli", "_write_verdicts"): "cli.io",
    ("cli", "emit_report"): "cli.io",
}

INVARIANTS = ("dynamics.energy", "dynamics.momentum",
              "dynamics.energy_gradient", "dynamics.momentum_gradient")

# Newton iterations the invariant-shell projection allowed per step when the
# benchmark was defined; a step that used all of them counts as capped.
PROJECTION_CAP = 4


class Tracer:
    """In-memory span recorder with a process-wide FFT counter."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_s = 0.0

    def span(self, name, fn, extra=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                   self.fft_calls, 0, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[5] = self.fft_calls
                self.stack.pop()
            if extra is not None:
                rec[6] = extra(out)
            return out

        return wrapper

    def fft(self, kind, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            self.fft_s += clock() - t0
            self.fft_calls += 1
            axis = args[1] if len(args) > 1 else kwargs.get("axis", -1)
            length = out.shape[axis]
            if kind == "rfft":
                n = args[0] if args else kwargs.get("n")
                length = n if n is not None else np.shape(a)[axis]
            self.fft_points += out.size // out.shape[axis] * length
            return out

        return wrapper


def _rebind(original, wrapper, modules) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``.

    From-imports copy the binding (``integrator.rhs_full`` besides
    ``dynamics.rhs_full``), so patching only the defining module would miss
    those callers.
    """
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer):
    """Wrap the FFT entry points and every layer's public calls.

    A name the program no longer has is skipped, so its metrics read 0.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    ws = {name: importlib.import_module(f"wavestrip.{name}")
          for name in WAVESTRIP_MODULES}
    targets = list(ws.values())
    for modname in FFT_MODULES:
        try:
            fftmod = importlib.import_module(modname)
        except ImportError:
            continue
        for name in FFT_NAMES:
            original = getattr(fftmod, name)
            _rebind(original, tracer.fft(name, original), [fftmod] + targets)
    for (modname, name), span_name in SPANS.items():
        original = getattr(ws[modname], name, None)
        if original is None:
            continue
        extra = None
        if span_name == "conformal.graph_to_holo":
            def extra(result):
                return getattr(result, "iterations", 0)
        _rebind(original, tracer.span(span_name, original, extra), targets)

    # evolve: the projection is private, so the observers get spans of their
    # own and the projection is evolve's time outside steps and observers
    integ = ws["integrator"]
    original_evolve = integ.evolve
    wrapped_evolve = tracer.span("integrator.evolve", original_evolve)

    def evolve(state, config, observers=()):
        observers = [tracer.span("integrator.observer", obs)
                     for obs in observers]
        return wrapped_evolve(state, config, observers)

    _rebind(original_evolve, evolve, targets)
    return ws


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    return 0


def symbol_cache_bytes(normalform) -> int:
    """Array bytes held by ``normalform._symbol_cache`` (0 once it is gone)."""
    return _nbytes(getattr(normalform, "_symbol_cache", {}))


def run_traced(spans_path: str, argv) -> int:
    tracer = Tracer()
    ws = install(tracer)
    status = ws["cli"].main(argv)
    doc = {
        "spans": tracer.spans,
        "fft_calls": tracer.fft_calls,
        "fft_points": tracer.fft_points,
        "fft_s": tracer.fft_s,
        "symbol_cache_bytes": symbol_cache_bytes(ws["normalform"]),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return status


# ---------------------------------------------------------------------------
# aggregation


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for i, rec in enumerate(spans):
        if rec[0] not in names:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(rec)
    return out


def _total(recs) -> float:
    return sum(r[2] - r[1] for r in recs)


def _per_call_ffts(recs) -> float:
    return sum(r[5] - r[4] for r in recs) / len(recs) if recs else 0.0


def layer_metrics(docs, bytes_written: int) -> dict:
    """Per-layer metrics of one workload pass from its processes' span files."""
    m = dict.fromkeys((
        "grid.fft_calls", "grid.fft_points", "grid.fft_s",
        "holo.project_calls", "holo.project_s",
        "conformal.graph_to_holo_s", "conformal.iterations",
        "dynamics.rhs_full_calls", "dynamics.rhs_full_s",
        "dynamics.coefficients_s", "dynamics.invariants_s",
        "integrator.steps", "integrator.step_s", "integrator.project_s",
        "diagnostics.measure_calls", "diagnostics.measure_s",
        "normalform.nf_energy_calls", "normalform.nf_energy_s",
        "normalform.first_call_s", "normalform.pointwise_s",
        "cli.io_s"), 0.0)
    rhs, steps, measures = [], [], []
    proj_iters = capped = 0
    cache = 0
    for doc in docs:
        spans = doc["spans"]
        m["grid.fft_calls"] += doc["fft_calls"]
        m["grid.fft_points"] += doc["fft_points"]
        m["grid.fft_s"] += doc["fft_s"]
        cache = max(cache, doc["symbol_cache_bytes"])
        by_name = {}
        for rec in spans:
            by_name.setdefault(rec[0], []).append(rec)

        def top(*names):
            return _outermost(spans, set(names))

        proj = top("holo.project")
        m["holo.project_calls"] += len(by_name.get("holo.project", ()))
        m["holo.project_s"] += _total(proj)
        g2h = by_name.get("conformal.graph_to_holo", [])
        m["conformal.graph_to_holo_s"] += _total(g2h)
        m["conformal.iterations"] += sum(r[6] for r in g2h)
        rhs += by_name.get("dynamics.rhs_full", [])
        m["dynamics.coefficients_s"] += _total(top("dynamics.coefficients"))
        m["dynamics.invariants_s"] += _total(top(*INVARIANTS))
        steps += by_name.get("integrator.step_rk4", [])
        measures += by_name.get("diagnostics.measure", [])
        nf = by_name.get("normalform.nf_energy", [])
        m["normalform.nf_energy_calls"] += len(nf)
        m["normalform.nf_energy_s"] += _total(nf)
        if nf:
            m["normalform.first_call_s"] += nf[0][2] - nf[0][1]
        m["normalform.pointwise_s"] += _total(top("normalform.pointwise"))
        m["cli.io_s"] += _total(top("cli.io"))

        # evolve's own time outside its steps and observers is the
        # invariant-shell projection (plus the target invariants at t = 0);
        # energy_gradient calls made directly by evolve are its iterations
        children = {}
        for i, rec in enumerate(spans):
            if rec[0] == "integrator.evolve":
                children[i] = []
            elif rec[3] in children:
                children[rec[3]].append(rec)
        for i, kids in children.items():
            outside = sum(r[2] - r[1] for r in kids if r[0] in (
                "integrator.step_rk4", "integrator.observer"))
            m["integrator.project_s"] += spans[i][2] - spans[i][1] - outside
            iters = None
            for rec in kids:
                if rec[0] == "integrator.step_rk4":
                    if iters is not None and iters >= PROJECTION_CAP:
                        capped += 1
                    iters = 0
                elif rec[0] == "dynamics.energy_gradient" and iters is not None:
                    iters += 1
                    proj_iters += 1
            if iters is not None and iters >= PROJECTION_CAP:
                capped += 1

    m["dynamics.rhs_full_calls"] = len(rhs)
    m["dynamics.rhs_full_s"] = _total(rhs)
    m["dynamics.rhs_full_ffts_per_call"] = _per_call_ffts(rhs)
    m["integrator.steps"] = len(steps)
    m["integrator.step_s"] = _total(steps)
    m["integrator.step_ffts_per_call"] = _per_call_ffts(steps)
    m["integrator.project_iters_per_step"] = (
        proj_iters / len(steps) if steps else 0.0)
    m["integrator.project_capped_share"] = (
        capped / len(steps) if steps else 0.0)
    m["diagnostics.measure_calls"] = len(measures)
    m["diagnostics.measure_s"] = _total(measures)
    m["diagnostics.measure_ffts_per_call"] = _per_call_ffts(measures)
    m["normalform.symbol_cache_mb"] = cache / 2 ** 20
    m["cli.bytes_written"] = bytes_written
    return m


# ---------------------------------------------------------------------------
# self-test

# FFTs per call at N = 256 when the benchmark was defined; a change that
# alters them on purpose updates this table in the same change.
EXPECTED_FFTS = {"rhs_full": 22, "rk4 step": 108, "ifrk4 step": 152,
                 "measure": 200}


def self_test() -> int:
    tracer = Tracer()
    ws = install(tracer)
    cli, integ = ws["cli"], ws["integrator"]
    grid = ws["grid"].make_grid(2 * np.pi, 256, 1.0)
    state = cli._drift_profile(0.05, grid, 1.0)
    dt = integ.suggest_dt(grid, 1.0, 0.5)
    state = integ.step_rk4(state, dt, "ifrk4")   # warm caches

    def count(fn):
        before = tracer.fft_calls
        fn()
        return tracer.fft_calls - before

    got = {
        "rhs_full": count(lambda: ws["dynamics"].rhs_full(state)),
        "rk4 step": count(lambda: integ.step_rk4(state, dt, "rk4")),
        "ifrk4 step": count(lambda: integ.step_rk4(state, dt, "ifrk4")),
        "measure": count(lambda: ws["diagnostics"].measure(state, dt=dt)),
    }
    expected = dict(EXPECTED_FFTS)
    x = np.ones(8)
    for modname in FFT_MODULES:
        mod = sys.modules.get(modname)
        if mod is not None:
            name = f"{modname} fft, ifft, rfft, irfft"
            expected[name] = 4
            got[name] = count(lambda: (mod.fft(x), mod.ifft(x), mod.rfft(x),
                                       mod.irfft(x)))
    ok = True
    for name, want in expected.items():
        status = "ok" if got[name] == want else "MISMATCH"
        ok &= got[name] == want
        print(f"{name:32s} ffts={got[name]:4d} expected={want:4d} {status}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("waves_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    waves_args = args.waves_args
    if waves_args[:1] == ["--"]:
        waves_args = waves_args[1:]
    if not args.spans or not waves_args:
        parser.error("--spans FILE -- <waves arguments> is required")
    return run_traced(args.spans, waves_args)


if __name__ == "__main__":
    raise SystemExit(main())
