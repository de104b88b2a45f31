"""Batch experiment front-end.

``waves <kind> --config <path> [--out <dir>] [--seed <u64>]`` runs one
declarative experiment per process and writes a self-describing run
directory: a fixed-schema CSV ledger, binary state snapshots, and a
machine-readable ``verdict.json`` with checksummed pass/fail entries.
Identical config + seed must produce byte-identical outputs.

Experiment kinds:

    simulate        plain evolution with the conservation ledger
    dispersion      linear mode frequency vs sqrt(g xi tanh(h xi))
    taylor-audit    random-state sweep of the Taylor-sign lower bound
    drift-scaling   quartic-drift ratio experiment (eps vs eps/2)
    lifespan        cubic-lifespan run out to T = c / eps^2
    symbols         normal-form symbol tables and system residuals
    conformal       graph -> trace -> graph round trip
    scaling-check   paired runs related by the spatial scaling symmetry

``waves report --out <dir>`` re-verifies a run's checksums and verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .grid import SpectralGrid, make_grid, to_spectrum
from .holo import holo_from_real
from .dynamics import WaveState, diag_of, scale_state
from .integrator import SolverConfig, StepAbort, evolve, suggest_dt

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "write_snapshot",
    "read_snapshot",
    "emit_report",
    "main",
]

# Artifacts each experiment kind writes and checksums into verdict.json.
ARTIFACTS = {
    "simulate": ("initial.snap", "final.snap", "series.csv"),
    "dispersion": ("dispersion.csv",),
    "taylor-audit": (),
    "drift-scaling": (),
    "lifespan": ("final.snap",),
    "symbols": ("symbols.csv",),
    "conformal": (),
    "scaling-check": (),
}

KINDS = tuple(ARTIFACTS)

CSV_COLUMNS = ("t", "E_ham", "E_repr", "I", "E0", "E1_NF", "E13_high",
               "taylor_min", "A_proxy", "B_proxy", "N1", "N2", "dt")

OUT_ENV_VAR = "WAVESTRIP_OUT"

_SNAPSHOT_LAYOUT = "samples-complex128x2-le"


# ---------------------------------------------------------------------------
# configuration


_MODE_SCHEMA = {"k": int, "amplitude": float, "phase": float}

_SCHEMA = {
    "grid": {"L": float, "N": int, "h": float},
    "g": float,
    "init": {
        "surface_modes": [_MODE_SCHEMA],
        "velocity_modes": [_MODE_SCHEMA],
        "snapshot": str,
    },
    "solver": {
        "dt": float,
        "T_final": float,
        "cfl": float,
        "observer_stride": int,
        "method": str,
        "project_energy": bool,
    },
    "seed": int,
    "out": str,
}

# Per-kind experiment parameters, the "experiment" block of the schema; each
# value's type (a list's element type) is also its schema.
_EXPERIMENT_DEFAULTS = {
    "simulate": {"energy_tol": 1e-8, "momentum_tol": 1e-8},
    "dispersion": {"ks": [1, 2, 5], "amplitude": 1e-6, "tol": 1e-4,
                   "cycles": 10.0},
    "taylor-audit": {"n_states": 500, "c_min": -0.9, "c_max": 0.5,
                     "modes": 6, "slack": 1e-9},
    "drift-scaling": {"eps": [0.04, 0.02], "T": 20.0,
                      "nf_range": [12.0, 20.0], "e0_range": [6.0, 10.0]},
    "lifespan": {"eps": 0.05, "horizon_factor": 0.5, "growth_limit": 2.0},
    "symbols": {"n_points": 1000, "d_min": 0.5, "rho_max": 30.0,
                "tol": 1e-10, "line_tol": 1e-6},
    "conformal": {"tol": 1e-8, "ratio_low": 0.25, "ratio_high": 4.0},
    "scaling-check": {"lam": 2.0, "T": 10.0, "tol": 1e-10},
}


# Per-kind conditions on the experiment values, each with the message for a
# value that breaks it: the run would otherwise divide by zero, index past
# its data, never finish drawing, or pass a verdict taken over nothing.
_EXPERIMENT_RULES = {
    "dispersion": [(lambda e: len(e["ks"]) > 0 and 0 not in e["ks"],
                    "ks must list at least one nonzero mode"),
                   (lambda e: e["amplitude"] > 0,
                    "amplitude must be positive"),
                   (lambda e: e["cycles"] > 0, "cycles must be positive")],
    "taylor-audit": [(lambda e: e["n_states"] > 0,
                      "n_states must be positive")],
    "drift-scaling": [(lambda e: len(e["eps"]) == 2 and min(e["eps"]) > 0,
                       "eps must be two positive amplitudes")],
    "lifespan": [(lambda e: e["eps"] > 0, "eps must be positive")],
    "scaling-check": [(lambda e: e["lam"] != 1.0,
                       "lam must not be 1, which compares a run with itself")],
    # a point d_min from all three lines, such as (d_min, d_min), has
    # rho >= 1 + 2 d_min
    "symbols": [(lambda e: e["n_points"] > 0, "n_points must be positive"),
                (lambda e: e["rho_max"] > 1.0 + 2.0 * max(e["d_min"], 0.0),
                 "rho_max must exceed 1 + 2 max(d_min, 0)")],
}


class ConfigError(ValueError):
    pass


def _check_keys(data: dict, schema: dict, path: str) -> None:
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}{key}'")


def _coerce(value, spec, path: str):
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        _check_keys(value, spec, path + ".")
        return {k: _coerce(v, spec[k], f"{path}.{k}") for k, v in value.items()}
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return [_coerce(v, spec[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if spec is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number")
        return float(value)
    if spec is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer")
        return int(value)
    if spec is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean")
        return value
    if spec is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string")
        return value
    raise AssertionError(f"bad schema entry at {path}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description."""

    kind: str
    grid: dict = field(default_factory=lambda: {"L": 2 * np.pi, "N": 128,
                                                "h": 1.0})
    g: float = 1.0
    init: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    seed: int = 0
    out: Optional[str] = None

    def make_grid(self) -> SpectralGrid:
        return make_grid(self.grid["L"], self.grid["N"], self.grid["h"])


def load_config(path: str, kind: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config for the given kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = ExperimentConfig(kind,
                                experiment=dict(_EXPERIMENT_DEFAULTS[kind]))
    schema = dict(_SCHEMA, experiment={
        k: [type(v[0])] if isinstance(v, list) else type(v)
        for k, v in defaults.experiment.items()})
    _check_keys(raw, schema, "")
    data = {}
    for k, v in raw.items():
        v = _coerce(v, schema[k], k)
        # an object block overrides only the keys it names
        default = getattr(defaults, k)
        data[k] = {**default, **v} if isinstance(default, dict) else v
    config = replace(defaults, **data)
    for ok, message in _EXPERIMENT_RULES.get(kind, ()):
        if not ok(config.experiment):
            raise ConfigError(f"experiment.{message}")
    return config


# ---------------------------------------------------------------------------
# snapshots and series


def write_snapshot(path: str, state: WaveState) -> None:
    """JSON header line + raw little-endian complex samples of W then Q.

    Samples, not spectra, so that a write/read cycle returns the state bit
    for bit and a run continued from a snapshot matches an unbroken run.
    """
    grid = state.grid
    header = {
        "L": grid.L, "N": grid.N, "g": state.g, "h": grid.h, "t": state.t,
        "layout": _SNAPSHOT_LAYOUT,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for f in (state.W, state.Q):
            fh.write(np.ascontiguousarray(f, dtype="<c16").tobytes())


def read_snapshot(path: str) -> WaveState:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("layout") != _SNAPSHOT_LAYOUT:
        raise ValueError(f"unsupported snapshot layout {header.get('layout')!r}")
    grid = make_grid(header["L"], header["N"], header["h"])
    n_bytes = grid.N * 16
    if len(payload) != 2 * n_bytes:
        raise ValueError("snapshot payload size does not match header")
    W, Q = (np.frombuffer(part, dtype="<c16").copy()
            for part in (payload[:n_bytes], payload[n_bytes:]))
    return WaveState(grid, W, Q, header["g"], t=header["t"])


def _write_table(path: str, header: str, rows) -> None:
    """Text table: the header line, then one line per row, LF-terminated.

    Each row is a sequence of numbers: an int is written as it is, any
    other number as the repr of its float, so every field reads back with
    ``float()``.
    """
    lines = (",".join(str(v) if isinstance(v, int) else repr(float(v))
                      for v in row) for row in rows)
    text = "\n".join([header, *lines]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_series_csv(path: str, records) -> None:
    _write_table(path, ",".join(CSV_COLUMNS),
                 ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    measured: float
    target: str
    tol: float

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "measured": float(self.measured), "target": self.target,
                "tol": float(self.tol)}


def _at_most(name: str, measured, tol: float) -> Verdict:
    return Verdict(name, measured <= tol, measured, "<= tol", tol)


def _within(name: str, measured, lo: float, hi: float) -> Verdict:
    return Verdict(name, lo <= measured <= hi, measured, f"[{lo}, {hi}]", 0.0)


def _write_verdicts(out_dir: str, kind: str, verdicts) -> None:
    checksums = {name: _sha256(os.path.join(out_dir, name))
                 for name in ARTIFACTS[kind]}
    doc = {
        "kind": kind,
        "verdicts": [v.as_dict() for v in verdicts],
        "checksums": checksums,
    }
    with open(os.path.join(out_dir, "verdict.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# initial data and runs


def _modes_to_real(modes, grid: SpectralGrid) -> np.ndarray:
    out = np.zeros(grid.N)
    for m in modes:
        out += m["amplitude"] * np.cos(m["k"] * (2 * np.pi / grid.L)
                                       * grid.nodes + m.get("phase", 0.0))
    return out


def build_state(config: ExperimentConfig) -> WaveState:
    """Initial state from the config's init block (snapshot wins over modes)."""
    snap = config.init.get("snapshot")
    if snap:
        return read_snapshot(snap)
    grid = config.make_grid()
    surface = config.init.get("surface_modes", [])
    velocity = config.init.get("velocity_modes", [])
    if surface:
        from .conformal import SurfaceGraph, graph_to_holo
        eta = _modes_to_real(surface, grid)
        W = graph_to_holo(SurfaceGraph(grid, eta)).W
    else:
        W = np.zeros(grid.N, dtype=complex)
    if velocity:
        Q = holo_from_real(_modes_to_real(velocity, grid), grid)
    else:
        Q = np.zeros(grid.N, dtype=complex)
    return WaveState(grid, W, Q, config.g)


def _solver_config(config: ExperimentConfig, grid: SpectralGrid,
                   **overrides) -> SolverConfig:
    params = dict(config.solver, **overrides)
    # the CFL step is computed even when dt is given, so cfl is validated
    suggested = suggest_dt(grid, config.g, params.pop("cfl", 0.5))
    if params.get("dt") is None:
        params["dt"] = suggested
    params.setdefault("T_final", 10.0)
    return SolverConfig(**params)


# ---------------------------------------------------------------------------
# experiment kinds


def _run_simulate(config: ExperimentConfig, out_dir: str) -> list:
    state = build_state(config)
    if not (state.W.any() or state.Q.any()):
        # the state at rest has a flat ledger: every verdict would pass
        # without testing anything
        raise ValueError("simulate needs a nonzero initial state (init."
                         "surface_modes, velocity_modes or snapshot)")
    grid = state.grid
    # conservation-grade defaults: exact linear propagation plus post-step
    # projection onto the initial (energy, momentum) level set
    solver = _solver_config(
        config, grid,
        method=config.solver.get("method", "ifrk4"),
        project_energy=config.solver.get("project_energy", True))
    write_snapshot(os.path.join(out_dir, "initial.snap"), state)
    from .diagnostics import drift_report, measure
    final, records = evolve(state, solver,
                            [lambda i, t, s: measure(s, dt=solver.dt)])
    write_snapshot(os.path.join(out_dir, "final.snap"), final)
    write_series_csv(os.path.join(out_dir, "series.csv"), records)
    drift = drift_report(records)
    exp = config.experiment
    # momentum of a standing wave is zero, so its drift is measured against
    # the energy scale rather than the (vanishing) initial value
    I0 = records[0].I
    mom_scale = max(abs(I0), abs(records[0].E_ham), 1e-300)
    mom_drift = max(abs(r.I - I0) for r in records) / mom_scale
    return [_at_most("energy_drift", drift["E_ham"],
                     exp["energy_tol"]),
            _at_most("momentum_drift", mom_drift, exp["momentum_tol"])]


def _run_dispersion(config: ExperimentConfig, out_dir: str) -> list:
    grid = config.make_grid()
    exp = config.experiment
    g = config.g
    verdicts = []
    rows = []
    for k in exp["ks"]:
        xi = 2 * np.pi * k / grid.L
        omega = float(np.sqrt(g * xi * np.tanh(grid.h * xi)))
        W = holo_from_real(exp["amplitude"] * np.cos(k * (2 * np.pi / grid.L)
                                                     * grid.nodes), grid)
        state = WaveState(grid, W, np.zeros(grid.N, dtype=complex), g)
        T = exp["cycles"] * 2 * np.pi / omega
        # exact linear propagation: the measured frequency reflects the
        # model's dispersion rather than the RK4 phase bias O((omega dt)^4)
        solver = _solver_config(config, grid, T_final=T, observer_stride=1,
                                method=config.solver.get("method", "ifrk4"))
        if solver.n_steps < 2:
            raise ValueError(f"dispersion k={k}: the fit needs at least 2 "
                             f"steps, experiment.cycles gives {solver.n_steps}")
        samples = []

        def obs(i, t, s, k=k):
            samples.append(to_spectrum(s.W)[k % grid.N].real)

        evolve(state, solver, [obs])
        s = np.array(samples)
        # the sampled coefficient satisfies the three-term recurrence of a
        # pure cos(omega t) signal; least squares for cos(omega dt)
        num = float(np.sum(s[1:-1] * (s[2:] + s[:-2])))
        den = 2.0 * float(np.sum(s[1:-1] ** 2))
        c = num / den
        measured = np.arccos(np.clip(c, -1.0, 1.0)) / solver.dt
        rel = abs(measured - omega) / omega
        rows.append((k, measured, omega, rel))
        verdicts.append(Verdict(f"dispersion_k{k}", rel <= exp["tol"],
                                rel, f"omega={omega!r}", exp["tol"]))
    _write_table(os.path.join(out_dir, "dispersion.csv"),
                 "k,measured,target,rel_dev", rows)
    return verdicts


def _random_state(rng, grid: SpectralGrid, g: float, n_modes: int,
                  c_lo: float, c_hi: float) -> WaveState:
    """Random valid holomorphic state; min Im W lands in (c_lo, c_hi).

    Amplitudes are drawn log-uniform and capped so the parametrization stays
    regular (max slope < 0.8); states whose surface dips below the c_lo
    depth are rescaled into range rather than rejected.
    """
    from .grid import deriv
    scale = 10.0 ** rng.uniform(-3.0, -0.3)
    amps = scale * rng.uniform(-1.0, 1.0, n_modes) / (1 + np.arange(n_modes))
    phases = rng.uniform(0, 2 * np.pi, n_modes)
    W = holo_from_real(_modes_to_real(
        [{"k": k + 1, "amplitude": amps[k], "phase": phases[k]}
         for k in range(n_modes)], grid), grid)
    slope = float(np.max(np.abs(deriv(W.real, grid))))
    if slope > 0.8:
        W = W * (0.8 / slope)
    c_now = float(np.min(W.imag))
    if c_now <= max(c_lo, -0.9 * grid.h):
        W = W * (0.8 * c_lo / c_now)
    Q = holo_from_real(_modes_to_real(
        [{"k": 1, "amplitude": scale * rng.uniform(-1.0, 1.0),
          "phase": rng.uniform(0, 2 * np.pi)}], grid), grid)
    return WaveState(grid, W, Q, g)


def _run_taylor_audit(config: ExperimentConfig, out_dir: str) -> list:
    from .dynamics import taylor_field
    grid = config.make_grid()
    exp = config.experiment
    rng = np.random.default_rng(config.seed)
    worst_margin = np.inf
    for _ in range(exp["n_states"]):
        state = _random_state(rng, grid, config.g, exp["modes"],
                              exp["c_min"], exp["c_max"])
        _, tmin, c, bound = taylor_field(state)
        margin = tmin - (bound - exp["slack"] * config.g)
        worst_margin = min(worst_margin, margin)
    return [Verdict("taylor_lower_bound", worst_margin >= 0.0,
                    worst_margin, ">= 0", exp["slack"])]


def _drift_profile(eps: float, grid: SpectralGrid, g: float) -> WaveState:
    x = (2 * np.pi / grid.L) * grid.nodes
    W = holo_from_real(0.5 * eps * (np.cos(x + 0.7)
                                    + 0.5 * np.cos(2 * x + 1.3)), grid)
    Q = holo_from_real(0.5 * eps * (0.4 * np.sin(x + 2.1)
                                    + 0.25 * np.sin(3 * x + 0.4)), grid)
    return WaveState(grid, W, Q, g)


def _run_drift_scaling(config: ExperimentConfig, out_dir: str) -> list:
    from .normalform import nf_energy, _E0
    exp = config.experiment
    grid = config.make_grid()
    g = config.g
    drifts = []
    for eps in exp["eps"]:
        state = _drift_profile(eps, grid, g)
        solver = _solver_config(config, grid, T_final=exp["T"],
                                method=config.solver.get("method", "ifrk4"))

        def obs(i, t, s):
            d = diag_of(s)
            return (t, nf_energy(1, d),
                    _E0(d.bW, d.R, g, grid))

        _, rows = evolve(state, solver, [obs])
        rows = np.array(rows)
        drifts.append((np.max(np.abs(rows[:, 1] - rows[0, 1])),
                       np.max(np.abs(rows[:, 2] - rows[0, 2]))))
    nf_ratio = drifts[0][0] / drifts[1][0]
    e0_ratio = drifts[0][1] / drifts[1][1]
    return [_within("nf_drift_ratio", nf_ratio, *exp["nf_range"]),
            _within("e0_drift_ratio", e0_ratio, *exp["e0_range"])]


def _run_lifespan(config: ExperimentConfig, out_dir: str) -> list:
    from .diagnostics import sobolev_Nn
    grid = config.make_grid()
    exp = config.experiment
    eps = exp["eps"]
    state = _drift_profile(eps, grid, config.g)
    T = exp["horizon_factor"] / eps ** 2
    stride = config.solver.get("observer_stride", 20)
    solver = _solver_config(config, grid, T_final=T, observer_stride=stride)
    n1 = []

    def obs(i, t, s):
        n1.append(sobolev_Nn(diag_of(s), 1))

    final, _ = evolve(state, solver, [obs])
    growth = max(n1) / n1[0]
    write_snapshot(os.path.join(out_dir, "final.snap"), final)
    return [Verdict("lifespan_growth", growth <= exp["growth_limit"],
                    growth, f"<= {exp['growth_limit']}",
                    exp["growth_limit"])]


def _run_symbols(config: ExperimentConfig, out_dir: str) -> list:
    from .normalform import (symbols_holo, symbols_mixed, system_residuals,
                             omega_resonance)
    exp = config.experiment
    n, rho_max = exp["n_points"], exp["rho_max"]
    rng = np.random.default_rng(config.seed)
    # candidate pairs (xi, eta) in draw order, kept when d_min bounds their
    # distance to the nearest resonance line and rho = 1 + max |coordinate|
    # stays within rho_max
    kept = np.empty((2, 0))
    while kept.shape[1] < n:
        xi, eta = rng.uniform(-rho_max, rho_max, (n, 2)).T
        size = np.abs([xi, eta, xi + eta])
        ok = ((size.min(axis=0) >= exp["d_min"])
              & (1.0 + size.max(axis=0) <= rho_max))
        kept = np.concatenate([kept, [xi[ok], eta[ok]]], axis=1)
    xi, eta = kept[:, :n]
    # the worst row of each system at each point
    r3, r4 = (r.max(axis=0) for r in system_residuals(xi, eta))
    x, e = xi[:50], eta[:50]
    values = symbols_holo(x, e) + symbols_mixed(x, e)
    rows = zip(x, e, *(v.imag for v in values), omega_resonance(x, e),
               r3[:50], r4[:50])
    # near-line probes at transverse distance 1e-3 from each of the three
    # lines; the closed forms are evaluated there as everywhere off the lines
    base = np.linspace(0.6, 0.8 * rho_max, 25)
    t = np.full_like(base, 1e-3)
    worst_line = max(np.max(r) for r in system_residuals(
        np.concatenate([base, t, base, -base, t, -base]),
        np.concatenate([t, base, -base + 1e-3, t, -base, base - 1e-3])))
    _write_table(os.path.join(out_dir, "symbols.csv"),
                 "xi,eta,Ah,Bh,Ch,Aa,Ba,Ca,Da,Omega,r3,r4", rows)
    return [_at_most("system_3x3", np.max(r3), exp["tol"]),
            _at_most("system_4x4", np.max(r4), exp["tol"]),
            _at_most("near_line", worst_line, exp["line_tol"])]


def _run_conformal(config: ExperimentConfig, out_dir: str) -> list:
    from .conformal import (SurfaceGraph, graph_to_holo, holo_to_graph,
                            norm_comparability)
    grid = config.make_grid()
    exp = config.experiment
    surface = config.init.get("surface_modes") or [
        {"k": 1, "amplitude": 0.05, "phase": 0.0},
        {"k": 2, "amplitude": 0.02, "phase": 0.0},
    ]
    eta = _modes_to_real(surface, grid)
    graph = SurfaceGraph(grid, eta)
    result = graph_to_holo(graph)
    back = holo_to_graph(result.W, grid)
    sup_err = float(np.max(np.abs(back - eta)))
    rows = norm_comparability(graph, result.W)
    return [_at_most("round_trip", sup_err, exp["tol"])] + [
        _within(f"comparability_j{row.order}", row.ratio, exp["ratio_low"],
                exp["ratio_high"]) for row in rows]


def _run_scaling_check(config: ExperimentConfig, out_dir: str) -> list:
    exp = config.experiment
    lam = exp["lam"]
    state = build_state(config)
    if not (state.W.any() or state.Q.any()):
        grid = state.grid
        state = _drift_profile(0.01, grid, config.g)
    grid = state.grid
    scaled = scale_state(state, lam)
    solver = _solver_config(config, grid, T_final=exp["T"])
    f1, _ = evolve(state, solver)
    f2, _ = evolve(scaled, solver)
    errW = float(np.max(np.abs(f2.W - f1.W / lam)))
    errQ = float(np.max(np.abs(f2.Q - f1.Q / lam ** 2)))
    return [_at_most("scaling_agreement", max(errW, errQ), exp["tol"])]


_RUNNERS = {
    "simulate": _run_simulate,
    "dispersion": _run_dispersion,
    "taylor-audit": _run_taylor_audit,
    "drift-scaling": _run_drift_scaling,
    "lifespan": _run_lifespan,
    "symbols": _run_symbols,
    "conformal": _run_conformal,
    "scaling-check": _run_scaling_check,
}


def run_experiment(config: ExperimentConfig, out_dir: str) -> int:
    """Run one experiment; returns 0 iff every verdict passed."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        verdicts = _RUNNERS[config.kind](config, out_dir)
    except StepAbort as exc:
        path = os.path.join(out_dir, "last_good.snap")
        write_snapshot(path, exc.last_good)
        print(f"error: aborted at step {exc.step_index}: {exc.reason}; "
              f"last good state in {path}", file=sys.stderr)
        return 2
    _write_verdicts(out_dir, config.kind, verdicts)
    return 0 if all(v.passed for v in verdicts) else 1


def emit_report(run_dir: str) -> str:
    """Human-readable pass/fail summary of a finished run directory."""
    verdict_path = os.path.join(run_dir, "verdict.json")
    if not os.path.isfile(verdict_path):
        raise FileNotFoundError(f"no verdict.json in {run_dir}")
    with open(verdict_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for name, expected in doc.get("checksums", {}).items():
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing artifact {name}")
        actual = _sha256(path)
        if actual != expected:
            raise ValueError(f"checksum mismatch for {name}: "
                             f"{actual} != {expected}")
    lines = [f"experiment: {doc['kind']}"]
    for v in doc["verdicts"]:
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(f"{status} {v['name']}: measured={v['measured']!r} "
                     f"target={v['target']} tol={v['tol']!r}")
    overall = all(v["pass"] for v in doc["verdicts"])
    lines.append("overall: " + ("PASS" if overall else "FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="waves", description="water-wave experiment runner")
    parser.add_argument("kind", choices=KINDS + ("report",))
    parser.add_argument("--config")
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.kind == "report":
        if args.out is None:
            parser.error("report needs --out DIR")
        try:
            report = emit_report(args.out)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report)
        return 0 if report.endswith("overall: PASS") else 1
    if args.config is None:
        parser.error(f"{args.kind} needs --config PATH")
    try:
        config = load_config(args.config, args.kind)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out_dir = (args.out or os.environ.get(OUT_ENV_VAR) or config.out
               or os.path.join("runs", config.kind))
    try:
        status = run_experiment(config, out_dir)
        if status == 0 or status == 1:
            print(emit_report(out_dir))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
