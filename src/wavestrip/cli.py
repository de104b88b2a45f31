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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import SpectralGrid, make_grid, to_spectrum, from_spectrum
from .holo import HoloField, holo_from_real
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

KINDS = ("simulate", "dispersion", "taylor-audit", "drift-scaling",
         "lifespan", "symbols", "conformal", "scaling-check")

CSV_COLUMNS = ("t", "E_ham", "E_repr", "I", "E0", "E1_NF", "E13_high",
               "taylor_min", "A_proxy", "B_proxy", "N1", "N2", "dt")

OUT_ENV_VAR = "WAVESTRIP_OUT"

_SNAPSHOT_LAYOUT = "complex64x2-le"


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
        "dealias": bool,
        "observer_stride": int,
        "method": str,
        "project_energy": bool,
    },
    "experiment": dict,   # validated per kind
    "seed": int,
    "out": str,
}

_EXPERIMENT_SCHEMA = {
    "simulate": {"energy_tol": float, "momentum_tol": float},
    "dispersion": {"ks": [int], "amplitude": float, "tol": float,
                   "cycles": float},
    "taylor-audit": {"n_states": int, "c_min": float, "c_max": float,
                     "modes": int, "slack": float},
    "drift-scaling": {"eps": [float], "T": float, "N": int,
                      "nf_range": [float], "e0_range": [float]},
    "lifespan": {"eps": float, "horizon_factor": float, "growth_limit": float},
    "symbols": {"n_points": int, "d_min": float, "rho_max": float,
                "tol": float, "line_tol": float},
    "conformal": {"tol": float, "ratio_low": float, "ratio_high": float},
    "scaling-check": {"lam": float, "T": float, "tol": float},
}

_EXPERIMENT_DEFAULTS = {
    "simulate": {"energy_tol": 1e-8, "momentum_tol": 1e-8},
    "dispersion": {"ks": [1, 2, 5], "amplitude": 1e-6, "tol": 1e-4,
                   "cycles": 10.0},
    "taylor-audit": {"n_states": 500, "c_min": -0.9, "c_max": 0.5,
                     "modes": 6, "slack": 1e-9},
    "drift-scaling": {"eps": [0.04, 0.02], "T": 20.0, "N": 128,
                      "nf_range": [12.0, 20.0], "e0_range": [6.0, 10.0]},
    "lifespan": {"eps": 0.05, "horizon_factor": 0.5, "growth_limit": 2.0},
    "symbols": {"n_points": 1000, "d_min": 0.5, "rho_max": 30.0,
                "tol": 1e-10, "line_tol": 1e-6},
    "conformal": {"tol": 1e-8, "ratio_low": 0.25, "ratio_high": 4.0},
    "scaling-check": {"lam": 2.0, "T": 10.0, "tol": 1e-10},
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
    if spec is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        return value
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
    _check_keys(raw, _SCHEMA, "")
    data = {k: _coerce(v, _SCHEMA[k], k) for k, v in raw.items()}
    exp = dict(_EXPERIMENT_DEFAULTS[kind])
    user_exp = data.get("experiment", {})
    schema = _EXPERIMENT_SCHEMA[kind]
    _check_keys(user_exp, schema, "experiment.")
    for k, v in user_exp.items():
        exp[k] = _coerce(v, schema[k], f"experiment.{k}")
    grid = {"L": 2 * np.pi, "N": 128, "h": 1.0}
    grid.update(data.get("grid", {}))
    return ExperimentConfig(
        kind=kind,
        grid=grid,
        g=data.get("g", 1.0),
        init=data.get("init", {}),
        solver=data.get("solver", {}),
        experiment=exp,
        seed=data.get("seed", 0),
        out=data.get("out"),
    )


# ---------------------------------------------------------------------------
# snapshots and series


def _field_spectrum(f: HoloField) -> np.ndarray:
    """Spectrum of a field, reusing the exact coefficients a snapshot read
    attached (FFT round trips are not bit-exact, file round trips must be)."""
    cached = getattr(f, "_raw_spectrum", None)
    computed = to_spectrum(f.values)
    if cached is not None:
        scale = float(np.max(np.abs(cached))) or 1.0
        if np.max(np.abs(cached - computed)) <= 1e-13 * scale:
            return cached
    return computed


def write_snapshot(path: str, state: WaveState) -> None:
    """JSON header line + raw little-endian spectra of W then Q."""
    grid = state.grid
    header = {
        "L": grid.L, "N": grid.N, "g": state.g, "h": state.h, "t": state.t,
        "layout": _SNAPSHOT_LAYOUT,
    }
    cw = np.ascontiguousarray(_field_spectrum(state.W), dtype="<c16")
    cq = np.ascontiguousarray(_field_spectrum(state.Q), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(cw.tobytes())
        fh.write(cq.tobytes())


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
    cw = np.frombuffer(payload[:n_bytes], dtype="<c16")
    cq = np.frombuffer(payload[n_bytes:], dtype="<c16")
    W = HoloField(grid, from_spectrum(cw))
    Q = HoloField(grid, from_spectrum(cq))
    object.__setattr__(W, "_raw_spectrum", cw)
    object.__setattr__(Q, "_raw_spectrum", cq)
    return WaveState(W, Q, header["g"], header["h"], t=header["t"])


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return repr(float(value))


def write_series_csv(path: str, records) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _write_verdicts(out_dir: str, kind: str, verdicts, extra=None) -> None:
    checksums = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name.endswith(".snap"):
            checksums[name] = _sha256(os.path.join(out_dir, name))
    doc = {
        "kind": kind,
        "verdicts": [v.as_dict() for v in verdicts],
        "checksums": checksums,
    }
    if extra:
        doc["details"] = extra
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
        W = HoloField(grid, np.zeros(grid.N, dtype=complex))
    if velocity:
        Q = holo_from_real(_modes_to_real(velocity, grid), grid)
    else:
        Q = HoloField(grid, np.zeros(grid.N, dtype=complex))
    return WaveState(W, Q, config.g, grid.h)


def _solver_config(config: ExperimentConfig, grid: SpectralGrid,
                   **overrides) -> SolverConfig:
    params = dict(config.solver)
    params.update(overrides)
    cfl = params.get("cfl", 0.5)
    if params.get("dt") is None:
        params["dt"] = suggest_dt(grid, config.g, cfl)
    params.setdefault("T_final", 10.0)
    params["cfl"] = cfl
    return SolverConfig(**params)


# ---------------------------------------------------------------------------
# experiment kinds


def _run_simulate(config: ExperimentConfig, out_dir: str) -> list:
    state = build_state(config)
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
    rep = drift_report(records)
    exp = config.experiment
    # momentum of a standing wave is zero, so its drift is measured against
    # the energy scale rather than the (vanishing) initial value
    I0 = records[0].I
    mom_scale = max(abs(I0), abs(records[0].E_ham), 1e-300)
    mom_drift = max(abs(r.I - I0) for r in records) / mom_scale
    verdicts = [
        Verdict("energy_drift", rep.rel_drift["E_ham"] <= exp["energy_tol"],
                rep.rel_drift["E_ham"], "<= tol", exp["energy_tol"]),
        Verdict("momentum_drift", mom_drift <= exp["momentum_tol"],
                mom_drift, "<= tol", exp["momentum_tol"]),
    ]
    return verdicts


def _run_dispersion(config: ExperimentConfig, out_dir: str) -> list:
    grid = config.make_grid()
    exp = config.experiment
    g = config.g
    verdicts = []
    rows = []
    for k in exp["ks"]:
        xi = 2 * np.pi * k / grid.L
        omega = np.sqrt(g * xi * np.tanh(grid.h * xi))
        W = holo_from_real(exp["amplitude"] * np.cos(k * (2 * np.pi / grid.L)
                                                     * grid.nodes), grid)
        Q = HoloField(grid, np.zeros(grid.N, dtype=complex))
        state = WaveState(W, Q, g, grid.h)
        T = exp["cycles"] * 2 * np.pi / omega
        # exact linear propagation: the measured frequency reflects the
        # model's dispersion rather than the RK4 phase bias O((omega dt)^4)
        solver = _solver_config(config, grid, T_final=T, observer_stride=1,
                                method=config.solver.get("method", "ifrk4"))
        samples = []

        def obs(i, t, s, k=k):
            samples.append(to_spectrum(s.W.values)[k % grid.N].real)

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
    table = ["k,measured,target,rel_dev"]
    for k, m, o, r in rows:
        table.append(f"{k},{m!r},{o!r},{r!r}")
    with open(os.path.join(out_dir, "dispersion.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(table) + "\n")
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
    re = np.zeros(grid.N)
    for k in range(n_modes):
        re += amps[k] * np.cos((k + 1) * (2 * np.pi / grid.L) * grid.nodes
                               + phases[k])
    W = holo_from_real(re, grid)
    slope = float(np.max(np.abs(deriv(W.values.real, grid))))
    if slope > 0.8:
        W = HoloField(grid, W.values * (0.8 / slope))
    c_now = float(np.min(W.values.imag))
    if c_now <= max(c_lo, -0.9 * grid.h):
        W = HoloField(grid, W.values * (0.8 * c_lo / c_now))
    qa = scale * rng.uniform(-1.0, 1.0)
    Q = holo_from_real(qa * np.cos((2 * np.pi / grid.L) * grid.nodes
                                   + rng.uniform(0, 2 * np.pi)), grid)
    return WaveState(W, Q, g, grid.h)


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
    x = grid.nodes
    W = holo_from_real(0.5 * eps * (np.cos(x + 0.7)
                                    + 0.5 * np.cos(2 * x + 1.3)), grid)
    Q = holo_from_real(0.5 * eps * (0.4 * np.sin(x + 2.1)
                                    + 0.25 * np.sin(3 * x + 0.4)), grid)
    return WaveState(W, Q, g, grid.h)


def _run_drift_scaling(config: ExperimentConfig, out_dir: str) -> list:
    from .normalform import nf_energy, _E0
    exp = config.experiment
    grid = make_grid(2 * np.pi, exp["N"], 1.0)
    g = config.g
    drifts = []
    for eps in exp["eps"]:
        state = _drift_profile(eps, grid, g)
        solver = _solver_config(config, grid, T_final=exp["T"],
                                method=config.solver.get("method", "ifrk4"))

        def obs(i, t, s):
            d = diag_of(s)
            return (t, nf_energy(1, d),
                    _E0(d.bW.values, d.R.values, g, grid))

        _, rows = evolve(state, solver, [obs])
        rows = np.array(rows)
        drifts.append((np.max(np.abs(rows[:, 1] - rows[0, 1])),
                       np.max(np.abs(rows[:, 2] - rows[0, 2]))))
    nf_ratio = drifts[0][0] / drifts[1][0]
    e0_ratio = drifts[0][1] / drifts[1][1]
    lo, hi = exp["nf_range"]
    lo0, hi0 = exp["e0_range"]
    return [
        Verdict("nf_drift_ratio", lo <= nf_ratio <= hi, nf_ratio,
                f"[{lo}, {hi}]", 0.0),
        Verdict("e0_drift_ratio", lo0 <= e0_ratio <= hi0, e0_ratio,
                f"[{lo0}, {hi0}]", 0.0),
    ]


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
    from .normalform import (PlanePoint, symbols_holo, symbols_mixed,
                             system_residuals, omega_resonance)
    exp = config.experiment
    rng = np.random.default_rng(config.seed)
    worst3 = worst4 = 0.0
    rows = ["xi,eta,Ah,Bh,Ch,Aa,Ba,Ca,Da,Omega,r3,r4"]
    n = 0
    while n < exp["n_points"]:
        xi, eta = rng.uniform(-exp["rho_max"], exp["rho_max"], 2)
        p = PlanePoint(xi, eta)
        if p.d < exp["d_min"] or p.rho > exp["rho_max"]:
            continue
        r3, r4 = system_residuals(xi, eta)
        worst3 = max(worst3, float(np.max(r3)))
        worst4 = max(worst4, float(np.max(r4)))
        if n < 50:
            Ah, Bh, Ch = symbols_holo(xi, eta)
            Aa, Ba, Ca, Da = symbols_mixed(xi, eta)
            rows.append(",".join(repr(v) for v in (
                xi, eta, Ah.imag, Bh.imag, Ch.imag, Aa.imag, Ba.imag,
                Ca.imag, Da.imag, omega_resonance(xi, eta),
                float(np.max(r3)), float(np.max(r4)))))
        n += 1
    # near-line probes at transverse distance 1e-3
    worst_line = 0.0
    for base in np.linspace(0.6, 0.8 * exp["rho_max"], 25):
        for (x, e) in ((base, 1e-3), (1e-3, base), (base, -base + 1e-3),
                       (-base, 1e-3), (1e-3, -base), (-base, base - 1e-3)):
            r3, r4 = system_residuals(x, e)
            worst_line = max(worst_line, float(np.max(r3)), float(np.max(r4)))
    with open(os.path.join(out_dir, "symbols.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return [
        Verdict("system_3x3", worst3 <= exp["tol"], worst3, "<= tol",
                exp["tol"]),
        Verdict("system_4x4", worst4 <= exp["tol"], worst4, "<= tol",
                exp["tol"]),
        Verdict("near_line", worst_line <= exp["line_tol"], worst_line,
                "<= tol", exp["line_tol"]),
    ]


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
    back = holo_to_graph(result.W)
    sup_err = float(np.max(np.abs(back - eta)))
    rows = norm_comparability(graph, result.W)
    ratios = [r.ratio for r in rows]
    verdicts = [Verdict("round_trip", sup_err <= exp["tol"], sup_err,
                        "<= tol", exp["tol"])]
    for row in rows:
        ok = exp["ratio_low"] <= row.ratio <= exp["ratio_high"]
        verdicts.append(Verdict(f"comparability_j{row.order}", ok, row.ratio,
                                f"[{exp['ratio_low']}, {exp['ratio_high']}]",
                                0.0))
    return verdicts


def _run_scaling_check(config: ExperimentConfig, out_dir: str) -> list:
    exp = config.experiment
    lam = exp["lam"]
    state = build_state(config)
    if not (state.W.values.any() or state.Q.values.any()):
        grid = state.grid
        state = _drift_profile(0.01, grid, config.g)
    grid = state.grid
    scaled = scale_state(state, lam)
    solver = _solver_config(config, grid, T_final=exp["T"])
    f1, _ = evolve(state, solver)
    f2, _ = evolve(scaled, solver)
    errW = float(np.max(np.abs(f2.W.values - f1.W.values / lam)))
    errQ = float(np.max(np.abs(f2.Q.values - f1.Q.values / lam ** 2)))
    err = max(errW, errQ)
    return [Verdict("scaling_agreement", err <= exp["tol"], err, "<= tol",
                    exp["tol"])]


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
        print(f"aborted at step {exc.step_index}: {exc}; "
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
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.kind)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        import dataclasses
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = (args.out or os.environ.get(OUT_ENV_VAR) or config.out
               or os.path.join("runs", config.kind))
    status = run_experiment(config, out_dir)
    if status == 0 or status == 1:
        print(emit_report(out_dir))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
