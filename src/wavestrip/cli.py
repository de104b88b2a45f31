"""Batch experiment front-end.

``waves <kind> --config <path> [--out <dir>] [--seed <u64>]`` runs one
declarative experiment per process and writes a self-describing run
directory: a fixed-schema CSV ledger, binary state snapshots, and a
machine-readable ``verdict.json`` with checksummed pass/fail entries.
Identical config + seed must produce byte-identical outputs.

Experiment kinds, each one ``_KINDS`` entry holding its runner, the
artifacts it checksums, its defaults and its rules:

    simulate        plain evolution with the conservation ledger
    dispersion      linear mode frequency vs sqrt(g xi tanh(h xi))
    taylor-audit    random-state sweep of the Taylor-sign lower bound
    drift-scaling   quartic-drift ratio experiment (eps vs eps/2)
    lifespan        cubic-lifespan run out to T = c / eps^2
    symbols         normal-form symbol tables and system residuals
    conformal       graph -> trace -> graph round trip
    scaling-check   paired runs related by the spatial scaling symmetry

``waves report --out <dir>`` re-verifies a run's checksums and verdicts.

``dispersion`` runs its ks and ``drift-scaling`` its two amplitudes as one
stack in one ``evolve`` call, and ``taylor-audit`` draws its states in
stacks.  Every stacked evaluation takes its block size from one rule,
``_block_size``.  ``simulate`` measures its ledger a block at a time
(``_blocked``), so it holds at most one block for any ``T_final``, and a
non-finite ledger entry surfaces when its block is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .grid import SpectralGrid, dealias_band, make_grid, to_spectrum
from .holo import holo_from_real
from .dynamics import WaveState, diag_of, scale_state, stack_states
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

OUT_ENV_VAR = "WAVESTRIP_OUT"

_SNAPSHOT_LAYOUT = "samples-complex128x2-le"
_SNAPSHOT_SCHEMA = {"L": float, "N": int, "g": float, "h": float, "t": float,
                    "layout": str}


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
        # json reads NaN, Infinity and 1e400; an integer past 1e308 overflows
        try:
            value = float(value)
        except OverflowError:
            value = np.inf
        if not np.isfinite(value):
            raise ConfigError(f"{path} must be a finite number")
        return value
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
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = ExperimentConfig(kind,
                                experiment=dict(_KINDS[kind].experiment))
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
    for ok, message in _KINDS[kind].rules:
        if not ok(config.experiment):
            raise ConfigError(f"experiment.{message}")
    return config


# ---------------------------------------------------------------------------
# snapshots and series


def write_snapshot(path: str, state: WaveState) -> None:
    """JSON header line + raw little-endian complex samples of W then Q.

    Samples, not spectra, so that a write/read cycle returns the state bit
    for bit and, without the invariant-shell projection, a run continued
    from a snapshot matches an unbroken run; under it the continued run
    takes its shell targets from the snapshot.  A stack raises ValueError.
    """
    if state.W.ndim != 1:
        raise ValueError("a snapshot holds one state, not a stack")
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
    if not isinstance(header, dict) or header.keys() != _SNAPSHOT_SCHEMA.keys():
        raise ValueError("snapshot header is not an object holding exactly "
                         + ", ".join(sorted(_SNAPSHOT_SCHEMA)))
    header = _coerce(header, _SNAPSHOT_SCHEMA, "snapshot header")
    if header["layout"] != _SNAPSHOT_LAYOUT:
        raise ValueError(f"unsupported snapshot layout {header['layout']!r}")
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


def write_series_csv(path: str, table) -> None:
    from .diagnostics import DiagnosticsRecord
    columns = (f.name for f in fields(DiagnosticsRecord))
    _write_table(path, ",".join(columns), table)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


_VERDICT_KEYS = frozenset({"name", "pass", "measured", "target", "tol"})


def _verdict(name: str, passed, measured, target: str, tol) -> dict:
    """One entry of verdict.json's list."""
    return {"name": name, "pass": bool(passed), "measured": float(measured),
            "target": target, "tol": float(tol)}


def _at_most(name: str, measured, tol: float) -> dict:
    return _verdict(name, measured <= tol, measured, "<= tol", tol)


def _within(name: str, measured, lo: float, hi: float) -> dict:
    return _verdict(name, lo <= measured <= hi, measured, f"[{lo}, {hi}]", 0.0)


def _write_verdicts(out_dir: str, kind: str, verdicts) -> None:
    checksums = {name: _sha256(os.path.join(out_dir, name))
                 for name in _KINDS[kind].artifacts}
    doc = {"kind": kind, "verdicts": verdicts, "checksums": checksums}
    with open(os.path.join(out_dir, "verdict.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# initial data and runs


def _modes_to_real(modes, grid: SpectralGrid, what: str) -> np.ndarray:
    """Sum of the modes' cosines on the grid; amplitudes and phases shaped
    (B, 1) give a stack of B fields.  A mode past the dealiased band, which
    the solver removes, is refused; ``what`` names the modes in the error."""
    out = np.zeros(grid.N)
    for m in modes:
        if abs(m["k"]) > dealias_band(grid):
            raise ValueError(f"{what} k={m['k']}: the solver removes modes "
                             f"past |k| = {dealias_band(grid)} at N = {grid.N}")
        out = out + m["amplitude"] * np.cos(m["k"] * (2 * np.pi / grid.L)
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
        eta = _modes_to_real(surface, grid, "init.surface_modes")
        W = graph_to_holo(SurfaceGraph(grid, eta)).W
    else:
        W = np.zeros(grid.N, dtype=complex)
    if velocity:
        Q = holo_from_real(
            _modes_to_real(velocity, grid, "init.velocity_modes"), grid)
    else:
        Q = np.zeros(grid.N, dtype=complex)
    return WaveState(grid, W, Q, config.g)


def _solver_config(config: ExperimentConfig, grid: SpectralGrid,
                   **overrides) -> SolverConfig:
    params = {**_KINDS[config.kind].solver, **config.solver, **overrides}
    # the CFL step is computed even when dt is given, so cfl is validated
    suggested = suggest_dt(grid, config.g, params.pop("cfl", 0.5))
    if params.get("dt") is None:
        params["dt"] = suggested
    return SolverConfig(**params)


def _block_size(grid: SpectralGrid) -> int:
    """States per stacked evaluation: 4096 samples, so 32 states at N = 128,
    16 at N = 256 and 4 at N = 1024.

    taylor-audit's random states, the simulate ledger and the drift-scaling
    observer take their blocks by this one rule.  A block costs about what
    one state does, and no temporary of the ledger grows as B N^2: the
    normal-form routines take one member at a time.  B N stays below the
    B N < 16384 bound of wavestrip.grid, under which each row is bit for
    bit its own call.
    """
    return max(1, 4096 // grid.N)


def _blocked(grid: SpectralGrid, g: float, evaluate) -> tuple:
    """An observer that keeps the states it is handed and evaluates them a
    block at a time, and the ``flush`` that evaluates what is left.

    Once the kept members number ``_block_size(grid)`` or more,
    ``evaluate(stack, ts)`` gets them as one stack, in the order they came
    (a stacked observation member by member), with each member's time.  An
    observation is never split between blocks, so at most one block (or
    one observation, if that is larger) is held for any horizon.
    """
    kept = []

    def flush():
        if kept:
            stack = WaveState(grid, np.concatenate([W for W, _, _ in kept]),
                              np.concatenate([Q for _, Q, _ in kept]), g)
            evaluate(stack, [t for W, _, t in kept for _ in W])
            kept.clear()

    def obs(i, t, s):
        kept.append((s.W.reshape(-1, grid.N), s.Q.reshape(-1, grid.N), t))
        if sum(len(W) for W, _, _ in kept) >= _block_size(grid):
            flush()

    return obs, flush


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
    solver = _solver_config(config, grid)
    write_snapshot(os.path.join(out_dir, "initial.snap"), state)
    from .diagnostics import DiagnosticsRecord, measure
    blocks = []
    # one ledger call per block of kept states; each row keeps its own t
    obs, flush = _blocked(grid, state.g, lambda stack, ts: blocks.append(
        measure(stack, dt=solver.dt).table(ts)))
    final = evolve(state, solver, [obs])
    flush()
    write_snapshot(os.path.join(out_dir, "final.snap"), final)
    ledger = np.concatenate(blocks)
    write_series_csv(os.path.join(out_dir, "series.csv"), ledger)
    names = [f.name for f in fields(DiagnosticsRecord)]
    E, I = (ledger[:, names.index(c)] for c in ("E_ham", "I"))
    exp = config.experiment
    e_drift = np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-300)
    # momentum of a standing wave is zero, so its drift is measured against
    # the energy scale rather than the (vanishing) initial value
    mom_drift = (np.max(np.abs(I - I[0]))
                 / max(abs(I[0]), abs(E[0]), 1e-300))
    return [_at_most("energy_drift", e_drift, exp["energy_tol"]),
            _at_most("momentum_drift", mom_drift, exp["momentum_tol"])]


def _run_dispersion(config: ExperimentConfig, out_dir: str) -> list:
    grid = config.make_grid()
    exp = config.experiment
    g = config.g
    ks = exp["ks"]
    omegas, states, steps = [], [], []
    for k in ks:
        xi = 2 * np.pi * k / grid.L
        omegas.append(float(np.sqrt(g * xi * np.tanh(grid.h * xi))))
        W = holo_from_real(_modes_to_real(
            [{"k": k, "amplitude": exp["amplitude"]}], grid, "dispersion"), grid)
        states.append(WaveState(grid, W, np.zeros(grid.N, dtype=complex), g))
        T = exp["cycles"] * 2 * np.pi / omegas[-1]
        solver = _solver_config(config, grid, T_final=T, observer_stride=1)
        if solver.n_steps < 2:
            raise ValueError(f"dispersion k={k}: the fit needs at least 2 "
                             f"steps, experiment.cycles gives {solver.n_steps}")
        steps.append(solver.n_steps)
    samples = [[] for _ in ks]

    def obs(i, t, s):
        # the ks share dt and run as one stack to the longest horizon; each
        # keeps its samples up to its own, of W's -|k| coefficient
        # a (1 + tanh(h |xi_k|)) / 2 (the surface cos(k alpha) is even in k):
        # the +|k| one is 0 once tanh rounds to 1
        c = to_spectrum(s.W).reshape(len(ks), grid.N)
        for j, k in enumerate(ks):
            if i <= steps[j]:
                samples[j].append(c[j, -abs(k) % grid.N].real)

    evolve(stack_states(states),
           replace(solver, T_final=max(steps) * solver.dt), [obs])
    verdicts = []
    rows = []
    for k, omega, s in zip(ks, omegas, samples):
        peak = np.max(np.abs(s))
        # scaled by a power of two, exact in every product and sum, so that
        # small amplitudes do not square into subnormals
        s = np.ldexp(s, -np.frexp(peak)[1])
        # the sampled coefficient satisfies the three-term recurrence of a
        # pure cos(omega t) signal; least squares for cos(omega dt)
        num = float(np.sum(s[1:-1] * (s[2:] + s[:-2])))
        den = 2.0 * float(np.sum(s[1:-1] ** 2))
        # subnormal samples are round-off, not a wave
        if den == 0.0 or peak < np.finfo(float).tiny:
            raise ValueError(f"dispersion k={k}: the mode's samples are too "
                             "small to fit")
        c = num / den
        measured = np.arccos(np.clip(c, -1.0, 1.0)) / solver.dt
        rel = abs(measured - omega) / omega
        rows.append((k, measured, omega, rel))
        verdicts.append(_verdict(f"dispersion_k{k}", rel <= exp["tol"],
                                 rel, f"omega={omega!r}", exp["tol"]))
    _write_table(os.path.join(out_dir, "dispersion.csv"),
                 "k,measured,target,rel_dev", rows)
    return verdicts


def _random_states(rng, grid: SpectralGrid, g: float, n_modes: int,
                   c_lo: float, c_hi: float, count: int) -> WaveState:
    """A stack of ``count`` random valid holomorphic states; min Im W of
    each lands in (c_lo, c_hi).

    The states take their draws from ``rng`` one after another, in the order
    of drawing one state at a time.  Amplitudes are drawn log-uniform and
    capped so the parametrization stays regular (max slope < 0.8); states
    whose surface dips below the c_lo depth are rescaled into range rather
    than rejected.
    """
    from .grid import deriv
    draws = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-3.0, -0.3)
        amps = scale * rng.uniform(-1.0, 1.0, n_modes) / (1 + np.arange(n_modes))
        phases = rng.uniform(0, 2 * np.pi, n_modes)
        draws.append((amps, phases, scale * rng.uniform(-1.0, 1.0),
                      rng.uniform(0, 2 * np.pi)))
    amps, phases, q_amp, q_phase = (np.array(d)[..., None]
                                    for d in zip(*draws))
    W = holo_from_real(_modes_to_real(
        [{"k": k + 1, "amplitude": amps[:, k], "phase": phases[:, k]}
         for k in range(n_modes)], grid, "experiment.modes"), grid)
    # only the rows that need it are rescaled, each by its own factor
    slope = np.max(np.abs(deriv(W.real, grid)), axis=-1)
    steep = slope > 0.8
    W[steep] = W[steep] * (0.8 / slope[steep])[:, None]
    c_now = np.min(W.imag, axis=-1)
    deep = c_now <= max(c_lo, -0.9 * grid.h)
    W[deep] = W[deep] * (0.8 * c_lo / c_now[deep])[:, None]
    Q = holo_from_real(_modes_to_real(
        [{"k": 1, "amplitude": q_amp, "phase": q_phase}], grid,
        "experiment.modes"), grid)
    return WaveState(grid, W, Q, g)


def _run_taylor_audit(config: ExperimentConfig, out_dir: str) -> list:
    from .dynamics import taylor_field
    grid = config.make_grid()
    exp = config.experiment
    rng = np.random.default_rng(config.seed)
    worst_margin = np.inf
    n = exp["n_states"]
    size = _block_size(grid)
    for start in range(0, n, size):
        block = _random_states(rng, grid, config.g, exp["modes"],
                               exp["c_min"], exp["c_max"],
                               min(size, n - start))
        _, tmin, c, bound = taylor_field(block)
        margin = tmin - (bound - exp["slack"] * config.g)
        worst_margin = min(worst_margin, float(np.min(margin)))
    return [_verdict("taylor_lower_bound", worst_margin >= 0.0,
                     worst_margin, ">= 0", exp["slack"])]


def _drift_profile(eps: float, grid: SpectralGrid, g: float) -> WaveState:
    x = (2 * np.pi / grid.L) * grid.nodes
    W = holo_from_real(0.5 * eps * (np.cos(x + 0.7)
                                    + 0.5 * np.cos(2 * x + 1.3)), grid)
    Q = holo_from_real(0.5 * eps * (0.4 * np.sin(x + 2.1)
                                    + 0.25 * np.sin(3 * x + 0.4)), grid)
    return WaveState(grid, W, Q, g)


def _run_drift_scaling(config: ExperimentConfig, out_dir: str) -> list:
    from .normalform import _nf_energy_terms
    exp = config.experiment
    grid = config.make_grid()
    g = config.g
    states = [_drift_profile(eps, grid, g) for eps in exp["eps"]]
    solver = _solver_config(config, grid, T_final=exp["T"])

    blocks = []

    def energies(stack, ts):
        # (energy, observation, member) of the block's observations; E0 is
        # nf_energy's first term
        quad, cross, cubic = _nf_energy_terms(1, diag_of(stack))
        blocks.append(np.reshape([quad + cross + cubic, quad],
                                 (2, -1, len(states))))

    obs, flush = _blocked(grid, g, energies)
    evolve(stack_states(states), solver, [obs])
    flush()
    rows = np.concatenate(blocks, axis=1)
    # per energy and member, the largest drift from the first observation
    nf, e0 = np.max(np.abs(rows - rows[:, :1]), axis=1)
    nf_ratio = nf[0] / nf[1]
    e0_ratio = e0[0] / e0[1]
    return [_within("nf_drift_ratio", nf_ratio, *exp["nf_range"]),
            _within("e0_drift_ratio", e0_ratio, *exp["e0_range"])]


def _run_lifespan(config: ExperimentConfig, out_dir: str) -> list:
    from .diagnostics import sobolev_Nn
    grid = config.make_grid()
    exp = config.experiment
    eps = exp["eps"]
    state = _drift_profile(eps, grid, config.g)
    T = exp["horizon_factor"] / eps ** 2
    solver = _solver_config(config, grid, T_final=T)
    n1 = []

    def obs(i, t, s):
        n1.append(sobolev_Nn(diag_of(s), 1))

    final = evolve(state, solver, [obs])
    growth = max(n1) / n1[0]
    write_snapshot(os.path.join(out_dir, "final.snap"), final)
    return [_verdict("lifespan_growth", growth <= exp["growth_limit"],
                     growth, f"<= {exp['growth_limit']}", exp["growth_limit"])]


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
    eta = _modes_to_real(surface, grid, "init.surface_modes")
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
        state = _drift_profile(0.01, state.grid, config.g)
    grid = state.grid
    scaled = scale_state(state, lam)
    solver = _solver_config(config, grid, T_final=exp["T"])
    f1 = evolve(state, solver)
    f2 = evolve(scaled, solver)
    errW = float(np.max(np.abs(f2.W - f1.W / lam)))
    errQ = float(np.max(np.abs(f2.Q - f1.Q / lam ** 2)))
    return [_at_most("scaling_agreement", max(errW, errQ), exp["tol"])]


@dataclass(frozen=True)
class _Kind:
    """An experiment kind: its runner, the artifacts it checksums, its
    experiment defaults (whose types, a list's element type, are the
    schema), its rules with their messages, and its solver defaults."""

    run: Callable
    artifacts: tuple
    experiment: dict
    rules: tuple = ()
    solver: dict = field(default_factory=dict)


def _range_rule(key: str) -> tuple:
    return (lambda e: len(e[key]) == 2 and e[key][0] <= e[key][1],
            f"{key} must be two numbers, low <= high")


# The rules refuse a value on which the run would divide by zero, index past
# its data, never finish drawing, or pass a verdict taken over nothing or
# fail one that nothing could pass.
_KINDS = {
    "simulate": _Kind(
        _run_simulate, ("initial.snap", "final.snap", "series.csv"),
        {"energy_tol": 1e-8, "momentum_tol": 1e-8},
        # conservation-grade defaults: exact linear propagation plus
        # post-step projection onto the initial (energy, momentum) level set
        solver={"method": "ifrk4", "project_energy": True, "T_final": 10.0}),
    "dispersion": _Kind(
        _run_dispersion, ("dispersion.csv",),
        {"ks": [1, 2, 5], "amplitude": 1e-6, "tol": 1e-4, "cycles": 10.0},
        ((lambda e: len(e["ks"]) > 0 and 0 not in e["ks"],
          "ks must list at least one nonzero mode"),
         (lambda e: e["amplitude"] > 0, "amplitude must be positive"),
         (lambda e: e["cycles"] > 0, "cycles must be positive")),
        # exact linear propagation: the measured frequency reflects the
        # model's dispersion rather than the RK4 phase bias O((omega dt)^4)
        {"method": "ifrk4"}),
    "taylor-audit": _Kind(
        _run_taylor_audit, (),
        {"n_states": 500, "c_min": -0.9, "c_max": 0.5, "modes": 6,
         "slack": 1e-9},
        ((lambda e: e["n_states"] > 0, "n_states must be positive"),
         (lambda e: e["modes"] >= 1, "modes must be at least 1"),
         (lambda e: e["c_min"] < e["c_max"], "c_min must be below c_max"))),
    "drift-scaling": _Kind(
        _run_drift_scaling, (),
        {"eps": [0.04, 0.02], "T": 20.0, "nf_range": [12.0, 20.0],
         "e0_range": [6.0, 10.0]},
        ((lambda e: len(e["eps"]) == 2 and min(e["eps"]) > 0,
          "eps must be two positive amplitudes"),
         _range_rule("nf_range"), _range_rule("e0_range")),
        {"method": "ifrk4"}),
    "lifespan": _Kind(
        _run_lifespan, ("final.snap",),
        {"eps": 0.05, "horizon_factor": 0.5, "growth_limit": 2.0},
        ((lambda e: e["eps"] > 0, "eps must be positive"),),
        {"observer_stride": 20}),
    "symbols": _Kind(
        _run_symbols, ("symbols.csv",),
        {"n_points": 1000, "d_min": 0.5, "rho_max": 30.0, "tol": 1e-10,
         "line_tol": 1e-6},
        # a point d_min from all three lines, such as (d_min, d_min), has
        # rho >= 1 + 2 d_min
        ((lambda e: e["n_points"] > 0, "n_points must be positive"),
         (lambda e: e["rho_max"] > 1.0 + 2.0 * max(e["d_min"], 0.0),
          "rho_max must exceed 1 + 2 max(d_min, 0)"))),
    "conformal": _Kind(
        _run_conformal, (),
        {"tol": 1e-8, "ratio_low": 0.25, "ratio_high": 4.0},
        ((lambda e: e["ratio_low"] <= e["ratio_high"],
          "ratio_low must not exceed ratio_high"),)),
    "scaling-check": _Kind(
        _run_scaling_check, (), {"lam": 2.0, "T": 10.0, "tol": 1e-10},
        ((lambda e: e["lam"] > 0, "lam must be positive"),
         (lambda e: e["lam"] != 1.0,
          "lam must not be 1, which compares a run with itself"))),
}


def run_experiment(config: ExperimentConfig, out_dir: str) -> int:
    """Run one experiment; returns 0 iff every verdict passed."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        verdicts = _KINDS[config.kind].run(config, out_dir)
    except StepAbort as exc:
        path = os.path.join(out_dir, "last_good.snap")
        write_snapshot(path, exc.last_good)
        print(f"error: aborted at step {exc.step_index}: {exc.reason}; "
              f"last good state in {path}", file=sys.stderr)
        return 2
    _write_verdicts(out_dir, config.kind, verdicts)
    return 0 if all(v["pass"] for v in verdicts) else 1


def emit_report(run_dir: str) -> str:
    """Human-readable pass/fail summary of a finished run directory.

    Raises ``ValueError`` unless verdict.json is an object of a known kind
    with a non-empty list of complete verdicts and the checksums of exactly
    that kind's artifacts, each matching its file.
    """
    verdict_path = os.path.join(run_dir, "verdict.json")
    if not os.path.isfile(verdict_path):
        raise FileNotFoundError(f"no verdict.json in {run_dir}")
    with open(verdict_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("verdict.json is nested too deeply") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("kind"), str)
            and doc["kind"] in _KINDS):
        raise ValueError("verdict.json names no known experiment kind")
    verdicts = doc.get("verdicts")
    if not (isinstance(verdicts, list) and verdicts and all(
            isinstance(v, dict) and _VERDICT_KEYS <= v.keys()
            and isinstance(v["pass"], bool) for v in verdicts)):
        raise ValueError("verdict.json holds no list of complete verdicts")
    checksums = doc.get("checksums")
    if not (isinstance(checksums, dict)
            and set(checksums) == set(_KINDS[doc["kind"]].artifacts)):
        raise ValueError(f"verdict.json does not checksum exactly the "
                         f"{doc['kind']} artifacts")
    for name, expected in checksums.items():
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing artifact {name}")
        actual = _sha256(path)
        if actual != expected:
            raise ValueError(f"checksum mismatch for {name}: "
                             f"{actual} != {expected}")
    lines = [f"experiment: {doc['kind']}"]
    for v in verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(f"{status} {v['name']}: measured={v['measured']!r} "
                     f"target={v['target']} tol={v['tol']!r}")
    overall = all(v["pass"] for v in verdicts)
    lines.append("overall: " + ("PASS" if overall else "FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="waves", description="water-wave experiment runner")
    parser.add_argument("kind", choices=(*_KINDS, "report"))
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
