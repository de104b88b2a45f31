"""Run every benchmark config on two source trees and compare the outputs.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories (the ones holding the
``wavestrip`` package) of the two trees.  Every (kind, config) pair of
``bench/run.py``'s ``plan()``, for each workload at seeds 1 and 2, and of
``EXTRA_RUNS``, configs the plan never takes, runs once per tree as a
single-threaded ``python -m wavestrip.cli`` process in its own directory,
which ends up holding the config, the run's output files and its combined
stdout/stderr (``log.txt``).  Every file that differs between the
two trees, or exists in only one, is listed, as is every run whose exit
status differs.  The exit status is 1 if anything differs and 0 otherwise.

For a differing text file the listing says how large the difference is: the
largest relative difference |a - b| / max(|a|, |b|) between corresponding
numbers, per CSV column, per JSON path or per line of other text, and every
place where the two differ other than in a number.  A CSV column whose
largest |a - b| is smaller relative to the column's largest magnitude than
entry by entry (a column with near-zero values) also gets that figure,
with the magnitude itself: a column that is round-off throughout, such as
the momentum of a symmetric surface, shows as such.  For a
differing ``.snap`` file (``cli.write_snapshot``'s layout: a JSON header
line, then the little-endian complex128 samples of W and of Q) it gives the
header fields that differ and, for W and Q, the largest |a - b| relative to
the field's largest |sample|.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SEEDS = (1, 2)

_PROJECT_RK4_32 = {"grid": {"N": 32},
                   "solver": {"project_energy": True, "method": "rk4"}}
# the invariant-shell projection on the stacked kinds, simulate on a grid
# that is not a power of 2, drift-scaling on two cells whose unit-depth
# image is not the default one (h = 0.25 and L = 3; their ranges fail), and
# simulate at N = 1024 off the unit cell, whose 15 ledger rows are measured
# in blocks of 4 and a last block of 3
EXTRA_RUNS = (
    ("dispersion", {"solver": {"project_energy": True}}),
    ("dispersion", _PROJECT_RK4_32),
    ("drift-scaling", {"solver": {"project_energy": True}}),
    ("drift-scaling", _PROJECT_RK4_32),
    ("simulate", {"grid": {"N": 100},
                  "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
                  "solver": {"T_final": 5.0}}),
    ("drift-scaling", {"grid": {"h": 0.25}}),
    ("drift-scaling", {"grid": {"L": 3.0}}),
    ("simulate", {"grid": {"N": 1024, "L": 12.566370614359172, "h": 0.5},
                  "init": {"surface_modes": [{"k": 1, "amplitude": 0.02}]},
                  "solver": {"T_final": 1.5}}),
)


def _bench_run():
    """bench/run.py as a module (it imports its sibling ``tracer``)."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(bench) -> list:
    """(label, kind, config) for every experiment of every workload and seed,
    then for every extra run."""
    out = []
    for workload in bench.WORKLOADS:
        for seed in SEEDS:
            for i, (kind, cfg) in enumerate(bench.plan(workload, seed)):
                out.append((f"{workload}-s{seed}/{i}-{kind}", kind, cfg))
    for i, (kind, cfg) in enumerate(EXTRA_RUNS):
        out.append((f"extra/{i}-{kind}", kind, cfg))
    return out


def _run_tree(src: str, tree_dir: str, runs, thread_vars) -> dict:
    """Run every experiment on the sources in ``src``; returns exit codes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("WAVESTRIP_OUT", None)
    for var in thread_vars:
        env[var] = "1"
    codes = {}
    for label, kind, cfg in runs:
        run_dir = os.path.join(tree_dir, label)
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)
        with open(os.path.join(run_dir, "log.txt"), "wb") as log:
            codes[label] = subprocess.call(
                [sys.executable, "-m", "wavestrip.cli", kind,
                 "--config", "config.json", "--out", "out"],
                cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        print(f"{os.path.basename(tree_dir)} {label}: exit {codes[label]}",
              flush=True)
    return codes


def _files(top: str) -> set:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


_NUMBER = re.compile(
    r"((?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.]))")


def _json_leaves(value, path: str):
    if isinstance(value, dict):
        for key in value:
            yield from _json_leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            name = item.get("name", i) if isinstance(item, dict) else i
            yield from _json_leaves(item, f"{path}[{name}]")
    else:
        yield path, json.dumps(value)


def _tokens(name: str, text: str) -> list:
    """(label, token) pairs of a text artifact; a token is a number or text.

    CSV fields are labelled by their column, JSON leaves by their path, and
    the pieces of other text (numbers and the text between them) by line.
    """
    if name.endswith(".json"):
        return list(_json_leaves(json.loads(text), ""))
    lines = text.splitlines()
    if name.endswith(".csv"):
        header = lines[0].split(",")
        return [("header", lines[0])] + [
            (header[i] if i < len(header) else f"column {i + 1}", field)
            for line in lines[1:] for i, field in enumerate(line.split(","))]
    return [(f"line {n}", piece) for n, line in enumerate(lines, 1)
            for piece in _NUMBER.split(line)]


def _number(token: str):
    return float(token) if _NUMBER.fullmatch(token) else None


def _how_different(name: str, a: bytes, b: bytes) -> str:
    """The size of the difference between two versions of one file."""
    try:
        if name.endswith(".snap"):
            return _snapshot_difference(_snapshot(a), _snapshot(b))
        ta, tb = _tokens(name, a.decode()), _tokens(name, b.decode())
    except (ValueError, IndexError, KeyError, TypeError):
        return "binary or unparsable"
    if [label for label, _ in ta] != [label for label, _ in tb]:
        return "layout differs"
    worst, delta, scale = {}, {}, {}
    text = []
    for (label, x), (_, y) in zip(ta, tb):
        u, v = _number(x), _number(y)
        if u is not None and v is not None:
            scale[label] = max(scale.get(label, 0.0), abs(u), abs(v))
        if x == y:
            continue
        if u is None or v is None:
            if label not in text:
                text.append(label)
            continue
        delta[label] = max(delta.get(label, 0.0), abs(u - v))
        rel = abs(u - v) / (max(abs(u), abs(v)) or 1.0)
        worst[label] = max(worst.get(label, 0.0), rel)
    parts = []
    if worst:
        parts.append("numbers by up to " + ", ".join(
            f"{rel:.1e} ({label})" for label, rel in worst.items()))
    if name.endswith(".csv"):
        column = [f"{d / scale[label]:.1e} of {scale[label]:.1e} ({label})"
                  for label, d in delta.items()
                  if d / (scale[label] or 1.0) < worst[label]]
        if column:
            parts.append("relative to the column's largest magnitude "
                         + ", ".join(column))
    if text:
        parts.append("text at " + ", ".join(text))
    return "; ".join(parts)


def _snapshot(data: bytes):
    """(header, {"W": samples, "Q": samples}) of a snapshot file."""
    line, _, payload = data.partition(b"\n")
    header = json.loads(line.decode())
    n = 16 * header["N"]
    if len(payload) != 2 * n:
        raise ValueError("snapshot payload size does not match header")
    return header, {"W": np.frombuffer(payload[:n], "<c16"),
                    "Q": np.frombuffer(payload[n:], "<c16")}


def _snapshot_difference(a, b) -> str:
    """The header fields that differ, and the largest |a - b| of W and of Q
    relative to the field's largest |sample|, of two :func:`_snapshot`s."""
    (ha, fa), (hb, fb) = a, b
    parts = []
    header = [key for key in sorted(ha.keys() | hb.keys())
              if ha.get(key) != hb.get(key)]
    if header:
        parts.append("header differs at " + ", ".join(header))
    if ha["N"] == hb["N"]:
        sizes = {}
        for field in fa:
            u, v = fa[field], fb[field]
            if u.tobytes() != v.tobytes():
                top = max(np.abs(u).max(), np.abs(v).max())
                sizes[field] = np.abs(u - v).max() / (top or 1.0)
        if sizes:
            parts.append("samples by up to " + ", ".join(
                f"{rel:.1e} ({field})" for field, rel in sizes.items())
                + " of the field's largest |sample|")
    return "; ".join(parts)


def compare(parent_src: str, change_src: str, work: str) -> int:
    bench = _bench_run()
    runs = _runs(bench)
    trees = {}
    codes = {}
    for name, src in (("parent", parent_src), ("change", change_src)):
        trees[name] = os.path.join(work, name)
        codes[name] = _run_tree(src, trees[name], runs, bench.THREAD_VARS)
    problems = [f"exit status differs: {label} "
                f"({codes['parent'][label]} vs {codes['change'][label]})"
                for label, _, _ in runs
                if codes["parent"][label] != codes["change"][label]]
    files = {name: _files(top) for name, top in trees.items()}
    for rel in sorted(files["parent"] ^ files["change"]):
        side = "parent" if rel in files["parent"] else "change"
        problems.append(f"only in {side}: {rel}")
    common = sorted(files["parent"] & files["change"])
    for rel in common:
        pa = os.path.join(trees["parent"], rel)
        pc = os.path.join(trees["change"], rel)
        if not filecmp.cmp(pa, pc, shallow=False):
            with open(pa, "rb") as fa, open(pc, "rb") as fc:
                how = _how_different(rel, fa.read(), fc.read())
            problems.append(f"differs: {rel}: {how}")
    print(f"{len(runs)} runs per tree, {len(common)} files compared")
    for line in problems:
        print(line)
    print("identical" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", help="directory for the two run trees "
                        "(kept); a temporary one is used and removed if "
                        "not given")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isfile(os.path.join(src, "wavestrip", "cli.py")):
            parser.error(f"no wavestrip sources under {src}")
    if args.work:
        os.makedirs(args.work)
        return compare(args.parent_src, args.change_src, args.work)
    with tempfile.TemporaryDirectory() as work:
        return compare(args.parent_src, args.change_src, work)


if __name__ == "__main__":
    raise SystemExit(main())
