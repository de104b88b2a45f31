"""Run every benchmark config on two source trees and compare the outputs.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories (the ones holding the
``wavestrip`` package) of the two trees.  Every (kind, config) pair of
``bench/run.py``'s ``plan()``, for each workload at seeds 1 and 2, runs once
per tree as a single-threaded ``python -m wavestrip.cli`` process in its own
directory, which ends up holding the config, the run's output files and its
combined stdout/stderr (``log.txt``).  Every file that differs between the
two trees, or exists in only one, is listed, as is every run whose exit
status differs.  The exit status is 1 if anything differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SEEDS = (1, 2)


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
    """(label, kind, config) for every experiment of every workload and seed."""
    out = []
    for workload in bench.WORKLOADS:
        for seed in SEEDS:
            for i, (kind, cfg) in enumerate(bench.plan(workload, seed)):
                out.append((f"{workload}-s{seed}/{i}-{kind}", kind, cfg))
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
        if not filecmp.cmp(os.path.join(trees["parent"], rel),
                           os.path.join(trees["change"], rel), shallow=False):
            problems.append(f"differs: {rel}")
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
