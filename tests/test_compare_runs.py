import importlib.util
import json
import os

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
