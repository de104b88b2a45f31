"""Every public name of the package is used by the package itself.

A name in a module's ``__all__``, or a public method or property of a class
named there, that no src code uses outside its own definition runs in no
experiment: it is a test reference, which belongs in
``tests/reference.py``, or dead code.  The names kept on purpose are listed
with the ROADMAP item that rewrites or uses them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wavestrip"

KEPT = {
    "hamiltonian_vf": "items 13 and 1: structure oracle, loses its corrections",
    "momentum_vf": "items 13 and 1: structure oracle, loses its corrections",
    "skew_check": "items 13 and 1: structure oracle",
    "rhs_diag": "items 13 and 1: the diagonal system, rewritten with the gauge",
    "rhs_linearized": "items 13 and 1: takes the new gauge's derivative",
    "nf_transform": "items 15 and 17: the normal-form variables",
    "holomorphy_residual": "item 8: run telemetry",
}


def _public(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return [e.value for e in node.value.elts]
    return []


def _used(node, inside=()):
    """Names referenced under ``node``, each outside a definition of itself."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside += (node.name,)
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    used = {name} - set(inside) - {None}
    for child in ast.iter_child_nodes(node):
        used |= _used(child, inside)
    return used


def _trees():
    return [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]


def test_every_public_name_is_used_by_src():
    trees = _trees()
    public = {name for tree in trees for name in _public(tree)}
    used = set().union(*(_used(tree) for tree in trees))
    assert public - used == set(KEPT)


def test_every_public_member_of_a_public_class_is_used_by_src():
    trees = _trees()
    members = {f"{node.name}.{item.name}"
               for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in _public(tree)
               for item in node.body
               if isinstance(item, ast.FunctionDef)
               and not item.name.startswith("_")}
    used = set().union(*(_used(tree) for tree in trees))
    assert {m for m in members if m.split(".")[1] not in used} == set()
