"""Every public function or class of src/pdmat is named elsewhere in
src/pdmat, or is on KEEP with the test that covers it; every public field,
property or method of a public class is read in src/pdmat, or is on
KEEP_MEMBERS with the test that covers it.

A name counts as reached when code in src/pdmat refers to it as ``mod.name``
through a package import, by a ``from .mod import name``, or by its bare name
inside its own module; names are qualified by module, so that a function
sharing its name with another (``flows.compose``) is not reached through it.
A member counts as read when src/pdmat loads an attribute of its name from
any object, or holds its name as a string constant (``getattr(fit, k)`` over
a tuple of names); the name argument of a ``setattr`` is a write, not a read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdmat"

# public names that no run reaches and that stay, because a claim of the
# paper or the benchmark rests on them: each with the test that covers it
KEEP = {
    "core.identity":
        "tests/test_core_algebra.py::test_matmul_identity_and_diagonals",
    "core.shift":
        "tests/test_core_algebra.py::test_product_difference_rule",
    "flows.composition_scheme":
        "tests/test_flows.py::test_fourth_order_composition_local_order",
    "operators.symbol_catalog":
        "tests/test_operators.py::test_catalog_lookup_errors",
    "periodic.dnorm":
        "tests/test_periodic.py::test_dnorm_forward_difference_bounded_by_one",
}

# public class members that nothing in src/pdmat reads, kept for the same
# reason, each with the test that covers it
KEEP_MEMBERS = {
    "experiments.WaterWaveOperators.generator":    # the benchmark's reference check
        "tests/test_experiments.py::test_waterwave_exact_prop_matches_dense_expm",
    "operators.SymbolSpec.declared_order":
        "tests/test_operators.py::test_symbol_difference_growth_probe",
}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _references(module: str, tree: ast.Module) -> set:
    """Qualified names that the code of ``module`` refers to."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name):
            refs.add(names.get(node.id, f"{module}.{node.id}"))
    return refs


def unreached() -> set:
    trees = _trees()
    public = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    refs = set().union(*(_references(m, tree) for m, tree in trees.items()))
    return public - refs


def _members(trees: dict) -> dict:
    """{qualified member: name} for the annotated fields and the public
    methods and properties of the public classes."""
    out = {}
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if not name.startswith("_"):
                    out[f"{module}.{cls.name}.{name}"] = name
    return out


def _reads(tree: ast.Module) -> set:
    """Attribute names that the code loads, and its string constants other
    than the name arguments of setattr and object.__setattr__."""
    written = {id(node.args[1]) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and len(node.args) >= 2
               and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__")}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in written:
            out.add(node.value)
    return out


def unread_members() -> set:
    trees = _trees()
    reads = set().union(*(_reads(tree) for tree in trees.values()))
    return {member for member, name in _members(trees).items() if name not in reads}


def _assert_tests_exist(tests):
    for test in tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, test


def test_every_public_name_is_reached_or_kept():
    assert sorted(unreached() - set(KEEP)) == []


def test_keep_list_holds_only_unreached_names_with_existing_tests():
    assert sorted(set(KEEP) - unreached()) == []
    _assert_tests_exist(KEEP.values())


def test_every_public_member_is_read_or_kept():
    assert sorted(unread_members() - set(KEEP_MEMBERS)) == []


def test_keep_members_holds_only_unread_members_with_existing_tests():
    assert sorted(set(KEEP_MEMBERS) - unread_members()) == []
    _assert_tests_exist(KEEP_MEMBERS.values())
