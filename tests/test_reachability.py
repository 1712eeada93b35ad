"""Every public function or class of src/pdmat is named elsewhere in
src/pdmat, or is on KEEP with the test that covers it.

A name counts as reached when code in src/pdmat refers to it as ``mod.name``
through a package import, by a ``from .mod import name``, or by its bare name
inside its own module; names are qualified by module, so that a function
sharing its name with another (``flows.compose``) is not reached through it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdmat"

# public names that no run reaches and that stay, because a claim of the
# paper or the benchmark rests on them: each with the test that covers it
KEEP = {
    "core.apply":
        "tests/test_core_algebra.py::test_apply_operator_norm_bound_uniform_over_radii",
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
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    public = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    refs = set().union(*(_references(m, tree) for m, tree in trees.items()))
    return public - refs


def test_every_public_name_is_reached_or_kept():
    assert sorted(unreached() - set(KEEP)) == []


def test_keep_list_holds_only_unreached_names_with_existing_tests():
    assert sorted(set(KEEP) - unreached()) == []
    for test in KEEP.values():
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, test
