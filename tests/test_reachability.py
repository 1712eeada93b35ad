"""Every public function or class of src/pdmat is named elsewhere in
src/pdmat, or is on KEEP with the test that covers it; every public field,
property or method of a public class is read in src/pdmat, or is on
KEEP_MEMBERS with the test that covers it; every parameter with a default of
a public function or method is set by some call in src/pdmat, or is on
KEEP_PARAMS with the test that covers it and the reason it stays.  A value
that every run leaves at its default is a constant, not a parameter.

A name counts as reached when code in src/pdmat refers to it as ``mod.name``
through a package import, by a ``from .mod import name``, or by its bare name
inside its own module; names are qualified by module, so that a function
sharing its name with another (``flows.compose``) is not reached through it.
A member counts as read when src/pdmat loads an attribute of its name from
any object, or holds its name as a string constant (``getattr(fit, k)`` over
a tuple of names); the name argument of a ``setattr`` is a write, not a read.
A parameter counts as set when a call resolved as names are (or, for a
method, any call of an attribute of its name) passes it by keyword, or passes
enough positional arguments to reach it; ``partial(f, ...)`` is a call of f,
and a ``*args`` or ``**kwargs`` argument may set every parameter it can reach.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdmat"

# public names that no run reaches and that stay, because a claim of the
# paper or the benchmark rests on them: each with the test that covers it
KEEP = {
    "core.seminorm":    # the paper's order seminorm, which certification must equal
        "tests/test_core_algebra.py::test_estimate_order_matches_entrywise_scan",
    "operators.symbol_catalog":
        "tests/test_operators.py::test_catalog_lookup_errors",
    "core.is_diagonal":     # the oracle of OpMatrix.exactly_diagonal's scan
        "tests/test_core_algebra.py::test_exactly_diagonal_matches_is_diagonal",
    "core.delta":   # the paper's diagonal difference, the oracle of the chunked scan
        "tests/test_core_algebra.py::test_chunked_kernels_match_the_whole_arrays",
}

# public class members that nothing in src/pdmat reads, kept for the same
# reason, each with the test that covers it
KEEP_MEMBERS = {
    "experiments.WaterWaveOperators.generator":    # the benchmark's reference check
        "tests/test_experiments.py::test_waterwave_exact_prop_matches_dense_expm",
}

# parameters with a default that no call in src/pdmat sets, kept for the same
# reason: each with the test that covers it and why it stays a parameter
KEEP_PARAMS = {
    "core.estimate_order.decay_grid": (
        "perfbench/tests/test_spans.py::test_layer_self_times_account_for_the_round",
        "the benchmark's span test certifies on one decay"),
    "core.estimate_order.order_grid": (
        "perfbench/tests/test_spans.py::test_layer_self_times_account_for_the_round",
        "the benchmark's span test certifies on two orders"),
    "cli.main.argv": (
        "tests/test_cli.py::test_main_entry_points",
        "the console script reads sys.argv; tests pass their own"),
    "spectral.sample.d": (
        "tests/test_spectral.py::test_mult_matrix_2d_conjugation",
        "the 2-d periodic calculus samples on Z_K^2"),
    "spectral.mult_matrix_from_samples.d": (
        "tests/test_spectral.py::test_mult_matrix_2d_conjugation",
        "the 2-d periodic calculus multiplies on Z_K^2"),
    "spectral.mult_matrix_from_coeffs.d": (
        "tests/test_operators.py::test_mult_matrix_from_coeffs_matches_entrywise",
        "the 2-d periodic calculus aliases on Z_K^2"),
}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _imports(tree: ast.Module) -> tuple:
    """({local name: module}, {local name: qualified name}) of the package
    imports of a module."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    return modules, names


def _references(module: str, tree: ast.Module) -> set:
    """Qualified names that the code of ``module`` refers to."""
    modules, names = _imports(tree)
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


def _defaulted(trees: dict) -> dict:
    """{qualified parameter: (callee, name, position)} for the parameters
    with a default of the public functions and of the public methods of
    public classes; the callee of a function is qualified as names are, that
    of a method is ``.name`` (any attribute call of its name), and position
    is None for a keyword-only parameter, else its index among the
    positional arguments a call passes (without self)."""
    out = {}
    for module, tree in trees.items():
        defs = [(f"{module}.{node.name}", f"{module}.{node.name}", node, 0)
                for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{module}.{cls.name}.{node.name}", f".{node.name}", node, 1)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 and not cls.name.startswith("_")
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualified, callee, node, skip in defs:
            if node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    start=len(positional) - len(args.defaults)):
                out[f"{qualified}.{arg.arg}"] = (callee, arg.arg, i - skip)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[f"{qualified}.{arg.arg}"] = (callee, arg.arg, None)
    return out


def _calls(module: str, tree: ast.Module):
    """(callee, positional count, keywords) of each call in the module, with
    the callee qualified as names are, or ``.name`` for an attribute call on
    an object; a ``*args`` makes the count unbounded and a ``**kwargs``
    the keywords None.  partial(f, ...) is a call of f."""
    modules, names = _imports(tree)

    def callee(func):
        if isinstance(func, ast.Name):
            return names.get(func.id, f"{module}.{func.id}")
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                return f"{modules[func.value.id]}.{func.attr}"
            return f".{func.attr}"
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        count = len(args) if not any(isinstance(a, ast.Starred) for a in args) \
            else float("inf")
        keywords = None if any(k.arg is None for k in node.keywords) \
            else {k.arg for k in node.keywords}
        yield callee(func), count, keywords


def unset_params() -> set:
    trees = _trees()
    calls = [call for module, tree in trees.items() for call in _calls(module, tree)]

    def is_set(callee, name, position):
        return any(c == callee and (keywords is None or name in keywords or
                                    position is not None and count > position)
                   for c, count, keywords in calls)
    return {param for param, where in _defaulted(trees).items() if not is_set(*where)}


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


def test_every_defaulted_parameter_is_set_or_kept():
    assert sorted(unset_params() - set(KEEP_PARAMS)) == []


def test_keep_params_holds_only_unset_parameters_with_existing_tests():
    assert sorted(set(KEEP_PARAMS) - unset_params()) == []
    _assert_tests_exist(test for test, _ in KEEP_PARAMS.values())
