"""pdmat runs on numpy alone: every module that src/pdmat imports is in the
standard library or is numpy, and numpy is the one runtime dependency that
pyproject.toml declares.  scipy is a test dependency, for the oracles."""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules() -> dict:
    """{top-level module: first file of src/pdmat that imports it}, for every
    absolute import, at any depth of the file."""
    found = {}
    for path in sorted((ROOT / "src" / "pdmat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    return found


def test_src_imports_only_the_standard_library_and_numpy():
    outside = {module: path for module, path in imported_top_level_modules().items()
               if module not in sys.stdlib_module_names and module != "numpy"}
    assert outside == {}


def test_numpy_is_the_one_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements]
    assert names(project["dependencies"]) == ["numpy"]
    assert {"pytest", "hypothesis", "scipy"} <= set(names(project["optional-dependencies"]["test"]))
