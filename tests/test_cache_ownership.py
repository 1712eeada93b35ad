"""Every cache of src/pdmat lives as long as the value it describes.

Arrays derived from an index set are attributes of its IndexBlock, memos of a
study or a loss scan are local to the call that fills them, and a refinement
family is a plain list of matrices that its caller holds.  A
WaterWaveOperators keeps its normal modes and no propagator, and takes no
cache as a constructor argument: a study builds each propagator it needs once
(tests/test_experiments.py counts them).  The one module-level
cache left is flows._eigh_cached, whose cache_info() the benchmark's tracer
reads; cli.run empties it when its runner returns or raises, so no generator
or factor of one run is held into the next.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from pdmat import cli, core, experiments, flows, operators
from pdmat.core import truncated_block

SRC = Path(__file__).resolve().parents[1] / "src" / "pdmat"
MODULE_CACHES = {"flows._eigh_cached"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _is_cache(decorator) -> bool:
    """cache or lru_cache, bare, called, or as functools.name."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) \
        else getattr(decorator, "id", "")
    return name in CACHE_DECORATORS


def module_level_caches() -> set:
    """Functions of src/pdmat under a cache decorator at module or class
    level: such a cache outlives every call and every instance."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [("", tree.body)] + [(f"{node.name}.", node.body) for node in tree.body
                                      if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            found.update(f"{path.stem}.{prefix}{node.name}" for node in body
                         if isinstance(node, ast.FunctionDef)
                         and any(_is_cache(d) for d in node.decorator_list))
    return found


def test_only_module_level_cache_is_eigh_cached():
    assert module_level_caches() == MODULE_CACHES


def test_dropped_block_is_freed_after_order_certification():
    laplacian = operators.symbol_catalog("laplacian")
    family = [operators.fourier_multiplier(laplacian, truncated_block(2, M))
              for M in (4, 6, 8)]
    core.estimate_order(family)
    ref = weakref.ref(family[-1].block)
    del family
    gc.collect()
    assert ref() is None


def test_no_constructor_takes_a_cache():
    assert [f.name for f in dataclasses.fields(experiments.WaterWaveOperators)
            if "cache" in f.name and f.init] == []


@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_run_leaves_no_factor_in_the_eigh_cache(outcome, tmp_path, monkeypatch):
    cfg = cli.parse_config('experiment = "splitting_orders"\nM_list = [8, 16]\n')
    spec = cli.EXPERIMENTS["splitting_orders"]
    held = []

    def runner(cfg):
        if outcome == "returns":
            out = spec.runner(cfg)
        else:
            model = experiments.schroedinger_assemble(operators.two_cos_coeff, 8)
            flows.exact_flow(model.R, 0.01, np.eye(model.block.n))
        held.append(flows._eigh_cached.cache_info().currsize)
        if outcome == "raises":
            raise ArithmeticError("synthetic failure after a factorization")
        return out
    monkeypatch.setitem(cli.EXPERIMENTS, "splitting_orders",
                        dataclasses.replace(spec, runner=runner))
    assert cli.run(cfg, tmp_path) == (0 if outcome == "returns" else 1)
    assert held[0] > 0
    assert flows._eigh_cached.cache_info().currsize == 0
