import math

import pytest

import spans
from pdmat import core, experiments, operators, spectral


def test_self_time_subtracts_direct_children_only():
    recs = [("bench.round", 0.0, 10.0, -1),
            ("flows.split_step", 1.0, 4.0, 0),
            ("linalg.eigh", 2.0, 3.0, 1),
            ("core.delta", 5.0, 9.0, 0)]
    assert spans.self_times(recs) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(recs)) == 10.0


@pytest.fixture
def traced_round():
    tracer = spans.Tracer().install()
    try:
        with tracer.span(spans.ROOT):
            model = experiments.waterwave_model("waterwave")
            experiments.waterwave_assemble(model, 8)
            experiments.waterwave_assemble(model, 8)
            fam = [operators.toeplitz_potential(operators.two_cos_coeff,
                                                core.truncated_block(1, M))
                   for M in (4, 8, 16)]
            core.estimate_order(fam, decay_grid=(0,), order_grid=(0.0, 1.0))
    finally:
        tracer.uninstall()
    return tracer


def test_layer_self_times_account_for_the_round(traced_round):
    m = traced_round.layer_metrics()
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert math.isclose(total, m["trace.run_s"], rel_tol=1e-9)
    assert m["experiments.assemble_calls"] == 2
    assert m["experiments.assemble_useful_ratio"] == 0.5
    assert m["core.order_grid_points"] == 2 * 4 * 1 * 3
    assert m["core.estimate_order_s"] > 0


def test_coefficient_evaluations_counted_at_assembly(traced_round):
    m = traced_round.layer_metrics()
    # alias shells 0 and 1 on K = 8, twice: 3 * 8 distinct differences;
    # then 9^2 + 17^2 + 33^2 Toeplitz entries with differences in -32..32
    ww = 2 * 3 * 8 * 8
    toeplitz = 9 ** 2 + 17 ** 2 + 33 ** 2
    assert m["operators.coeff_evals"] == ww + toeplitz
    distinct = 3 * 8 + 65
    assert m["operators.coeff_useful_ratio"] == distinct / (ww + toeplitz)


def test_import_sites_wrapped_and_restored():
    original = core.periodic_block
    tracer = spans.Tracer().install()
    try:
        assert experiments.periodic_block is not original
        assert experiments.periodic_block is core.periodic_block
        assert spectral.periodic_block is core.periodic_block
    finally:
        tracer.uninstall()
    assert experiments.periodic_block is original
    assert core.periodic_block is original


def test_nested_coefficient_evaluation_counts_once():
    tracer = spans.Tracer()
    inner = tracer._counted(operators.cos_coeff)
    outer = tracer._counted(lambda *k: 2.0 * inner(*k))
    assert tracer._counted(outer) is outer
    assert outer(1) == 1.0 and outer(1) == 1.0 and outer(2) == 0.0
    assert tracer.counts["coeff_evals"] == 3
    assert len(tracer.distinct["coeff"]) == 2
