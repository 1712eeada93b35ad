import numpy as np
import pytest

import compare
import common
import reference
import workloads
from pdmat import reporting


@pytest.mark.parametrize("workload", ["waterwave", "calculus"])
def test_reference_builders_match_program_small(workload):
    if workload == "waterwave":
        prog, ref = workloads.reference_waterwave(period=8)
    else:
        prog, ref = workloads.reference_calculus(radius=2)
    ok, err = reference.agree(prog, ref, workloads.CHECK_RTOL)
    assert ok, err


def test_growth_reference_matches_program_small(monkeypatch):
    monkeypatch.setattr(workloads, "GROWTH_CHECK", {"horizon": 0.05, "delta": 0.01})
    prog, ref = workloads.reference_growth(seed=3, period=8)
    assert reference.agree(prog, ref, workloads.CHECK_RTOL)[0]


def test_wrong_reference_output_is_a_failed_operation():
    prog, ref = workloads.reference_calculus(radius=2)
    wrong = prog.copy()
    wrong[3, 4] += 1e-6
    op = workloads.check_reference("calculus", wrong, ref)
    assert not op["ok"]
    assert common.tally([[op]])[:2] == (1, 1)


def test_failed_gate_is_a_failed_operation(tmp_path):
    reporting.write_csv(tmp_path / "results.csv", ("a",), [{"a": 1.0}], "x")
    reporting.write_json(tmp_path / "fits.json", {})
    reporting.write_manifest(str(tmp_path), "x", {}, {"gate": False, "other": True},
                             "ok", "0")
    op = workloads.check_run("x", tmp_path, 0)
    assert not op["ok"] and "gate" in op["detail"]
    reporting.write_manifest(str(tmp_path), "x", {}, {"gate": True}, "ok", "0")
    assert workloads.check_run("x", tmp_path, 0)["ok"]


def test_output_differing_between_repetitions_is_a_failed_operation():
    rounds = [[workloads.op("a", True, digest="1"), workloads.op("b", True)],
              [workloads.op("a", True, digest="2"), workloads.op("b", True)],
              [workloads.op("a", True, digest="1"), workloads.op("b", False)]]
    attempted, failed, problems = common.tally(rounds)
    assert (attempted, failed) == (6, 2)
    assert "round 1: a" in problems[0] and "round 2: b" in problems[1]


def test_quartiles_and_verdicts():
    q = common.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == (1.5, 3.0, 4.5)
    base = (0.99, 1.0, 1.01)
    assert compare.verdict(base, (1.09, 1.1, 1.11), 0.15, "lower")[0] == "within"
    assert compare.verdict(base, (1.19, 1.2, 1.21), 0.15, "lower")[0] == "worse"
    assert compare.verdict(base, (0.5, 1.2, 2.0), 0.15, "lower")[0] == "unresolved"
    assert compare.verdict(base, (0.79, 0.8, 0.81), 0.15, "higher")[0] == "worse"


def test_seeded_inputs_repeat():
    a = reference.growth_initial_state(8, 5)
    assert np.array_equal(a, reference.growth_initial_state(8, 5))
    assert not np.array_equal(a, reference.growth_initial_state(8, 6))
