"""scripts/seed_sweep.py: per-gate pass counts and output digests over a
seed range."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from pdmat import cli, reporting

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "approx_rates.cfg")

_spec = importlib.util.spec_from_file_location("seed_sweep",
                                               ROOT / "scripts" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def test_parse_seeds():
    assert seed_sweep.parse_seeds("3") == [3]
    assert seed_sweep.parse_seeds("1-4") == [1, 2, 3, 4]
    with pytest.raises(argparse.ArgumentTypeError):
        seed_sweep.parse_seeds("5-2")


def test_every_gate_counted_over_the_seeds(tmp_path, capsys):
    assert seed_sweep.main([CONFIG, "--seeds", "1-2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seeds 1-2 (2 runs per config)"
    assert [line.split()[0] for line in out[1:4]] == [
        "approx_rates.fd_rate_near_1", "approx_rates.mult_rate_near_2",
        "approx_rates.run_status"]
    assert all(line.endswith("passed 2/2") for line in out[1:4])
    assert [line.split()[:4] for line in out[4:]] == [
        ["sha256", "approx_rates", "seed", "1"],
        ["sha256", "approx_rates", "seed", "2"]]
    # the digest covers results.csv, then fits.json, of the seed's run
    cli.run(cli.load_config(CONFIG), tmp_path)
    expected = hashlib.sha256((tmp_path / "results.csv").read_bytes() +
                              (tmp_path / "fits.json").read_bytes()).hexdigest()
    assert out[4].split()[-1] == expected


def test_a_run_that_stops_fails_every_gate_at_its_seed(monkeypatch, capsys):
    record = cli.EXPERIMENTS["approx_rates"]

    def flaky(cfg):
        if cfg.seed == 2:
            raise RuntimeError("boom")
        return record.runner(cfg)

    monkeypatch.setitem(cli.EXPERIMENTS, "approx_rates",
                        dataclasses.replace(record, runner=flaky))
    assert seed_sweep.main([CONFIG, "--seeds", "1-3"]) == 1
    out = capsys.readouterr().out.splitlines()[1:]
    assert len(out) == 6
    assert all(line.endswith("passed 2/3  failed at seeds [2]") for line in out[:3])
    assert [line.split()[3] for line in out[3:]] == ["1", "2", "3"]


def test_gate_lines_give_the_margin_distribution_over_the_seeds(tmp_path, monkeypatch,
                                                               capsys):
    record = cli.EXPERIMENTS["approx_rates"]

    def with_probe(cfg):
        rows, fits, gates = record.runner(cfg)
        margin = {1: 0.5, 2: -0.25, 3: 2.0, 4: -0.25}[cfg.seed]
        gates["probe"] = {"measured": 1.0 - margin, "bound": 1.0,
                          "margin": margin, "ok": margin >= 0}
        return rows, fits, gates

    monkeypatch.setitem(cli.EXPERIMENTS, "approx_rates",
                        dataclasses.replace(record, runner=with_probe))
    assert seed_sweep.main([CONFIG, "--seeds", "1-4"]) == 1
    out = capsys.readouterr().out.splitlines()
    lines = {line.split()[0]: line for line in out[1:5]}
    # the smallest margin, the first seed with it, and the median of all four
    assert " margin min -0.25 (seed 2) median 0.125 " in lines["approx_rates.probe"]
    assert lines["approx_rates.probe"].endswith("passed 2/4  failed at seeds [2, 4]")
    assert " margin - " in lines["approx_rates.run_status"]
    # a real gate reports the margin its manifest records (the fd rate reads
    # the same at every seed, so its minimum is first met at seed 1)
    cli.run(cli.load_config(CONFIG), tmp_path)
    fd = reporting.read_manifest(tmp_path)["gates"]["fd_rate_near_1"]["margin"]
    assert f" margin min {fd:.4g} (seed 1) median {fd:.4g} " in \
        lines["approx_rates.fd_rate_near_1"]


def test_check_passes_a_matching_digest_and_names_a_wrong_one(tmp_path, capsys):
    cli.run(cli.load_config(CONFIG), tmp_path / "run")
    digest = seed_sweep.output_digest(tmp_path / "run")
    wrong = "0" * 64
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"digests": {"approx_rates": {"1": digest, "2": wrong}},
                                  "environment": seed_sweep.environment()}))
    assert seed_sweep.main([CONFIG, "--seeds", "1", "--check", str(golden)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"1 digests match {golden}"
    assert seed_sweep.main([CONFIG, "--seeds", "1-2", "--check", str(golden)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("MISMATCH")] == [
        f"MISMATCH approx_rates seed 2: golden {wrong}, got {out[-4].split()[-1]}"]
    assert out[-2].startswith("golden environment ")
    assert out[-1].startswith("current environment ")


def test_record_merges_digests_with_the_environment(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert seed_sweep.main([CONFIG, "--seeds", "1", "--record", str(golden)]) == 0
    assert seed_sweep.main([CONFIG, "--seeds", "3", "--record", str(golden)]) == 0
    recorded = json.loads(golden.read_text())
    assert list(recorded["digests"]["approx_rates"]) == ["1", "3"]
    assert set(recorded["environment"]) == {"numpy", "blas", "blas_threads", "tridiagonal"}
    assert seed_sweep.main([CONFIG, "--seeds", "3", "--check", str(golden)]) == 0
    # digests made elsewhere are not merged under this environment's name
    recorded["environment"]["numpy"] = "0.0"
    golden.write_text(json.dumps(recorded))
    assert seed_sweep.main([CONFIG, "--seeds", "5", "--record", str(golden)]) == 1
    assert json.loads(golden.read_text()) == recorded
    assert "NOT MERGED" in capsys.readouterr().out


def test_golden_file_covers_every_config_at_seeds_1_and_17():
    golden = json.loads((ROOT / "scripts" / "golden_digests.json").read_text())
    stems = sorted(path.stem for path in (ROOT / "configs").glob("*.cfg"))
    assert sorted(golden["digests"]) == stems
    assert all(sorted(by_seed) == ["1", "17"] for by_seed in golden["digests"].values())
    assert set(golden["environment"]) == {"numpy", "blas", "blas_threads", "tridiagonal"}
