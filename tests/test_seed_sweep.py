"""scripts/seed_sweep.py: per-gate pass counts and output digests over a
seed range."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
from pathlib import Path

import pytest

from pdmat import cli

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
    runner = cli.RUNNERS["approx_rates"]

    def flaky(cfg):
        if cfg.seed == 2:
            raise RuntimeError("boom")
        return runner(cfg)

    monkeypatch.setitem(cli.RUNNERS, "approx_rates", flaky)
    assert seed_sweep.main([CONFIG, "--seeds", "1-3"]) == 1
    out = capsys.readouterr().out.splitlines()[1:]
    assert len(out) == 6
    assert all(line.endswith("passed 2/3  failed at seeds [2]") for line in out[:3])
    assert [line.split()[3] for line in out[3:]] == ["1", "2", "3"]
