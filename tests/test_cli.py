"""Config parsing, artifact writing, determinism, and the report command."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tomllib
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdmat import cli, experiments, flows, reporting


def test_parse_config_scalars_and_arrays():
    cfg = cli.parse_config("""
# a comment
experiment = "sobolev_growth"  # the #3 run
K_list = [32, 64]
seed = 7
horizon = 25.5
probes = ["growth_rho0"]  # one "probe"
""")
    assert cfg.experiment == "sobolev_growth"
    assert cfg.K_list == (32, 64)
    assert cfg.seed == 7
    assert cfg.horizon == 25.5
    assert cfg.probes == ("growth_rho0",)
    # a # inside a string is part of it, and the comment after it is dropped
    with pytest.raises(cli.ConfigError, match="got 'runs/#3'$"):
        cli.parse_config('experiment = "runs/#3"  # the third run')


def test_parse_config_wraps_a_single_value_of_a_list_field():
    cfg = cli.parse_config('experiment = "waterwave"\nprobes = "waterwave"\n'
                           "s_list = 2.0")
    assert cfg.probes == ("waterwave",)
    assert cfg.s_list == (2.0,)


def test_parse_config_reads_escapes_and_multiline_arrays():
    cfg = cli.parse_config('''experiment = "water\\u0077ave"
probes = [
    "water\\u0077ave",
    "waterwave_rough",  # the rough bottom
]
K_list = [
    32,
    64,  # the finest level
]
''')
    assert cfg.experiment == "waterwave"
    assert cfg.probes == ("waterwave", "waterwave_rough")
    assert cfg.K_list == (32, 64)
    with pytest.raises(cli.ConfigError, match=re.escape("""'water"wave"'""")):
        cli.parse_config('experiment = "waterwave"\nprobes = "water\\"wave\\""')


@pytest.mark.parametrize("text", [
    'experiment = "waterwave"\nK_list = [32, 64',
    "experiment = waterwave",
    'experiment = "waterwave"\nhorizon = .5',
    'experiment = "waterwave"\nseed = 01',
])
def test_malformed_toml_is_a_config_error(text, tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="not valid TOML"):
        cli.parse_config(text)
    (tmp_path / "bad.cfg").write_text(text)
    assert cli.main(["run", str(tmp_path / "bad.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error: not valid TOML")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b'experiment = "order_gain"  # caf\xff\n')
    with pytest.raises(cli.ConfigError, match="not UTF-8"):
        cli.load_config(path)
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: not UTF-8")


def test_a_step_count_that_overflows_is_a_config_error(tmp_path, capsys):
    # horizon / delta = 1e318 is no float, and round() of it raised
    text = 'experiment = "sobolev_growth"\nhorizon = 1e308\ndelta = 1e-10\n'
    with pytest.raises(cli.ConfigError, match="horizon 1e[+]308 over delta 1e-10"):
        cli.parse_config(text)
    (tmp_path / "overflow.cfg").write_text(text)
    assert cli.main(["run", str(tmp_path / "overflow.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error: horizon")


def test_a_step_count_over_the_ceiling_is_a_config_error(tmp_path, capsys):
    # 1e305 steps is a finite float, but no run could size or loop over it
    text = 'experiment = "sobolev_growth"\nhorizon = 1e300\ndelta = 1e-5\n'
    with pytest.raises(cli.ConfigError,
                       match="horizon 1e[+]300 over delta 1e-05 is 1e[+]305 steps"):
        cli.parse_config(text)
    (tmp_path / "huge.cfg").write_text(text)
    assert cli.main(["run", str(tmp_path / "huge.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error: horizon")
    assert 5000 <= cli.MAX_STEPS   # the shipped run takes 5,000 steps
    at_ceiling = cli.parse_config('experiment = "sobolev_growth"\n'
                                  f"horizon = {cli.MAX_STEPS / 2}\ndelta = 0.5\n")
    assert at_ceiling.horizon / at_ceiling.delta == cli.MAX_STEPS


def test_parse_config_requires_experiment():
    with pytest.raises(cli.ConfigError, match="experiment"):
        cli.parse_config("seed = 1")


def test_parse_config_unknown_key_named():
    with pytest.raises(cli.ConfigError, match="no_such_key"):
        cli.parse_config('experiment = "order_gain"\nno_such_key = 3')


def test_empty_tau_list_rejected_by_name():
    with pytest.raises(cli.ConfigError, match="tau_list"):
        cli.parse_config('experiment = "order_gain"\ntau_list = []')


def test_invalid_values_rejected():
    with pytest.raises(cli.ConfigError, match="K_list must be strictly increasing"):
        cli.parse_config('experiment = "approx_rates"\nK_list = [8, 7]')
    with pytest.raises(cli.ConfigError, match="experiment"):
        cli.parse_config('experiment = "nope"')
    with pytest.raises(cli.ConfigError, match="unknown key 'workers'"):
        cli.parse_config('experiment = "order_gain"\nworkers = 2')


@pytest.mark.parametrize("line,key", [
    ("M_list = [8, 8, 16]", "M_list"),
    ("K_list = [32, 32]", "K_list"),
    ("K_list = [2, 32]", "K_list"),
    ("tau_list = [0.1, 0.0]", "tau_list"),
    ("tau_list = [0.6]", "tau_list"),
    ("n_samples = 0", "n_samples"),
    ("sigma_max = -0.5", "sigma_max"),
    ("seed = true", "seed"),
    ("seed = -1", "seed must be a nonnegative integer"),
    ("workers = true", "workers"),
    ('probes = ["waterwave_typo"]', "probes"),
    ('probes = ["growth_rho0"]', "probes"),
    ("M_list = [8.5, 16]", "M_list"),
    ("K_list = [32, 64.0]", "K_list"),
    ('s_list = ["one"]', "s_list"),
    ('horizon = "long"', "horizon"),
    ("horizon = nan", "horizon"),
    ("horizon = inf", "horizon"),
    ("delta = nan", "delta"),
    ("delta = inf", "delta"),
    ("s_list = [nan]", "s_list"),
    ("s_list = [1.0, inf]", "s_list"),
    ("s_list = [1.0, 1.0]", "s_list entries must not repeat"),
    ('probes = ["waterwave", "waterwave"]', "probes entries must not repeat"),
    ("seed = 1\nseed = 2", "line 3: repeated key 'seed'"),
])
def test_bad_config_values_rejected_by_name(line, key):
    # each value rule is checked on an experiment that reads the key
    experiment = {"M_list": "order_gain", "horizon": "sobolev_growth",
                  "delta": "sobolev_growth"}.get(line.split()[0], "waterwave")
    with pytest.raises(cli.ConfigError, match=key):
        cli.parse_config(f'experiment = "{experiment}"\n{line}')


# the keys each experiment reads besides experiment; seed only where a run
# draws from it
READS = {
    "order_gain": {"M_list"},
    "approx_rates": {"K_list"},
    "splitting_orders": {"s_list", "seed"},
    "loss_scan": {"M_list", "K_list"},
    "waterwave": {"probes", "K_list", "s_list", "seed"},
    "schroedinger_precond": {"M_list", "s_list", "seed"},
    "sobolev_growth": {"probes", "K_list", "s_list", "horizon", "delta", "seed"},
    "invariants_suite": {"seed"},
}
# a value of each key that an experiment reading it accepts
GOOD_VALUES = {"probes": '["growth_rho0"]', "M_list": "[8, 16]",
               "K_list": "[32, 64]", "s_list": "[1.0]", "horizon": "2.0",
               "delta": "0.01", "seed": "3"}
UNREAD = [(experiment, key) for experiment, keys in READS.items()
          for key in GOOD_VALUES if key not in keys]


def test_each_experiment_reads_the_keys_of_its_record():
    assert {name: set(spec.keys) for name, spec in cli.EXPERIMENTS.items()} == READS
    assert cli.COMMON_KEYS == ("experiment",)
    # 7 settable keys (all but experiment) for each of 8 experiments
    assert len(UNREAD) == 7 * 8 - 20


@pytest.mark.parametrize("experiment,key", UNREAD)
def test_a_key_the_experiment_does_not_read_is_rejected_by_name(experiment, key):
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(f'experiment = "{experiment}"\n{key} = {GOOD_VALUES[key]}')
    assert str(exc.value).startswith(f"key {key!r} is not read by {experiment} ")


@pytest.mark.parametrize("experiment", READS)
def test_every_key_an_experiment_reads_is_accepted(experiment):
    probes = '["waterwave"]' if experiment == "waterwave" else GOOD_VALUES["probes"]
    values = GOOD_VALUES | {"probes": probes}
    cfg = cli.parse_config("\n".join(
        [f'experiment = "{experiment}"'] +
        [f"{key} = {values[key]}" for key in sorted(READS[experiment])]))
    assert cfg.seed == (3 if "seed" in READS[experiment] else 1)


@pytest.mark.parametrize("experiment,line,key", [
    ("order_gain", 'probes = ["waterwave"]', "probes"),
    ("sobolev_growth", 'probes = ["waterwave"]', "probes"),
    ("order_gain", "M_list = [2, 4]", "M_list"),
    ("schroedinger_precond", "M_list = [2, 3]", "M_list"),
    ("splitting_orders", "M_list = [0, 16]", "M_list"),
    ("sobolev_growth", "horizon = 1.0", "horizon"),
    ("sobolev_growth", "horizon = nan", "horizon"),
    ("sobolev_growth", "horizon = inf", "horizon"),
    ("sobolev_growth", "s_list = [-1.0, 0.0]", "s_list"),
    ("waterwave", "s_list = [-1.0, 0.0]", "s_list"),
    ("schroedinger_precond", "s_list = [-1.0, 0.0]", "s_list"),
    ("splitting_orders", "s_list = [-1.0, 0.0]", "s_list"),
])
def test_values_an_experiment_cannot_run_rejected_by_name(experiment, line, key):
    with pytest.raises(cli.ConfigError, match=key):
        cli.parse_config(f'experiment = "{experiment}"\n{line}')


@pytest.mark.parametrize("experiment", ["order_gain", "schroedinger_precond"])
def test_single_radius_rejected_for_order_certification(experiment):
    with pytest.raises(cli.ConfigError, match="M_list"):
        cli.parse_config(f'experiment = "{experiment}"\nM_list = [16]')


@pytest.mark.parametrize("experiment,line,key", [
    ("loss_scan", "M_list = [16]", "M_list"),
    ("loss_scan", "K_list = [32]", "K_list"),
    ("waterwave", "K_list = [32]", "K_list"),
    ("sobolev_growth", "K_list = [32]", "K_list"),
    ("approx_rates", "K_list = [32]", "K_list"),
])
def test_single_refinement_level_rejected_by_name(experiment, line, key):
    with pytest.raises(cli.ConfigError, match=key):
        cli.parse_config(f'experiment = "{experiment}"\n{line}')


@pytest.mark.parametrize("line", [
    "fit_band = 100.0", "algebra_tol = 1.0", "unitary_tol = 1.0",
    "loss_theta = 100.0", "order_theta = 100.0", "growth_tol = 10.0",
    "tau_star = 0.01", "mu = 0.5",
])
def test_gate_bounds_cannot_be_set_from_config(line):
    key = line.split()[0]
    with pytest.raises(cli.ConfigError, match=f"unknown key '{key}'"):
        cli.parse_config(f'experiment = "splitting_orders"\n{line}')


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parents[1] / "configs").glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_config_loads_and_validates(path):
    cfg = cli.load_config(path)
    assert cfg.experiment == path.stem
    assert cfg.validate() is cfg


def test_readme_key_table_lists_exactly_the_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `(\w+)` \| (.*?) \| .*? \| (.*?) \|$", readme,
                       flags=re.MULTILINE)
    fields = dataclasses.fields(cli.ExperimentConfig)
    assert [key for key, _, _ in table] == [f.name for f in fields]
    assert f"these {len(fields)} keys, each read by the experiments" in readme
    for (key, read_by, default), field in zip(table, fields):
        # the "read by" column names the experiments whose record reads the key
        readers = {name for name, spec in cli.EXPERIMENTS.items()
                   if key in cli.COMMON_KEYS + spec.keys}
        assert (set(cli.EXPERIMENTS) if read_by == "all" else
                set(re.findall(r"`(\w+)`", read_by))) == readers, key
        # the "default" column is the field's default, written as TOML
        if field.default is dataclasses.MISSING:
            assert default == "required", key
            continue
        value = tomllib.loads(f"v = {default.strip('`')}")["v"]
        assert repr(tuple(value) if isinstance(value, list) else value) == \
            repr(field.default), key


def _passing_waterwave_study():
    """What waterwave_noloss_study returns for one Strang slope that holds."""
    return {"slopes": {("strang", 1.0): flows.FitResult(3.0, 0.0, 0.0, 7)},
            "loss": {"strang": flows.LossReport(0.0, True, [])},
            "symplectic_defect": {"strang": 0.0}, "energy_drift": {"strang": 0.0},
            "b0_control": 0.0, "error_rows": []}


def test_stability_warning_keeps_waterwave_gates(monkeypatch):
    def study(model, *args, **kwargs):
        warnings.warn("propagator norm bound at s=1 not stable across "
                      "periods: [1.0, 1.2]")
        return _passing_waterwave_study()
    monkeypatch.setattr(experiments, "waterwave_noloss_study", study)
    cfg = cli.parse_config('experiment = "waterwave"\ns_list = [1.0]')
    with pytest.warns(UserWarning, match="propagator norm bound at s=1"):
        _, _, gates = cli.run_waterwave(cfg)
    assert gates["waterwave_strang_s1_slope"]["ok"]
    assert gates["waterwave_strang_no_loss"]["ok"]


def test_approx_rates_runs_every_period_given(tmp_path):
    cfg = cli.parse_config('experiment = "approx_rates"\nK_list = [16, 32]')
    cli.run(cfg, tmp_path)
    _, _, rows = reporting.read_csv(tmp_path / "results.csv")
    for probe in ("fd", "mult"):
        assert sorted({int(r["K"]) for r in rows if r["probe"] == probe}) == [16, 32]


@pytest.mark.parametrize("experiment", ["loss_scan", "waterwave"])
def test_every_period_reaches_the_study(experiment, monkeypatch):
    periods = []

    def assemble(model, K):
        periods.append(K)
        return types.SimpleNamespace(system=lambda schemes: None)

    def study(model, K_list, *args, **kwargs):
        periods.extend(K_list)
        return _passing_waterwave_study()
    loss = flows.LossReport(0.0, True, [])
    monkeypatch.setattr(experiments, "waterwave_assemble", assemble)
    monkeypatch.setattr(experiments, "waterwave_noloss_study", study)
    monkeypatch.setattr(flows, "loss_scan",
                        lambda *args, **kwargs: {"lie": loss, "strang": loss})
    cli.EXPERIMENTS[experiment].runner(cli.parse_config(
        f'experiment = "{experiment}"\nK_list = [8, 16, 32, 64]'))
    assert periods == [8, 16, 32, 64]


@pytest.mark.parametrize("experiment,lines,s0_gates", [
    ("waterwave", 'probes = ["waterwave", "waterwave_rough"]\ns_list = [0, 1, 2, 3]',
     ["waterwave_rough_strang_s0_slope", "waterwave_strang_s0_slope"]),
    ("schroedinger_precond", "s_list = [0, 2]", ["precond_slope_s0"]),
    ("sobolev_growth", "K_list = [8, 16, 32]\ns_list = [0, 1]\nhorizon = 1.5\n"
     "delta = 0.05", ["growth_rho0_ratio_stable_s0", "growth_rhom1_exponent_s0_K16",
                      "growth_rhom1_exponent_s0_K8"]),
], ids=["waterwave", "schroedinger_precond", "sobolev_growth"])
def test_an_s0_entry_runs_and_is_gated(experiment, lines, s0_gates, tmp_path):
    """s = 0, the l2 norm, is a Sobolev index like any other: its rows are
    written and its gates hold."""
    cfg = cli.parse_config(f'experiment = "{experiment}"\n{lines}')
    assert cli.run(cfg, tmp_path) == 0
    gates = reporting.read_manifest(tmp_path)["gates"]
    assert sorted(name for name in gates if "_s0" in name) == s0_gates
    _, _, rows = reporting.read_csv(tmp_path / "results.csv")
    assert {float(r["s"]) for r in rows if r["s"]} == set(cfg.s_list)


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_manifest_config_lists_the_keys_the_experiment_reads(experiment, tmp_path,
                                                             monkeypatch):
    spec = cli.EXPERIMENTS[experiment]
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, dataclasses.replace(
        spec, runner=lambda cfg: ([], {}, {})))
    seeded = "seed" in spec.keys
    cfg = cli.parse_config(f'experiment = "{experiment}"' + "\nseed = 5" * seeded)
    cli.run(cfg, tmp_path)
    config = reporting.read_manifest(tmp_path)["config"]
    assert set(config) == set(cli.COMMON_KEYS + spec.keys)
    assert config["experiment"] == experiment
    assert config.get("seed") == (5 if seeded else None)


def test_uncertified_schroedinger_loss_fails_at_the_target_sigma(monkeypatch):
    # both scans stop at their target sigma but are not certified
    def study(*args, **kwargs):
        def loss(sigma):
            return flows.LossReport(sigma, False, [])
        return {"homological_defect": 0.0, "telescoping_defect": 0.0,
                "remainder_order": -3.0,
                "loss_preconditioned": loss(0.0), "loss_baseline": loss(1.0),
                "slopes": {}, "error_rows": []}
    monkeypatch.setattr(experiments, "preconditioned_lie_study", study)
    cfg = cli.parse_config('experiment = "schroedinger_precond"\ns_list = [2.0]')
    _, fits, gates = cli.run_schroedinger_precond(cfg)
    assert fits["sigma_hat_preconditioned"] == 0.0
    assert fits["sigma_hat_baseline"] == 1.0
    for name in ("preconditioned_no_loss", "baseline_loses_one"):
        assert gates[name] == {"measured": None, "bound": gates[name]["bound"],
                               "margin": None, "ok": False}
    assert gates["remainder_order_le_m2"]["ok"]


def test_gate_records_measured_bound_margin_and_ok():
    assert cli._gate(None, 0.25) == {"measured": None, "bound": 0.25,
                                     "margin": None, "ok": False}
    assert cli._gate(1.0, 1.0)["ok"] and not cli._gate(1.0, 1.0, "<")["ok"]
    assert cli._gate(1.0, 1.0, "<")["margin"] == 0.0
    held = cli._gate(2.0, 2.0, "==")
    assert held["ok"] and math.copysign(1.0, held["margin"]) == 1.0
    missed = cli._gate(1.5, 2.0, "==")
    assert not missed["ok"] and missed["margin"] == -0.5
    failed = cli._gate(0.3, 0.25)
    assert not failed["ok"] and failed["margin"] == pytest.approx(-0.05)
    assert cli._gate(0.2, 0.25) == {"measured": 0.2, "bound": 0.25,
                                    "margin": 0.25 - 0.2, "ok": True}
    # approx_rates gates abs(nan - 1) when the fd rate has no fit
    nan = cli._gate(abs(math.nan - 1.0), 0.25)
    assert not nan["ok"] and math.isnan(nan["margin"])
    assert type(cli._gate(np.float64(0.1), 0.25)["ok"]) is bool


def test_slope_gates_carry_the_fit_health():
    fit = flows.FitResult(2.1, -0.5, 0.03, 6, 1)
    gate = cli._band(fit, 2.0)
    assert gate == {**cli._gate(abs(2.1 - 2.0), cli.FIT_BAND), "residual": 0.03,
                    "n_points": 6, "n_dropped": 1}
    assert cli._band(None, 2.0) == {**cli._gate(None, cli.FIT_BAND),
                                    "residual": None, "n_points": None,
                                    "n_dropped": None}


def test_manifest_slope_gates_match_the_fits(tmp_path):
    cfg = cli.parse_config('experiment = "splitting_orders"\ns_list = [0.0, 1.0]\n')
    cli.run(cfg, tmp_path)
    gates = reporting.read_manifest(tmp_path)["gates"]
    fits = json.loads((tmp_path / "fits.json").read_text())
    for label in ("lie_s0", "lie_s1", "strang_s0", "strang_s1"):
        gate = gates[f"{label}_slope"]
        assert gate["residual"] == fits[label]["residual"]
        assert gate["n_points"] + gate["n_dropped"] == len(flows.TAU_LIST)


@pytest.mark.parametrize("cfg_text,band", [
    ('experiment = "order_gain"\nM_list = [8, 16]\n', 0.25),
    ('experiment = "splitting_orders"\ns_list = [0.0, 1.0]\n', 0.001)],
    ids=["order_gain", "splitting_orders_broken_band"])
def test_manifest_passes_are_the_gate_records_ok(tmp_path, monkeypatch,
                                                 cfg_text, band):
    monkeypatch.setattr(cli, "FIT_BAND", band)
    cli.run(cli.parse_config(cfg_text), tmp_path)
    manifest = reporting.read_manifest(tmp_path)
    gates = manifest["gates"]
    assert gates and manifest["passes"] == {n: g["ok"] for n, g in gates.items()}
    health = {"residual", "n_points", "n_dropped"}
    for name, gate in gates.items():
        slope = name.endswith("_slope")
        assert set(gate) == {"measured", "bound", "margin", "ok"} | \
            (health if slope else set())
        assert (gate["margin"] is not None and gate["margin"] >= 0) == gate["ok"]
    if band < 0.25:
        assert not all(manifest["passes"].values())


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
    reporting.write_csv(path, ("a", "b"), rows, "unit")
    schema, columns, parsed = reporting.read_csv(path)
    assert "pdmat-results-v1" in schema
    assert columns == ["a", "b"]
    assert parsed[0]["b"] == "0.5"
    assert parsed[1]["b"] == ""


def test_csv_writes_numpy_scalars_by_value(tmp_path):
    # under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)"
    path = tmp_path / "t.csv"
    rows = [{"a": np.int64(3), "b": np.float64(0.5), "c": np.bool_(True)},
            {"a": np.int64(-1), "b": np.float64("inf"), "c": np.bool_(False)},
            {"a": 0, "b": np.float64("nan"), "c": False},
            {"a": -math.inf, "b": np.float64("-inf"), "c": ""}]
    reporting.write_csv(path, ("a", "b", "c"), rows, "unit")
    _, _, parsed = reporting.read_csv(path)
    assert parsed == [{"a": "3", "b": "0.5", "c": "True"},
                      {"a": "-1", "b": "inf", "c": "False"},
                      {"a": "0", "b": "nan", "c": "False"},
                      {"a": "-inf", "b": "-inf", "c": ""}]


def test_csv_bytes_are_the_documented_text(tmp_path):
    """The exact bytes of a table: the schema line, the header, \\n line
    ends, an empty cell for None, a missing key and "", each numpy scalar and
    float by its shortest round-trip text; read_csv gives those cells back."""
    path = tmp_path / "t.csv"
    rows = [{"a": np.int64(-3), "b": np.float64(0.1), "c": np.bool_(True), "d": None},
            {"a": 7, "b": math.inf, "c": "", "d": np.float64(-math.inf)},
            {"a": -0.0, "b": np.float64(math.nan), "c": 1e-300},
            {"b": 2.5, "c": False, "d": np.float64(-0.0)}]
    reporting.write_csv(path, ("a", "b", "c", "d"), rows, "unit")
    assert path.read_bytes() == (
        b"# schema: pdmat-results-v1 experiment: unit\n"
        b"a,b,c,d\n"
        b"-3,0.1,True,\n"
        b"7,inf,,-inf\n"
        b"-0.0,nan,1e-300,\n"
        b",2.5,False,-0.0\n")
    schema, columns, parsed = reporting.read_csv(path)
    assert schema == "# schema: pdmat-results-v1 experiment: unit"
    assert columns == ["a", "b", "c", "d"]
    assert parsed == [{"a": "-3", "b": "0.1", "c": "True", "d": ""},
                      {"a": "7", "b": "inf", "c": "", "d": "-inf"},
                      {"a": "-0.0", "b": "nan", "c": "1e-300", "d": ""},
                      {"a": "", "b": "2.5", "c": "False", "d": "-0.0"}]


def test_csv_one_column_empty_cell_is_quoted(tmp_path):
    # csv quotes a lone empty cell, so that the row is not a blank line
    path = tmp_path / "t.csv"
    reporting.write_csv(path, ("a",), [{"a": None}, {"a": 1.0}], "unit")
    assert path.read_bytes().splitlines()[2:] == [b'""', b"1.0"]
    assert reporting.read_csv(path)[2] == [{"a": ""}, {"a": "1.0"}]


@pytest.mark.parametrize("periods,levels", [(1, [8]), (3, [8, 16, 32]),
                                            (None, [8, 16, 32])])
def test_growth_probe_periods_come_from_the_registry(tmp_path, monkeypatch, capsys,
                                                     periods, levels):
    """The number of leading K_list periods that GROWTH_PROBES gives a probe
    is the number its study runs, its exponent gates name those K, and
    list-probes prints it.  The shipped registry gives growth_rhom1 two."""
    desc, rho, shipped = experiments.GROWTH_PROBES["growth_rhom1"]
    assert shipped == 2
    monkeypatch.setitem(experiments.GROWTH_PROBES, "growth_rhom1", (desc, rho, periods))
    assert cli.main(["list-probes"]) == 0
    note = "" if periods is None else f" (first {periods} periods of K_list)"
    assert f"    growth_rhom1: {desc}{note}\n" in capsys.readouterr().out
    cfg = cli.parse_config('experiment = "sobolev_growth"\nprobes = ["growth_rhom1"]\n'
                           'K_list = [8, 16, 32]\ns_list = [1.0]\nhorizon = 1.5\n'
                           'delta = 0.05\n')
    cli.run(cfg, tmp_path)
    gates = reporting.read_manifest(tmp_path)["gates"]
    assert sorted(name for name in gates if "_exponent_" in name) == \
        sorted(f"growth_rhom1_exponent_s1_K{K}" for K in levels)
    _, _, rows = reporting.read_csv(tmp_path / "results.csv")
    assert sorted({int(r["level"]) for r in rows}) == levels


@pytest.mark.parametrize("cfg_text", [
    'experiment = "order_gain"\nM_list = [8, 16, 32]\n',
    'experiment = "sobolev_growth"\nseed = 1\nK_list = [32, 64]\nhorizon = 2.0\n'],
    ids=["order_gain", "sobolev_growth"])
def test_run_is_deterministic(tmp_path, monkeypatch, cfg_text):
    """Two runs on two cores, where the growth study forks its pool, and one
    forced serial write the same bytes."""
    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "serial"]
    for out, n in zip(outs, (2, 2, 1)):
        monkeypatch.setattr(experiments, "_usable_cores", lambda: n)
        assert cli.run(cli.parse_config(cfg_text), out) == 0
    for name in ("results.csv", "fits.json"):
        assert len({(out / name).read_bytes() for out in outs}) == 1


def run_python(code: str) -> str:
    """The last line the code prints, run in a fresh interpreter with pdmat's
    src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_importing_the_cli_loads_no_scipy_and_no_process_pool():
    """The process pool modules load only when a growth study needs them, and
    scipy never: LAPACK stevd comes from numpy's OpenBLAS (pdmat._lapack)."""
    assert run_python(
        "import sys, pdmat.cli; print(sorted(m for m in sys.modules if m.split('.')[0]"
        " in ('scipy', 'multiprocessing', 'concurrent')))") == "[]"


def test_flow_and_pooled_growth_runs_load_no_scipy(tmp_path):
    """A splitting_orders run (stevd through flows.hermitian_eigh) and a
    2-core sobolev_growth study (stevd in every pool child's growth steps)
    leave no scipy module loaded, in the parent or in a child."""
    code = f"""
import os, sys
from pdmat import cli, experiments
experiments._usable_cores = lambda: 2
trajectory = experiments.growth_trajectory
experiments.growth_trajectory = lambda *job: {{
    **trajectory(*job), "child": os.getpid(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}
children = []
_growth_result = experiments._growth_result
experiments._growth_result = lambda *args: children.extend(args[-1]) or _growth_result(*args)
assert cli.run(cli.parse_config('experiment = "splitting_orders"\\n'),
               {str(tmp_path / "flows")!r}) == 0
assert cli.run(cli.parse_config('experiment = "sobolev_growth"\\nK_list = [16, 32]\\n'
                                'horizon = 2.0\\n'), {str(tmp_path / "growth")!r}) == 0
# two probes, each with two periods and a Richardson pair
assert len(children) == 8 and os.getpid() not in {{tr["child"] for tr in children}}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      sorted({{m for tr in children for m in tr["scipy"]}}))
"""
    assert run_python(code) == "[] []"


def test_manifest_lists_all_files_with_hashes(tmp_path):
    cfg = cli.parse_config('experiment = "order_gain"\nM_list = [8, 16]\n')
    cli.run(cfg, tmp_path)
    manifest = reporting.read_manifest(tmp_path)
    assert set(manifest) == set(reporting.MANIFEST_KEYS)
    assert set(manifest["files"]) == {"results.csv", "fits.json"}
    for name, digest in manifest["files"].items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert manifest["config"] == {"experiment": "order_gain", "M_list": [8, 16]}
    assert manifest["status"] == "ok"


def test_run_splitting_orders_small(tmp_path):
    cfg = cli.parse_config('experiment = "splitting_orders"\ns_list = [1.0]\n'
                           'seed = 2\n')
    rc = cli.run(cfg, tmp_path)
    assert rc == 0
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert abs(fits["lie_s1"]["slope"] - 2.0) <= 0.25
    assert abs(fits["strang_s1"]["slope"] - 3.0) <= 0.25


def test_shipped_splitting_orders_factors_each_generator_once(monkeypatch):
    # B for the split flows and A + B for the exact flow, shared by both
    # schemes; A is diagonal and flows entrywise, and both tridiagonal
    # generators factor through stevd, not np.linalg.eigh
    calls = []
    factor = flows.hermitian_eigh
    monkeypatch.setattr(flows, "hermitian_eigh",
                        lambda a: calls.append(a.shape) or factor(a))
    cli.run_splitting_orders(cli.load_config(
        Path(__file__).parents[1] / "configs" / "splitting_orders.cfg"))
    assert calls == [(129, 129)] * 2


def test_broken_tolerance_fails_with_measured_slope(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(cli, "FIT_BAND", 0.001)
    cfg = cli.parse_config('experiment = "splitting_orders"\ns_list = [1.0]\n')
    rc = cli.run(cfg, tmp_path)
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    rc = cli.report(tmp_path)
    assert rc == 1
    out = capsys.readouterr().out
    gate = reporting.read_manifest(tmp_path)["gates"]["lie_s1_slope"]
    assert gate["bound"] == 0.001 and gate["margin"] < 0 and not gate["ok"]
    assert (f"FAIL lie_s1_slope  measured {gate['measured']:.6g}  bound 0.001  "
            f"margin {gate['margin']:.6g}  residual {gate['residual']:.6g}  "
            f"n_points {gate['n_points']}  n_dropped {gate['n_dropped']}") in out


def test_report_missing_dir_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        cli.report(tmp_path / "nope")


def test_report_on_a_missing_or_broken_manifest_is_an_error(tmp_path, capsys):
    # status 2, not the 1 of a failed gate
    assert cli.main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: no manifest.json")
    (tmp_path / "manifest.json").write_text('{"experiment": "order_g')
    assert cli.main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json is not valid JSON" in err
    # valid JSON, but not a run manifest
    (tmp_path / "manifest.json").write_text("[1, 2]")
    assert cli.main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json is not a JSON object" in err
    (tmp_path / "manifest.json").write_text('{"experiment": "x"}')
    assert cli.main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a run manifest: no config, code_" in err


def test_report_writes_dat_files(tmp_path, capsys):
    cfg = cli.parse_config('experiment = "splitting_orders"\ns_list = [1.0]\n'
                           'seed = 2\n')
    cli.run(cfg, tmp_path)
    assert cli.report(tmp_path) == 0
    dats = [f for f in os.listdir(tmp_path) if f.endswith(".dat")]
    assert dats
    lines = (tmp_path / dats[0]).read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) > 3


def test_main_entry_points(tmp_path, capsys, monkeypatch):
    assert cli.main(["list-probes"]) == 0
    out = capsys.readouterr().out
    assert "waterwave_rough" in out and "schrodinger" not in out
    assert [line for line in out.splitlines() if not line.startswith("  ")] == [
        "experiments:"]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text('experiment = "order_gain"\nM_list = [8, 16]\n')
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "pdmat-out" / "manifest.json").exists()
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_run_into_an_output_path_that_cannot_be_a_directory_is_an_error(tmp_path,
                                                                        capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text('experiment = "order_gain"\nM_list = [8, 16]\n')
    taken = tmp_path / "taken"
    taken.write_text("")
    # a file, and a directory that cannot be made under a file
    for output in (taken, taken / "sub"):
        assert cli.main(["run", str(cfg_path), "--output", str(output)]) == 2
        assert capsys.readouterr().err.startswith(f"error: output directory {output}: ")
    assert taken.read_text() == ""


def test_every_listed_probe_parses_in_a_config_of_its_experiment(capsys):
    assert cli.main(["list-probes"]) == 0
    listed, experiment = {}, None
    for line in capsys.readouterr().out.splitlines()[1:]:
        if line.startswith("    "):
            listed[experiment].append(line.split(":")[0].strip())
        else:
            experiment = line.strip()
            listed[experiment] = []
    assert list(listed) == list(cli.EXPERIMENTS)
    assert sorted(p for probes in listed.values() for p in probes) == \
        sorted([*experiments.WATERWAVE_PROBES, *experiments.GROWTH_PROBES])
    for experiment, probes in listed.items():
        for probe in probes:
            cfg = cli.parse_config(f'experiment = "{experiment}"\nprobes = ["{probe}"]')
            assert cfg.probes == (probe,)


@pytest.mark.parametrize("seed,warned", [(4, True), (1, False)])
def test_indefinite_waterwave_energy_warned_in_manifest(tmp_path, seed, warned):
    # the rough bottom of seed 4 makes S(omega+C)S indefinite at every K
    cfg = cli.parse_config('experiment = "waterwave"\n'
                           'probes = ["waterwave_rough"]\nK_list = [32, 64]\n'
                           f's_list = [1.0]\nseed = {seed}\n')
    cli.run(cfg, tmp_path)
    warns = [w for w in reporting.read_manifest(tmp_path)["warnings"]
             if "energy is indefinite" in w]
    if warned:
        assert [w.split(" (")[0] for w in warns] == [
            f"waterwave_rough: energy is indefinite at K={K}" for K in (32, 64)]
        assert all("-0.0798)" in w for w in warns)
    else:
        assert warns == []


def test_failed_job_marked_in_manifest(tmp_path, monkeypatch):
    cfg = cli.parse_config('experiment = "order_gain"\nM_list = [8, 16]\n')

    def boom(_cfg):
        warnings.warn("synthetic warning before the failure")
        raise ArithmeticError("synthetic numerical failure")
    monkeypatch.setitem(cli.EXPERIMENTS, "order_gain", dataclasses.replace(
        cli.EXPERIMENTS["order_gain"], runner=boom))
    rc = cli.run(cfg, tmp_path)
    assert rc == 1
    manifest = reporting.read_manifest(tmp_path)
    assert manifest["status"] == "failed: synthetic numerical failure"
    assert manifest["warnings"] == ["synthetic warning before the failure"]
    assert manifest["gates"] == manifest["passes"] == {}
    assert manifest["traceback"].startswith("Traceback")
    assert "in boom" in manifest["traceback"]
    assert "ArithmeticError: synthetic numerical failure" in manifest["traceback"]
    assert (tmp_path / "results.csv").exists()
