"""Batch experiment driver: parse a config, run sweeps, write artifacts.

Not interactive: one invocation runs one experiment from a TOML config file
of top-level keys and leaves results.csv, fits.json and manifest.json in the
directory given by --output; ``report`` renders pass/fail lines and plot-ready
data from a finished run.  Exit status is nonzero when any acceptance check of
the requested suite fails.  Each experiment is one record of EXPERIMENTS: its
runner, its results.csv columns and the config keys it reads; a config that
sets any other key is rejected.  Every grid runs as given, and the manifest
records exactly the keys the experiment read.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
import tomllib
import traceback
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, core, experiments, flows, operators, periodic, \
    reporting, spectral


class ConfigError(ValueError):
    pass


# Gate bounds used by more than one runner.  They are fixed here rather than
# read from the config, so that no config can set the bound its own gates are
# judged by; a bound used at one gate is written there.  Sample counts, step
# sizes and grids are the library's (flows.N_SAMPLES, flows.TAU_LIST,
# flows.TAU_STAR, flows.SIGMA_GRID, core.ORDER_GRID).
FIT_BAND = 0.25         # |fitted slope or rate - theory| at every slope gate
ALGEBRA_TOL = 1e-12     # identities that hold exactly up to roundoff
UNITARY_TOL = 1e-10     # symplectic and telescoping defects of one step
MAX_STEPS = 10 ** 6     # most growth steps horizon / delta may ask for


@dataclass
class ExperimentConfig:
    """What one batch run sweeps: experiment, probes, grids, seed, and the
    growth horizon and step.  An experiment reads COMMON_KEYS and the keys of
    its EXPERIMENTS record, every entry of each grid, and ignores the other
    fields.  Gate bounds are module constants, not fields."""

    experiment: str
    probes: tuple = ()
    M_list: tuple = (16, 32, 64)
    K_list: tuple = (32, 64, 128)
    s_list: tuple = (0.0, 1.0, 2.0)
    seed: int = 1
    horizon: float = 50.0
    delta: float = 0.01

    def validate(self):
        """Check each key the experiment reads, and no other, by that key's
        rules; every ConfigError names the key it rejects."""
        spec = _record(self.experiment)
        for key in spec.keys:
            value = getattr(self, key)
            for probe in value if key == "probes" else ():
                if probe not in spec.probe_table:
                    raise ConfigError(f"probes: {probe!r} is not a {self.experiment} "
                                      "probe (see pdmat list-probes)")
            if key in ("M_list", "K_list", "s_list") and not value:
                raise ConfigError(f"{key} must be nonempty")
            if key in ("M_list", "K_list"):
                if not all(_is_int(v) for v in value):
                    raise ConfigError(f"{key} entries must be integers")
                if any(a >= b for a, b in zip(value, value[1:])):
                    raise ConfigError(f"{key} must be strictly increasing")
            # the paper's estimates are on h^s, s >= 0
            if key == "s_list" and not all(_is_number(v) and v >= 0 for v in value):
                raise ConfigError("s_list entries must be finite nonnegative numbers")
            # a repeated entry would run twice and overwrite its own fits and gates
            if key in ("probes", "s_list") and len(set(value)) < len(value):
                raise ConfigError(f"{key} entries must not repeat")
            if key == "M_list" and value[0] < spec.min_radius:
                raise ConfigError(f"M_list entries must be at least {spec.min_radius} "
                                  f"for {self.experiment}")
            if key in spec.refined and len(value) < 2:
                raise ConfigError(f"{key} must have at least 2 entries for "
                                  f"{self.experiment} (refinement levels)")
            if key == "K_list" and any(k % 2 or k < 4 for k in value):
                raise ConfigError("K_list entries must be even and at least 4")
            if key in ("horizon", "delta") and not (_is_number(value) and value > 0):
                raise ConfigError(f"{key} must be a positive finite number")
            if key == "seed" and not (_is_int(value) and value >= 0):
                raise ConfigError("seed must be a nonnegative integer")
        if {"horizon", "delta"} <= set(spec.keys):
            steps = self.horizon / self.delta
            # also catches a quotient that overflows to inf
            if not steps <= MAX_STEPS:
                raise ConfigError(f"horizon {self.horizon:g} over delta {self.delta:g} "
                                  f"is {steps:.7g} steps, more than {MAX_STEPS}")
            # the growth exponent is fitted on the steps at t >= 1 and needs two
            if (round(steps) - 1) * self.delta < 1.0:
                raise ConfigError(f"horizon {self.horizon:g} leaves fewer than two "
                                  f"steps of delta {self.delta:g} at t >= 1 for "
                                  "sobolev_growth (it needs 1 + delta or more)")
        return self


def _is_int(v) -> bool:
    # bool subclasses int, but true and false are no counts or radii
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # nan and inf parse as floats, but no grid or time is made of them
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _repeated_key(text: str):
    """The message naming the first key set twice in text, or None."""
    first: dict = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        key = re.match(r"\s*(\w+)\s*=", line)
        if key and first.setdefault(key[1], ln) != ln:
            return (f"line {ln}: repeated key {key[1]!r} "
                    f"(first set on line {first[key[1]]})")


def parse_config(text: str) -> ExperimentConfig:
    """A TOML document of top-level keys, read by ``tomllib``, each a field
    of ExperimentConfig that the experiment reads (see EXPERIMENTS); any
    other key is rejected by name.  A list field also takes a single value
    and experiment is required.  Every error, malformed TOML included, is a
    ConfigError."""
    try:
        values = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        # tomllib rejects a repeated key without naming it
        raise ConfigError(_repeated_key(text) or f"not valid TOML: {exc}") from None
    for key, value in values.items():
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ConfigError(f"unknown key {key!r}")
        if key in ("probes", "M_list", "K_list", "s_list"):
            values[key] = tuple(value) if isinstance(value, list) else (value,)
    if "experiment" not in values:
        raise ConfigError("experiment is required")
    reads = COMMON_KEYS + _record(values["experiment"]).keys
    for key in values:
        if key not in reads:
            raise ConfigError(f"key {key!r} is not read by {values['experiment']} "
                              f"(it reads {', '.join(reads)})")
    return ExperimentConfig(**values).validate()


def load_config(path) -> ExperimentConfig:
    """parse_config of the file at path; TOML is UTF-8, so a file that is not
    is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# experiment runners: each returns (rows, fits, gates) and warns by warnings.warn


def _gate(measured, bound, cmp="<="):
    """Gate record: ``ok`` is ``measured cmp bound`` (cmp <=, < or ==).  The
    margin, bound - measured or -|measured - bound| for ==, is negative when an
    inequality fails; no measured value (no fit) fails with no margin."""
    if measured is None:
        return {"measured": None, "bound": bound, "margin": None, "ok": False}
    ok = {"<=": measured <= bound, "<": measured < bound, "==": measured == bound}
    margin = -abs(measured - bound) if cmp == "==" else bound - measured
    # + 0.0 turns the -0.0 of an equality that holds into 0.0
    return {"measured": measured, "bound": bound, "margin": margin + 0.0,
            "ok": bool(ok[cmp])}


def _band(fit, target):
    """FIT_BAND gate of a slope against theory, with its fit's health (or None)."""
    return _gate(abs(fit.slope - target) if fit is not None else None, FIT_BAND) | {
        k: getattr(fit, k, None) for k in ("residual", "n_points", "n_dropped")}


def _sigma_gate(rep, target):
    """Equality gate of a loss scan's sigma; an uncertified scan fails it."""
    return _gate(rep.sigma_hat if rep.certified else None, target, "==")


def run_order_gain(cfg: ExperimentConfig):
    t0 = time.monotonic()
    prod_fam, comm_fam = [], []
    for M in cfg.M_list:
        A, B = experiments.schroedinger_pair(operators.cos_coeff, M)
        prod_fam.append(core.matmul(A, B))
        comm_fam.append(core.commutator(A, B))
    rows, fits = [], {}
    for label, fam in (("product", prod_fam), ("commutator", comm_fam)):
        est = core.estimate_order(fam)
        fits[label] = {"r_hat": est.r_hat}
        for (i_r, i_a, i_n, i_m), seminorm in np.ndenumerate(est.max_ratios):
            rows.append({"probe": label, "level": est.sizes[i_m],
                         "alpha": est.alpha_grid[i_a][0], "decay": est.decay_grid[i_n],
                         "order": est.order_grid[i_r], "seminorm": float(seminorm)})
    gates = {
        "product_order_is_2": _gate(fits["product"]["r_hat"], 2.0, "=="),
        "commutator_order_le_1": _gate(fits["commutator"]["r_hat"], 1.0),
        "runtime_lt_10s": _gate(time.monotonic() - t0, 10.0, "<"),
    }
    return rows, fits, gates


def run_approx_rates(cfg: ExperimentConfig):
    block = core.truncated_block(1, max(cfg.K_list))
    s = 2.0
    fd_limit = operators.fourier_multiplier(lambda x: 1j * x, block)
    fd = periodic.approx_error(
        fd_limit, [spectral.fd_symbol(1, 1, k) for k in cfg.K_list],
        s=s, s_prime=s, data_s=s + 2.0)
    mult_limit = operators.toeplitz_potential(operators.exp_decay_coeff, block)
    mult = periodic.approx_error(
        mult_limit, [spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, k)
                     for k in cfg.K_list],
        s=4.0, s_prime=2.0, data_s=4.0)
    rows = [{"probe": "fd", **r} for r in fd.rows] + \
        [{"probe": "mult", **r} for r in mult.rows]
    fits = {"fd_rate": fd.decay_rate, "fd_residual": fd.residual,
            "mult_rate": mult.decay_rate, "mult_residual": mult.residual}
    gates = {"fd_rate_near_1": _gate(abs(fd.decay_rate - 1.0), FIT_BAND),
             "mult_rate_near_2": _gate(abs(mult.decay_rate - 2.0), FIT_BAND)}
    return rows, fits, gates


def run_splitting_orders(cfg: ExperimentConfig):
    t0 = time.monotonic()
    # the fits compare step sizes on one block, so no radius grid is read
    A, B = experiments.schroedinger_pair(operators.two_cos_coeff, 64)
    system = flows.scalar_system(64, A, B, (flows.LIE, flows.STRANG))
    tables = flows.error_table(system, [
        (s, system.weights(s), core.rough_samples(A.block, s + 3.0, flows.N_SAMPLES,
                                                  cfg.seed)) for s in cfg.s_list])
    rows, fits, gates = [], {}, {}
    for (scheme, s), tab in tables.items():
        label, target = f"{scheme}_s{s:g}", flows.LOCAL_ORDER[scheme]
        fits[label] = {k: getattr(tab.fit, k, None)
                       for k in ("slope", "intercept", "residual")} | {"target": target}
        gates[f"{label}_slope"] = _band(tab.fit, target)
        rows.extend({"probe": "schrodinger", **r} for r in tab.rows)
    gates["runtime_lt_120s"] = _gate(time.monotonic() - t0, 120.0, "<")
    return rows, fits, gates


def run_loss_scan(cfg: ExperimentConfig):
    model = experiments.waterwave_model("waterwave")
    rows, fits, gates = [], {}, {}
    for probe, scheme, systems, target in (
            ("schrodinger", flows.LIE,
             [flows.scalar_system(M, *experiments.schroedinger_pair(
                 operators.two_cos_coeff, M), (flows.LIE,))
              for M in cfg.M_list], 1.0),
            ("waterwave", flows.STRANG,
             [experiments.waterwave_assemble(model, K).system((flows.STRANG,))
              for K in cfg.K_list], 0.0)):
        rep = flows.loss_scan(systems, 2.0)[scheme]
        name = f"{scheme}_{probe}"
        fits[name] = {"sigma_hat": rep.sigma_hat, "certified": rep.certified}
        gates[f"{name}_sigma_{target:g}"] = _sigma_gate(rep, target)
        rows.extend({"probe": probe, **r} for r in rep.rows)
    return rows, fits, gates


def run_waterwave(cfg: ExperimentConfig):
    probes = cfg.probes or ("waterwave",)
    rows, fits, gates = [], {}, {}
    for probe in probes:
        model = experiments.waterwave_model(probe, seed=cfg.seed)
        res = experiments.waterwave_noloss_study(model, cfg.K_list, cfg.s_list,
                                                 seed=cfg.seed)
        # only the documented order warning (St-Venant) voids the theory
        # bands; the propagator-norm stability message stays a warning
        asserted = model.order_warning() is None
        for (scheme, s), fit in res["slopes"].items():
            key = f"{model.label}_{scheme}_s{s:g}"
            target = flows.LOCAL_ORDER[scheme]
            fits[key] = {"slope": fit.slope if fit else None, "target": target}
            if asserted and scheme == flows.STRANG:
                gates[f"{key}_slope"] = _band(fit, target)
        for scheme, rep in res["loss"].items():
            fits[f"{model.label}_{scheme}_sigma"] = {"sigma_hat": rep.sigma_hat,
                                                     "certified": rep.certified}
            if asserted:
                gates[f"{model.label}_{scheme}_no_loss"] = _sigma_gate(rep, 0.0)
        for scheme, defect in res["symplectic_defect"].items():
            fits[f"{model.label}_{scheme}_symplectic_defect"] = defect
            gates[f"{model.label}_{scheme}_symplectic"] = _gate(defect, UNITARY_TOL)
            rows.append({"probe": model.label, "scheme": scheme,
                         "level": max(cfg.K_list), "tau": flows.TAU_LIST[0],
                         "error": defect, "sigma": "", "s": "",
                         "norm_ratio": res["energy_drift"][scheme]})
        gates[f"{model.label}_flat_bottom_exact"] = \
            _gate(res["b0_control"], ALGEBRA_TOL)
        rows.extend({"probe": model.label, **r} for r in res["error_rows"])
    return rows, fits, gates


def run_schroedinger_precond(cfg: ExperimentConfig):
    res = experiments.preconditioned_lie_study(cfg.s_list, cfg.M_list, seed=cfg.seed)
    rows = [{"probe": "schrodinger", **r} for r in res["error_rows"]]
    pre, base = res["loss_preconditioned"], res["loss_baseline"]
    fits = {
        "homological_defect": res["homological_defect"],
        "telescoping_defect": res["telescoping_defect"],
        "remainder_order": res["remainder_order"],
        "sigma_hat_preconditioned": pre.sigma_hat,
        "sigma_hat_baseline": base.sigma_hat,
    }
    gates = {
        "homological_identity": _gate(res["homological_defect"], ALGEBRA_TOL),
        "remainder_order_le_m2": _gate(res["remainder_order"], -2.0),
        "telescoping": _gate(res["telescoping_defect"], UNITARY_TOL),
        "preconditioned_no_loss": _sigma_gate(pre, 0.0),
        "baseline_loses_one": _sigma_gate(base, 1.0),
    }
    for s, fit in res["slopes"].items():
        fits[f"precond_slope_s{s:g}"] = fit.slope
        gates[f"precond_slope_s{s:g}"] = _band(fit, flows.LOCAL_ORDER[flows.LIE])
    return rows, fits, gates


def run_sobolev_growth(cfg: ExperimentConfig):
    probes = cfg.probes or ("growth_rho0", "growth_rhom1")
    rows, fits, gates = [], {}, {}
    models = [experiments.growth_model(probe) for probe in probes]
    results = experiments.sobolev_growth_study(
        [(model, cfg.K_list[:experiments.GROWTH_PROBES[probe][2]])
         for probe, model in zip(probes, models)], cfg.horizon, cfg.s_list,
        delta=cfg.delta, seed=cfg.seed)
    for probe, model, res in zip(probes, models, results):
        rows.extend({"probe": probe, **r} for r in res["rows"])
        worst_drift = max(res["conservation"].values())
        fits[f"{probe}_conservation"] = worst_drift
        gates[f"{probe}_l2_conservation"] = _gate(worst_drift, 1e-8)
        if model.rho == 0.0:
            for s in {r["s"] for r in res["rows"]}:
                cs = [res["ratio"][(s, K)] for K in res["conservation"]]
                fits[f"{probe}_ratio_span_s{s:g}"] = max(cs) / min(cs)
                gates[f"{probe}_ratio_stable_s{s:g}"] = _gate(max(cs), 1.2 * min(cs))
        else:
            for (s, K), exp in res["exponent"].items():
                bound = s / (1.0 - model.rho) + 0.1
                fits[f"{probe}_exponent_s{s:g}_K{K}"] = exp
                gates[f"{probe}_exponent_s{s:g}_K{K}"] = _gate(exp, bound)
        fits[f"{probe}_richardson"] = res["richardson"]
    return rows, fits, gates


def run_invariants_suite(cfg: ExperimentConfig):
    rows, gates = [], {}

    def record(invariant, probe, measured, bound, cmp="<="):
        gate = gates[f"{invariant}_{probe}"] = _gate(measured, bound, cmp)
        rows.append({"invariant": invariant, "probe": probe,
                     "measured": measured, "bound": bound,
                     "status": "pass" if gate["ok"] else "fail"})

    for d in (1, 2):
        for K in (4, 8, 16, 32):
            ok = periodic.bracket_triangle_holds(K, d) and \
                periodic.bracket_peetre_holds(K, d)
            record("bracket_inequalities", f"d{d}_K{K}", int(ok), 1, "==")
    for period, d in ((16, 1), (64, 1), (128, 1), (8, 2), (16, 2)):
        block = core.periodic_block(d, period)
        F, Finv = spectral.dft_matrix(block), spectral.idft_matrix(block)
        Q = period ** (d / 2) * F
        defect = float(np.max(np.abs(Q.conj().T @ Q - np.eye(block.n))))
        record("dft_unitarity", f"d{d}_K{period}", defect, ALGEBRA_TOL)
        worst = 0.0
        for j in range(1, d + 1):
            for sign in (1, -1):
                lhs = spectral.fd_matrix(j, sign, period, d).entries
                symbol = np.diagonal(spectral.fd_symbol(j, sign, period, d).entries)
                rhs = Finv @ (symbol[:, None] * F)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        record("fd_conjugation", f"d{d}_K{period}", worst, ALGEBRA_TOL)
    for K in (16, 32, 64):
        M_samp = spectral.mult_matrix_from_samples(spectral.sample(
            K, lambda x: sum(math.exp(-abs(j)) * np.exp(1j * j * x)
                             for j in range(-50, 51))), K)
        M_alias = spectral.mult_matrix_from_coeffs(operators.exp_decay_coeff, K)
        diff = float(np.max(np.abs(M_samp.entries - M_alias.entries)))
        record("alias_identity", f"K{K}", diff, 1e-10)
    rng = np.random.default_rng(cfg.seed)
    for p, q, r in ((1, 1, 1), (2, 1, 2), (2, 2, math.inf)):
        ratios = core.young_ratios(rng, p, q, r)
        violations = int(np.count_nonzero(ratios > 1 + 1e-12))
        record("young_inequality", f"p{p}_q{q}_r{r}", violations, 0, "==")
    return rows, {}, gates


_SPLIT_COLUMNS = ("probe", "scheme", "level", "tau", "s", "sigma", "error",
                  "norm_ratio")


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, its results.csv columns, the config keys
    it reads besides COMMON_KEYS, and the facts its config validation needs."""

    runner: object                # cfg -> (rows, fits, gates)
    columns: tuple
    keys: tuple = ()
    refined: tuple = ()           # grids of the levels its gates compare
    probe_table: dict = None      # its probe names (experiments.*_PROBES)
    min_radius: int = 1           # smallest radius it can build


COMMON_KEYS = ("experiment",)   # read by every experiment
EXPERIMENTS = {
    "order_gain": Experiment(
        run_order_gain, ("probe", "level", "alpha", "decay", "order", "seminorm"),
        ("M_list",), refined=("M_list",), min_radius=3),  # second differences
    "approx_rates": Experiment(
        run_approx_rates, ("probe", "K", "s", "s_prime", "error", "fitted_rate"),
        ("K_list",), refined=("K_list",)),
    "splitting_orders": Experiment(run_splitting_orders, _SPLIT_COLUMNS,
                                   ("s_list", "seed")),
    "loss_scan": Experiment(run_loss_scan, _SPLIT_COLUMNS, ("M_list", "K_list"),
                            refined=("M_list", "K_list")),
    "waterwave": Experiment(
        run_waterwave, _SPLIT_COLUMNS, ("probes", "K_list", "s_list", "seed"),
        refined=("K_list",), probe_table=experiments.WATERWAVE_PROBES),
    "schroedinger_precond": Experiment(
        run_schroedinger_precond, _SPLIT_COLUMNS, ("M_list", "s_list", "seed"),
        refined=("M_list",), min_radius=4),  # built from 4 on
    "sobolev_growth": Experiment(
        run_sobolev_growth, ("probe", "level", "s", "ratio_max", "exponent",
                             "conservation"),
        ("probes", "K_list", "s_list", "horizon", "delta", "seed"),
        refined=("K_list",),
        probe_table=experiments.GROWTH_PROBES),
    "invariants_suite": Experiment(
        run_invariants_suite, ("invariant", "probe", "measured", "bound", "status"),
        ("seed",)),
}


def _record(name) -> Experiment:
    """The record of experiment name; any other value is a ConfigError."""
    if name not in tuple(EXPERIMENTS):
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, "
                          f"got {name!r}")
    return EXPERIMENTS[name]


# ---------------------------------------------------------------------------
# run / report


def run(cfg: ExperimentConfig, outdir) -> int:
    cfg.validate()
    spec = EXPERIMENTS[cfg.experiment]
    os.makedirs(outdir, exist_ok=True)
    status, tb = "ok", None
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            rows, fits, gates = spec.runner(cfg)
        except Exception as exc:  # job marked failed, manifest still written
            rows, fits, gates = [], {}, {}
            status, tb = f"failed: {exc}", traceback.format_exc()
        finally:    # no generator or factor of this run is held into the next
            flows._eigh_cached.cache_clear()
    warns = list(dict.fromkeys(str(w.message) for w in caught))
    # runtime gates measure wall-clock time, so gates go to the manifest only
    reporting.write_csv(os.path.join(outdir, "results.csv"), spec.columns, rows,
                        cfg.experiment)
    reporting.write_json(os.path.join(outdir, "fits.json"), fits)
    read = {key: getattr(cfg, key) for key in COMMON_KEYS + spec.keys}
    reporting.write_manifest(outdir, cfg.experiment, read,
                             {name: gate["ok"] for name, gate in gates.items()},
                             status, __version__, warnings=warns, gates=gates,
                             traceback=tb)
    if status != "ok":
        print(f"FAILED {cfg.experiment}: {status}", file=sys.stderr)
        return 1
    for name, gate in sorted(gates.items()):
        print(f"{'PASS' if gate['ok'] else 'FAIL'} {cfg.experiment}.{name}")
    return 0 if all(gate["ok"] for gate in gates.values()) else 1


def _number(value) -> str:
    # the manifest stores nan and inf as strings and no value as null
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def report(outdir) -> int:
    manifest = reporting.read_manifest(outdir)
    print(f"experiment: {manifest['experiment']}  code: {manifest['code_version']}  "
          f"status: {manifest['status']}")
    all_ok = manifest["status"] == "ok"
    for name, gate in sorted(manifest["gates"].items()):
        print(f"{'PASS' if gate['ok'] else 'FAIL'} {name}  " + "  ".join(
            f"{k} {_number(gate[k])}" for k in ("measured", "bound", "margin",
                                                "residual", "n_points", "n_dropped")
            if k in gate))
        all_ok &= gate["ok"]
    _, _, rows = reporting.read_csv(os.path.join(outdir, "results.csv"))
    series: dict = {}
    for row in rows:
        if row.get("tau") and row.get("error"):
            key = (row.get("probe", ""), row.get("scheme", ""), row.get("s", ""))
            series.setdefault(key, []).append((float(row["tau"]), float(row["error"])))
    for (probe, scheme, s), pts in sorted(series.items()):
        if len(pts) < 2:
            continue
        label = "_".join(p for p in (probe, scheme, f"s{s}") if p and p != "s")
        pts.sort(reverse=True)
        reporting.write_loglog_dat(os.path.join(outdir, f"{label}.dat"),
                                   [p[0] for p in pts], [p[1] for p in pts], label)
    return 0 if all_ok else 1


def list_probes() -> int:
    """Each experiment, with the probes its config's probes key takes; a
    growth probe that runs only the leading periods of K_list says how many."""
    print("experiments:")
    for name, spec in EXPERIMENTS.items():
        print(f"  {name}")
        for probe, (desc, *_) in (spec.probe_table or {}).items():
            periods = experiments.GROWTH_PROBES.get(probe, (None,) * 3)[2]
            print(f"    {probe}: {desc}" + (
                "" if periods is None else f" (first {periods} periods of K_list)"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmat",
        description="Batch driver for the operator-calculus experiment suite.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="results.csv columns per experiment:\n" + "\n".join(
            f"  {name}: {', '.join(spec.columns)}"
            for name, spec in EXPERIMENTS.items()))
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="TOML config path")
    p_run.add_argument("--output", default="pdmat-out",
                       help="output directory (default ./pdmat-out)")
    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("results_dir")
    sub.add_parser("list-probes", help="list experiments and probes")
    args = parser.parse_args(argv)
    if args.command == "list-probes":
        return list_probes()
    if args.command == "report":
        try:
            return report(args.results_dir)
        except (FileNotFoundError, ValueError) as exc:  # missing or broken manifest
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:  # a file, or a path that cannot be made
        print(f"error: output directory {args.output}: {exc}", file=sys.stderr)
        return 2
    return run(cfg, args.output)


if __name__ == "__main__":
    sys.exit(main())
