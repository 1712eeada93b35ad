"""What one round of each workload runs, and how its outputs are checked.

A round's work is what a user runs: ``pdmat run`` on each of the workload's
shipped configs (seed replaced by the benchmark seed), and for ``calculus``
one 2d order certification through the library API.  The checks run after
the timed work; each yields one operation record for the failure count.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from pdmat import cli, core, experiments, operators, reporting

import reference
from common import WORKLOADS

CERT_2D_RADII = (4, 8, 12)
REFERENCE_PERIOD = 32
GROWTH_CHECK = {"horizon": 0.5, "delta": 0.01}
CHECK_RTOL = 1e-11


def load_configs(root: Path, workload: str, seed: int) -> list:
    """Parse and validate the workload's configs, with the seed replaced."""
    out = []
    for name in WORKLOADS[workload]:
        cfg = cli.load_config(root / "configs" / f"{name}.cfg")
        cfg.seed = seed
        out.append((name, cfg.validate()))
    return out


def certify_2d():
    """Product and commutator of the laplacian and cos(x_1) on d = 2 blocks,
    certified for order: the product is order 2, the commutator at most 1."""
    lap = operators.symbol_catalog("laplacian")
    prods, comms = [], []
    for M in CERT_2D_RADII:
        block = core.truncated_block(2, M)
        A = operators.fourier_multiplier(lap, block)
        B = operators.toeplitz_potential(operators.cos_coeff, block)
        prods.append(core.matmul(A, B))
        comms.append(core.commutator(A, B))
    return core.estimate_order(prods), core.estimate_order(comms)


def run_work(workload: str, configs, workdir: Path) -> dict:
    """The timed work of one round; returns what the checks read."""
    out = {}
    for name, cfg in configs:
        out[name] = cli.run(cfg, str(workdir / name))
    if workload == "calculus":
        out["cert_2d"] = certify_2d()
    return out


# ---------------------------------------------------------------------------
# checks


def op(name, ok, detail="", digest=None) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail, "digest": digest}


def check_run(name: str, outdir: Path, status: int) -> dict:
    """A config run passes when it exits 0 and every gate in its manifest
    passes; its digest covers results.csv and fits.json."""
    manifest = reporting.read_manifest(str(outdir))
    failed = sorted(k for k, ok in manifest["passes"].items() if not ok)
    h = hashlib.sha256()
    for fname in ("results.csv", "fits.json"):
        h.update((outdir / fname).read_bytes())
    ok = status == 0 and manifest["status"] == "ok" and manifest["passes"] \
        and not failed
    detail = "" if ok else f"exit {status}, status {manifest['status']!r}, " \
        f"failed gates {failed}"
    return op(name, ok, detail, h.hexdigest())


def check_cert_2d(est_prod, est_comm) -> dict:
    h = hashlib.sha256()
    for est in (est_prod, est_comm):
        h.update(np.ascontiguousarray(est.max_ratios).tobytes())
        h.update(repr(est.r_hat).encode())
    ok = est_prod.r_hat == 2.0 and est_comm.r_hat <= 1.0
    return op("cert_2d", ok, f"product {est_prod.r_hat}, commutator "
              f"{est_comm.r_hat}", h.hexdigest())


def reference_growth(seed: int, period: int = REFERENCE_PERIOD) -> tuple:
    """(program, reference) final states of a short rho = 0 trajectory."""
    x0 = reference.growth_initial_state(period, seed)
    prog = experiments.growth_trajectory(
        experiments.growth_model("growth_rho0"), period, s_list=[0.0],
        seed=seed, x0=x0, **GROWTH_CHECK)["final_state"]
    return prog, reference.growth_final_state(period, x0=x0, **GROWTH_CHECK)


def reference_waterwave(period: int = REFERENCE_PERIOD) -> tuple:
    ops = experiments.waterwave_assemble(experiments.waterwave_model("waterwave"),
                                         period)
    return ops.generator(), reference.waterwave_generator(period)


def reference_calculus(radius: int = CERT_2D_RADII[0]) -> tuple:
    block = core.truncated_block(2, radius)
    A = operators.fourier_multiplier(operators.symbol_catalog("laplacian"), block)
    B = operators.toeplitz_potential(operators.cos_coeff, block)
    return core.commutator(A, B).entries, reference.laplacian_cos_commutator(2, radius)


def reference_pair(workload: str, seed: int) -> tuple:
    if workload == "growth":
        return reference_growth(seed)
    if workload == "waterwave":
        return reference_waterwave()
    return reference_calculus()


def check_reference(workload: str, program, ref) -> dict:
    ok, err = reference.agree(program, ref, CHECK_RTOL)
    return op(f"reference_{workload}", ok, f"max entry error {err:.3g}")


def run_checks(workload: str, configs, workdir: Path, outputs: dict,
               seed: int) -> list:
    ops = [check_run(name, workdir / name, outputs[name]) for name, _ in configs]
    if workload == "calculus":
        ops.append(check_cert_2d(*outputs["cert_2d"]))
    ops.append(check_reference(workload, *reference_pair(workload, seed)))
    return ops
