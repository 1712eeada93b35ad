"""One round of a workload in a fresh process, as ``pdmat run`` starts cold.

Started by run.py; not meant to be run by hand.  Set-up is timed from the
parent's clock reading just before it started this process (CLOCK_MONOTONIC
is system-wide) through importing pdmat and loading the workload's configs.
``--mode setup`` stops there; ``plain`` then times the work, and ``traced``
times it under the span tracer.  The report is written as JSON to
``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path


def blas_env() -> dict:
    """BLAS vendor as numpy was built, thread variables, and the thread count
    each loaded OpenBLAS reports."""
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads[Path(path).name] = getattr(lib, sym)()
                break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k, "default") for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import pdmat
    if not Path(pdmat.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pdmat imported from {pdmat.__file__}, not {src}")
    import workloads
    configs = workloads.load_configs(root, args.workload, args.seed)
    report = {"mode": args.mode,
              "setup_s": time.monotonic() - args.spawned_at}
    if args.mode != "setup":
        import spans
        workdir = Path(args.workdir)
        tracer = spans.Tracer().install() if args.mode == "traced" else None
        timed = tracer.span(spans.ROOT) if tracer else contextlib.nullcontext()
        c0, t0 = time.process_time(), time.perf_counter()
        with timed:
            outputs = workloads.run_work(args.workload, configs, workdir)
        run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.uninstall()
            report["layers"] = tracer.layer_metrics()
        report.update({
            "run_s": run_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "ops": workloads.run_checks(args.workload, configs, workdir,
                                        outputs, args.seed),
            "env": blas_env(),
        })
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
