"""Run experiment configs over a range of seeds and summarize every gate.

    PYTHONPATH=src python scripts/seed_sweep.py CONFIG [CONFIG ...] --seeds 1-30
    PYTHONPATH=src python scripts/seed_sweep.py configs/*.cfg --seeds 1 \
        --check scripts/golden_digests.json

Each config runs once per seed, with the config's seed replaced, into a
temporary directory that is removed at the end; nothing is written anywhere
else.  For each gate one line gives how many seeds it passed and the seeds
where it failed, and its margin over the seeds (the smallest, the seed where
it occurs, and the median), as ``manifest["gates"]`` records it; a run that
did not finish is listed as a ``run_status`` failure, with no margin.  After
the gate lines, one line per (config, seed) gives the sha256 of that run's
results.csv followed by its fits.json, so two checkouts produce
byte-identical outputs exactly when a diff of their sweep outputs is empty.

``--record FILE`` merges the digests of the sweep into a JSON file of golden
digests, with the numpy version, the BLAS, its thread count and the routine
that factors tridiagonal matrices they were made with, and refuses to merge
into a file recorded with others (re-record into a new file instead);
``--check FILE`` compares each digest with that file and prints one MISMATCH
line naming the config and seed of each that differs (or is missing),
followed by the recorded and the current environment.
The exit status is 1 when any gate failed, any run did not finish, any
checked digest differs or a record was refused, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import tempfile

import numpy as np

from pdmat import _lapack, cli, reporting


def parse_seeds(text: str) -> list:
    """'N' or 'A-B' (inclusive) as a list of seeds."""
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return list(range(first, last + 1))


def output_digest(outdir: str) -> str:
    """sha256 of results.csv followed by fits.json."""
    h = hashlib.sha256()
    for name in ("results.csv", "fits.json"):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    """What a digest depends on besides the code: numpy, the BLAS numpy was
    built with, the BLAS thread count (OPENBLAS_NUM_THREADS, as pdmat set or
    kept it) and the routine that factors tridiagonal matrices (LAPACK
    dstevd of numpy's OpenBLAS, or numpy.linalg.eigh).  The processor count
    is not in it: the growth pool returns its results in submission order,
    each from one BLAS thread, so the outputs are the same on any number of
    cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "tridiagonal": _lapack.TRIDIAGONAL_ROUTINE}


def record(path: str, digests: dict) -> list:
    """Merge the digests into the golden file at path, creating it, and
    return no lines.  A file recorded in another environment is left as it
    is, and the lines say so and give the two environments, since its one
    environment entry must hold for every digest in it."""
    golden = {"digests": {}, "environment": environment()}
    if os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
        if golden["environment"] != environment():
            return [f"NOT MERGED: {path} was recorded in another environment",
                    f"golden environment  {golden['environment']}",
                    f"current environment {environment()}"]
    for (stem, seed), digest in digests.items():
        golden["digests"].setdefault(stem, {})[str(seed)] = digest
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return []


def check(path: str, digests: dict) -> list:
    """One line per digest that differs from, or is missing in, the golden
    file at path, then the two environments when any does; empty when all
    match."""
    with open(path) as fh:
        golden = json.load(fh)
    lines = []
    for (stem, seed), digest in digests.items():
        want = golden["digests"].get(stem, {}).get(str(seed))
        if want != digest:
            lines.append(f"MISMATCH {stem} seed {seed}: golden {want or 'none'}, "
                         f"got {digest}")
    if lines:
        lines += [f"golden environment  {golden['environment']}",
                  f"current environment {environment()}"]
    return lines


def sweep(paths, seeds, workdir: str) -> tuple:
    """({(config stem, gate): [seeds where it failed]},
    {(config stem, gate): {seed: margin}}, {(config stem, seed): output
    digest}).  A gate fails at a seed where it reads false or, because the
    run stopped early, is missing while some other seed has it; its margins
    are those of the seeds where it was measured."""
    failures: dict = {}
    margins: dict = {}
    digests: dict = {}
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        cfg = cli.load_config(path)
        runs = {}
        for seed in seeds:
            cfg.seed = seed
            outdir = os.path.join(workdir, f"{stem}-{seed}")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(cfg, outdir)
            manifest = reporting.read_manifest(outdir)
            digests[(stem, seed)] = output_digest(outdir)
            runs[seed] = {**{name: (gate["ok"], gate["margin"])
                             for name, gate in manifest["gates"].items()},
                          "run_status": (manifest["status"] == "ok", None)}
        for gate in set().union(*runs.values()):
            failures[(stem, gate)] = [seed for seed in seeds
                                      if not runs[seed].get(gate, (False,))[0]]
            margins[(stem, gate)] = {
                seed: runs[seed][gate][1] for seed in seeds
                if runs[seed].get(gate, (False, None))[1] is not None}
    return failures, margins, digests


def margin_text(by_seed: dict) -> str:
    """The smallest margin with the first seed where it occurs, and the
    median, or 'margin -' when no seed measured one."""
    if not by_seed:
        return "margin -"
    low = min(by_seed, key=by_seed.get)
    return (f"margin min {by_seed[low]:.4g} (seed {low}) "
            f"median {statistics.median(by_seed.values()):.4g}")


def summary(failures: dict, margins: dict, n_seeds: int) -> list:
    width = max(len(f"{stem}.{gate}") for stem, gate in failures)
    texts = {key: margin_text(margins[key]) for key in failures}
    m_width = max(len(text) for text in texts.values())
    lines = []
    for (stem, gate), failed in sorted(failures.items()):
        line = (f"{stem + '.' + gate:<{width}}  {texts[stem, gate]:<{m_width}}  "
                f"passed {n_seeds - len(failed)}/{n_seeds}")
        if failed:
            line += f"  failed at seeds {failed}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="+", help="config file paths")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-30"),
                        help="seed or inclusive seed range A-B (default 1-30)")
    golden = parser.add_mutually_exclusive_group()
    golden.add_argument("--check", metavar="FILE",
                        help="compare the digests with a golden digest file")
    golden.add_argument("--record", metavar="FILE",
                        help="merge the digests into a golden digest file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pdmat-seed-sweep-") as workdir:
        failures, margins, digests = sweep(args.configs, args.seeds, workdir)
    print(f"seeds {args.seeds[0]}-{args.seeds[-1]} ({len(args.seeds)} runs per config)")
    for line in summary(failures, margins, len(args.seeds)):
        print(line)
    for (stem, seed), digest in digests.items():
        print(f"sha256 {stem} seed {seed} {digest}")
    problems = []
    if args.record:
        problems = record(args.record, digests)
        for line in problems:
            print(line)
    elif args.check:
        problems = check(args.check, digests)
        for line in problems or [f"{len(digests)} digests match {args.check}"]:
            print(line)
    return 1 if any(failures.values()) or problems else 0


if __name__ == "__main__":
    sys.exit(main())
