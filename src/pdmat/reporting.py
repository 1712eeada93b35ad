"""Artifact writers: versioned CSV tables, fit JSON, hashed run manifests."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

SCHEMA_VERSION = "pdmat-results-v1"
MANIFEST_KEYS = ("experiment", "config", "code_version", "files", "passes",
                 "gates", "status", "traceback", "warnings")


def write_csv(path, columns, rows, experiment: str):
    """Fixed-schema CSV: a version tag comment line, a header row, data rows,
    each line ending in \\n.  ``csv`` writes None and a missing key as an
    empty cell and every other value by ``str``, the shortest round-trip text
    for floats and numpy scalars, so identical runs produce identical bytes;
    a row whose only cell is empty is written ``""``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEMA_VERSION} experiment: {experiment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(c) for c in columns] for row in rows)


def read_csv(path):
    """(schema line, columns, rows) of a write_csv file, each row a dict of
    its cells as text."""
    with open(path, newline="") as fh:
        schema = fh.readline().strip()
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [dict(zip(columns, cells)) for cells in reader]
    return schema, columns, rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir, experiment: str, config: dict, passes: dict,
                   status: str, code_version: str, warnings=(), gates=None,
                   traceback: str | None = None):
    """Run manifest with a content hash for every other artifact file, the
    traceback of a failed run, and each gate's record and its ``ok``."""
    files = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name == "manifest.json" or not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            files[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    payload = {
        "experiment": experiment,
        "config": _jsonable(config),
        "code_version": code_version,
        "files": files,
        # each gate's ok again, as cli.run derives it; only perfbench reads it
        "passes": _jsonable(passes),
        "gates": _jsonable(gates or {}),
        "status": status,
        "traceback": traceback,
        "warnings": list(warnings),
    }
    write_json(os.path.join(outdir, "manifest.json"), payload)
    return payload


def read_manifest(outdir) -> dict:
    """The manifest of a run directory; FileNotFoundError when it has none,
    ValueError when its manifest.json is not JSON or not a run manifest (an
    object with every key of MANIFEST_KEYS)."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest.json in {outdir}")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} is not a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"{path} is not a run manifest: no {', '.join(missing)}")
    return manifest


def write_loglog_dat(path, xs, ys, label: str):
    """Two-column log10 data file for external plotting."""
    with open(path, "w") as fh:
        fh.write(f"# {label}: log10(x) log10(y)\n")
        for x, y in zip(xs, ys):
            if x > 0 and y > 0:
                fh.write(f"{math.log10(x)!r} {math.log10(y)!r}\n")
