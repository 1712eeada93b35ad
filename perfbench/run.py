"""Benchmark of the pdmat batch runs.

    python3 perfbench/run.py --workload growth|waterwave|calculus
        [--seed N] [--seconds S] [--trace 0|1] [--results-dir DIR]

Runs whole rounds of the workload for about ``--seconds`` seconds (at least
one), each round in a fresh worker process, one at a time.  With ``--trace
0`` it prints the end-to-end metrics of BENCHMARK.json as medians over the
rounds; with ``--trace 1`` it alternates plain and traced rounds and prints
the per-layer metrics, medians over the traced rounds.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the same result, with every round and the
environment, is written to a file under ``--results-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import HERE, OUT_DIR, ROOT, WORKLOADS, host_env, load_spec, \
    median, tally

MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class RoundError(RuntimeError):
    pass


def run_round(mode: str, args, workdir: Path, index: int, deadline: float) -> dict:
    """Start one worker process, wait for it, and read its report."""
    report = workdir / f"round-{index}.json"
    log = workdir / f"round-{index}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--workdir", str(workdir / f"out-{index}"),
           "--report", str(report)]
    with open(log, "w") as fh:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RoundError(f"{mode} round {index} exceeded the time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.monotonic() - spawned_at
    if rc != 0 or not report.exists():
        tail = log.read_text()[-2000:]
        raise RoundError(f"{mode} round {index} exited {rc}:\n{tail}")
    with open(report) as fh:
        out = json.load(fh)
    out["wall_s"] = wall
    shutil.rmtree(workdir / f"out-{index}", ignore_errors=True)
    return out


def run_rounds(args, workdir: Path) -> list:
    """Whole rounds while the next one is expected to end within --seconds;
    with tracing, plain and traced rounds alternate, at least one of each.
    Then set-up-only rounds until there are MIN_SETUP_SAMPLES set-ups."""
    modes = ("plain", "traced") if args.trace else ("plain",)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    rounds, longest = [], 0.0
    while True:
        r = run_round(modes[len(rounds) % len(modes)], args, workdir,
                      len(rounds), deadline)
        rounds.append(r)
        longest = max(longest, r["wall_s"])
        if len(rounds) >= len(modes) and \
                time.monotonic() - start + longest > args.seconds:
            break
    while len(rounds) < MIN_SETUP_SAMPLES:
        rounds.append(run_round("setup", args, workdir, len(rounds), deadline))
    return rounds


def summarize(args, rounds: list, spec: dict) -> dict:
    work = [r for r in rounds if r["mode"] != "setup"]
    plain = [r for r in work if r["mode"] == "plain"]
    attempted, failed, problems = tally([r["ops"] for r in work])
    env = {**host_env(), **work[0]["env"]}
    if args.trace:
        traced = [r["layers"] for r in work if r["mode"] == "traced"]
        values = {k: median(t[k] for t in traced) for k in traced[0]}
        values["trace.overhead_s"] = values["trace.run_s"] - \
            median(r["run_s"] for r in plain)
        values["code.src_lines"] = env["code.src_lines"]
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": median(r["run_s"] for r in plain),
            "setup_s": median(r["setup_s"] for r in rounds),
            "cpu_s": median(r["cpu_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "env": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=str(OUT_DIR / "results"))
    args = parser.parse_args(argv)
    # so that the finally blocks stop a running worker when the run is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    missing = [p for p in ("src/pdmat/__init__.py", "BENCHMARK.json",
                           *(f"configs/{c}.cfg" for c in WORKLOADS[args.workload]))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a pdmat checkout, missing: {missing}", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = run_rounds(args, workdir)
    except RoundError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(args, rounds, spec)
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **result,
              "rounds": rounds}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
        f"{stamp}-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
