"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by run.py (``--results-dir``).
For every (end-to-end metric, workload) pair it prints each set's median and
quartiles and the spread (q3 - q1) / median.  With two sets it also prints
the change of the new median against the base median and a verdict:

- ``unresolved`` when either set's spread is wider than the metric's bound
  in BENCHMARK.json;
- ``worse`` when the new median is worse than the base by more than the
  bound;
- ``within`` otherwise.

It also prints each set's share of failed operations per workload.  The exit
status is 1 when a pair is worse or the failed shares differ, else 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from common import load_spec, quartiles


def load_set(directory) -> tuple[dict, dict]:
    """values[(metric, workload)] -> list, and per-workload [attempted, failed],
    from the untraced result files in ``directory``."""
    values: dict = defaultdict(list)
    counts: dict = defaultdict(lambda: [0, 0])
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace"):
            continue
        for name, m in rec["metrics"].items():
            values[(name, rec["workload"])].append(m["value"])
        counts[rec["workload"]][0] += rec["attempted"]
        counts[rec["workload"]][1] += rec["failed"]
    return values, counts


def spread(q) -> float:
    q1, med, q3 = q
    return (q3 - q1) / med if med else float("inf")


def verdict(base_q, new_q, bound: float, better: str) -> tuple[str, float]:
    """(verdict, signed change of the new median, positive = worse)."""
    change = (new_q[1] - base_q[1]) / base_q[1]
    if better == "higher":
        change = -change
    if spread(base_q) > bound or spread(new_q) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "within"), change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(d) for d in argv]
    status = 0
    head = f"{'metric':<12} {'workload':<10} {'bound':>5}  " + "  ".join(
        f"{'set ' + str(i + 1) + ' median [q1, q3] (n) spread':<44}"
        for i in range(len(sets)))
    print(head + ("  change   verdict" if len(sets) == 2 else ""))
    workloads = sorted({w for vals, _ in sets for (_, w) in vals})
    for m in spec["end_to_end"]:
        for w in workloads:
            cells, qs = [], []
            for vals, _ in sets:
                v = vals.get((m["name"], w), [])
                if not v:
                    cells.append(f"{'(no runs)':<44}")
                    qs.append(None)
                    continue
                q = quartiles(v)
                qs.append(q)
                cells.append(f"{q[1]:<10.4g} [{q[0]:.4g}, {q[2]:.4g}] ({len(v)}) "
                             f"{spread(q):.3f}".ljust(44))
            line = f"{m['name']:<12} {w:<10} {m['bound']:>5}  " + "  ".join(cells)
            if len(sets) == 2 and None not in qs:
                v, change = verdict(qs[0], qs[1], m["bound"], m["better"])
                status |= v == "worse"
                line += f"  {change:+.3f}   {v}"
            print(line)
    for w in workloads:
        shares = [f"{c[w][1]}/{c[w][0]}" for _, c in sets]
        ratios = {c[w][1] / c[w][0] if c[w][0] else None for _, c in sets}
        status |= len(ratios) > 1
        print(f"failed/attempted {w}: " + "  ".join(shares))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
