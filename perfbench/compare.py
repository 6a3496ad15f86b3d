"""Compare the result sets of two commits, one row per workload and metric.

    python3 perfbench/compare.py perfbench/results/<parent> perfbench/results/<change>

Runs are paired by seed where both sides ran the same seeds, else in the
order they ran.  Each row gives both sides' median and quartiles and one of
these verdicts:

  improved      the change wins at least 9 of 10 pairs (ties count for
                neither side) and the medians differ by more than the
                parent's interquartile range
  worse         the change's median is worse than the parent's by more than
                the metric's bound (per-layer metrics have no bound: worse
                when the parent wins by the rule for improved)
  unresolved    not improved, and the parent's own spread is wider than the
                bound, unless every run of the change beats every run of the
                parent; for per-layer metrics, anything not decided above
  within bound  none of the above
  same          every value on both sides is equal
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import record

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a, b, better):
    """True when a is strictly better than b."""
    return a < b if better == "lower" else a > b


def _wins_pairs(winner, loser, better):
    wins = sum(_better(w, l, better) for w, l in zip(winner, loser))
    return wins >= 0.9 * len(winner)


def verdict(base, change, better, bound=None):
    """Verdict for one metric on one workload; `base` and `change` are paired."""
    if len(set(base) | set(change)) == 1:
        return "same"
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    iqr = b3 - b1
    gap = abs(cmed - bmed)
    if _wins_pairs(change, base, better) and gap > iqr and _better(cmed, bmed, better):
        return "improved"
    if bound is None:
        if _wins_pairs(base, change, better) and gap > iqr:
            return "worse"
        return "unresolved"
    if _better(bmed, cmed, better) and gap > bound * abs(bmed):
        return "worse"
    spread = iqr / abs(bmed) if bmed else float("inf")
    all_better = all(_better(c, b, better) for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def _pair(base_runs, change_runs):
    """Match runs by seed when the seed sets agree, else by position."""
    bseeds = [r["seed"] for r in base_runs]
    cseeds = [r["seed"] for r in change_runs]
    if sorted(bseeds) == sorted(cseeds) and len(set(bseeds)) == len(bseeds):
        by_seed = {r["seed"]: r for r in change_runs}
        return base_runs, [by_seed[s] for s in bseeds]
    n = min(len(base_runs), len(change_runs))
    return base_runs[:n], change_runs[:n]


def compare(base_records, change_records, spec):
    """Rows (workload, metric, unit, base quartiles, change quartiles, n, verdict)."""
    kinds = [(0, spec["end_to_end"]), (1, spec["per_layer"])]
    rows = []
    for w in spec["workloads"]:
        for trace, metrics in kinds:
            base = [r for r in base_records if r["workload"] == w["name"] and r["trace"] == trace]
            change = [r for r in change_records if r["workload"] == w["name"] and r["trace"] == trace]
            base, change = _pair(base, change)
            if not base:
                continue
            for m in metrics:
                bv = [r["metrics"][m["name"]] for r in base]
                cv = [r["metrics"][m["name"]] for r in change]
                v = verdict(bv, cv, m["better"], m.get("bound"))
                rows.append((w["name"], m["name"], m["unit"], quartiles(bv), quartiles(cv), len(bv), v))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="Compare two result directories.")
    ap.add_argument("base", help="results of the parent commit")
    ap.add_argument("change", help="results of the change")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows = compare(record.load(args.base), record.load(args.change), spec)
    fmt = "%-12s %-44s %-6s %-32s %-32s %3s  %s"
    print(fmt % ("workload", "metric", "unit", "parent q1/median/q3", "change q1/median/q3", "n", "verdict"))
    for w, name, unit, bq, cq, n, v in rows:
        print(fmt % (w, name, unit, "%.4g/%.4g/%.4g" % bq, "%.4g/%.4g/%.4g" % cq, n, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
