"""Fast tests of the benchmark's own code; none of them runs a workload."""

import json
import re
from pathlib import Path

import compare
import gate
import metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_spec_lists_what_the_runs_report():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (n, u, b) for n, (u, b) in metrics.PER_LAYER.items()
    ]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(535))
    t = metrics.tail(samples)
    assert sum(s > t for s in samples) == 10
    assert metrics.tail_label(535) == "p98.1"
    assert metrics.tail([3, 1, 2]) == 3


def test_each_call_counts_at_its_median_over_passes():
    per_pass = [[3.0, 1.0, 2.0], [2.5, 1.5, 4.0], [4.0, 0.5, 2.5]]
    assert metrics.median_per_call(per_pass) == [3.0, 1.0, 2.5]
    assert metrics.median_per_call(per_pass[:2]) == [2.75, 1.25, 3.0]
    assert metrics.latency_ms([0.001, 0.003, 0.002]) == (2.0, 3.0)


def test_gate_passes_the_regression_constants():
    assert gate.census_failures(dict(gate.CENSUS_COUNTS)) == 0
    verdicts = {
        "3x27": [True] * gate.CYCLOTOMIC_REPS_3x27,
        "5x5": [False] * gate.NONSCHURIAN_5x5 + [True] * (gate.RINGS_5x5 - gate.NONSCHURIAN_5x5),
    }
    assert gate.schurity_failures(verdicts) == 0
    assert gate.verify_failures({c: "pass" for c in gate.CLAIMS_N2}) == 0


def test_gate_flags_an_injected_wrong_count():
    counts = dict(gate.CENSUS_COUNTS)
    counts[(5, 5)] += 1
    assert gate.census_failures(counts) == 1
    counts[(2, 8)] = None  # the enumeration raised
    assert gate.census_failures(counts) == 2
    del counts[(3, 9)]
    assert gate.census_failures(counts) == 3


def test_gate_flags_wrong_verdicts_and_claims():
    verdicts = {
        "3x27": [True] * (gate.CYCLOTOMIC_REPS_3x27 - 1) + [False],
        "5x5": [False] * (gate.NONSCHURIAN_5x5 + 1) + [True] * (gate.RINGS_5x5 - gate.NONSCHURIAN_5x5 - 1),
    }
    assert gate.schurity_failures(verdicts) == 2
    verdicts["5x5"][-1] = None
    assert gate.schurity_failures(verdicts) == 3
    statuses = {c: "pass" for c in gate.CLAIMS_N2}
    statuses["property-suite"] = "budget"
    del statuses["enumerate"]
    assert gate.verify_failures(statuses) == 2


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_compare_verdicts_on_synthetic_samples():
    faster = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1) == "improved"
    assert compare.verdict(PARENT, faster, "higher", 0.1) == "worse"
    slower = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, slower, "lower", 0.1) == "worse"
    assert compare.verdict(PARENT, list(reversed(PARENT)), "lower", 0.1) == "within bound"
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "within bound"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1) == "unresolved"
    assert compare.verdict([3, 3, 3], [3, 3, 3], "lower", 0.1) == "same"


def test_compare_rows_pair_runs_by_seed():
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "c", "unit": "count", "better": "lower"}],
    }

    def rec(seed, t, trace=0):
        metric = {"c": 7} if trace else {"t": t}
        return {"workload": "w", "seed": seed, "trace": trace, "metrics": metric}

    base = [rec(s, v) for s, v in enumerate(PARENT)] + [rec(0, 0, trace=1)]
    change = [rec(s, v * 0.8) for s, v in reversed(list(enumerate(PARENT)))] + [rec(0, 0, trace=1)]
    rows = compare.compare(base, change, spec)
    assert [(r[0], r[1], r[5], r[6]) for r in rows] == [("w", "t", 10, "improved"), ("w", "c", 1, "same")]

