"""Correctness gate of the benchmark.

Every number here is a regression constant: the output of this code base at
the commit that defined the benchmark, not a value published in the paper.
A run whose outputs differ from them counts each mismatch as one failed
operation, so `failed` in the result is never 0 when the program is wrong.
"""

from __future__ import annotations

# S-ring counts per group of the enum-census workload (regression constants).
CENSUS_COUNTS = {
    (3, 9): 391,
    (4, 4): 537,
    (2, 2, 4): 1121,
    (5, 5): 458,
    (2, 8): 163,
}

# schurity-81 inputs and verdicts (regression constants).
CYCLOTOMIC_REPS_3x27 = 77  # all schurian
RINGS_5x5 = 458
NONSCHURIAN_5x5 = 125

# The claims `run_claims(2)` reports, in the order it runs them.
CLAIMS_N2 = (
    "enumerate",
    "schurian-all",
    "e-c1-classes",
    "catalog-rows",
    "regular-classification",
    "nonregular-tensor",
    "nontrivial-radical",
    "section-regular-orbits",
    "property-suite",
)


def census_failures(counts):
    """Groups whose ring count is wrong; `counts` maps orders to a count,
    or to None when the enumeration raised."""
    bad = sum(1 for orders, n in counts.items() if n != CENSUS_COUNTS.get(orders))
    return bad + sum(1 for orders in CENSUS_COUNTS if orders not in counts)


def schurity_failures(verdicts):
    """Mismatches among schurity-81 verdicts.

    `verdicts` maps a family ("3x27" or "5x5") to a list with one entry per
    ring: True or False for the verdict, None when the call raised.  Each
    raised call, each non-schurian cyclotomic representative, each missing or
    extra ring and each non-schurian count away from the constant is one
    failure.
    """
    cyc = verdicts.get("3x27", [])
    z55 = verdicts.get("5x5", [])
    bad = sum(1 for v in cyc + z55 if v is None)
    bad += sum(1 for v in cyc if v is False)
    bad += abs(len(cyc) - CYCLOTOMIC_REPS_3x27) + abs(len(z55) - RINGS_5x5)
    bad += abs(sum(1 for v in z55 if v is False) - NONSCHURIAN_5x5)
    return bad


def verify_failures(statuses):
    """Claims not passing; `statuses` maps claim id to its status string."""
    bad = sum(1 for cid in CLAIMS_N2 if statuses.get(cid) != "pass")
    return bad + sum(1 for cid in statuses if cid not in CLAIMS_N2)
