"""Metric names, units and the latency summary shared by the run and the tests.

This module does not import the program, so the tests can load it anywhere.
"""

from __future__ import annotations

import statistics

import gate

# End-to-end metrics, reported by every untraced run: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
}

ENUM_COUNTERS = (
    "nodes",
    "candidates",
    "leaves",
    "leaf_rejects",
    "profile_filtered",
    "prune_module",
    "prune_multiplier",
    "prune_forced",
)

# The `check_*` functions of the verify-paper property suite, in suite order.
PROPERTY_CHECKS = (
    "structure_constant_identity",
    "product_sets",
    "coset_intersections",
    "generated_and_radical",
    "power_maps",
    "torsion_power_sets",
    "separating_subgroups",
    "order_layer_cosets",
)

SCHURITY_ORDERS = (25, 81)
LAYERS = ("enumeration", "sring", "schurity", "permaction", "verify")


def group_name(orders):
    return "x".join("Z%d" % m for m in orders)


def _per_layer():
    out = {}
    for c in ENUM_COUNTERS:
        out["enumeration." + c] = ("count", "higher" if c == "profile_filtered" else "lower")
    out["enumeration.leaf_yield"] = ("ratio", "higher")
    out["enumeration.prune_module_rate"] = ("ratio", "lower")
    for orders in gate.CENSUS_COUNTS:
        out["enumeration.busy_s." + group_name(orders)] = ("s", "lower")
    out["sring.validate_s"] = ("s", "lower")
    for n in SCHURITY_ORDERS:
        out["schurity.search_s.order%d" % n] = ("s", "lower")
    out["permaction.chain_s"] = ("s", "lower")
    out["permaction.orbits_s"] = ("s", "lower")
    out["schurity.generators"] = ("count", "lower")
    out["permaction.transversal_entries"] = ("count", "lower")
    out["schurity.nonschurian"] = ("count", "lower")
    for cid in gate.CLAIMS_N2:
        out["verify.claim_s." + cid] = ("s", "lower")
    for check in PROPERTY_CHECKS:
        out["verify.property_s." + check] = ("s", "lower")
    for layer in LAYERS:
        out[layer + ".self_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.spans"] = ("count", "lower")
    return out


# Per-layer metrics, reported by every traced run: name -> (unit, better).
# A layer the workload never calls reports 0.
PER_LAYER = _per_layer()


def tail(samples):
    """The highest-percentile sample with at least ten samples beyond it, or
    the maximum when there are fewer than eleven samples."""
    s = sorted(samples)
    return s[-11] if len(s) >= 11 else s[-1]


def tail_label(n):
    return "p%.1f" % (100.0 * (n - 10) / n) if n >= 11 else "max"


def median_per_call(per_pass):
    """Each call's median time over the passes; `per_pass` holds one list of
    call times per pass, the calls in the same order in every pass."""
    return [statistics.median(times) for times in zip(*per_pass)]


def latency_ms(samples):
    """(p50, tail) in ms of call times in seconds."""
    return statistics.median(samples) * 1000.0, tail(samples) * 1000.0
