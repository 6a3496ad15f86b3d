"""The two workloads, driven through the public API of `schur`.

Each workload builds its inputs from the seed in `setup`, then `run` makes
one pass over them and returns a `PassResult`.  `run` takes a tracer: the
timed runs pass a `Timer`, which times the calls and keeps nothing; the
traced run passes a `Tracer` and a dict of per-layer metrics to fill.
Library functions are called with their default arguments.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

from schur import group as grp
from schur import schurity as sch
from schur import sring as sr
from schur import verify as ver
from schur.enumeration import enumerate_srings

import gate
from metrics import ENUM_COUNTERS, PROPERTY_CHECKS, group_name
from spans import Tracer

FAILED = object()


class Timer(Tracer):
    """Times each span like `Tracer` but records none of them."""

    def _new(self, name, key, parent):
        return {"id": None, "name": name, "key": key, "parent": parent}


@dataclass
class PassResult:
    ops: list  # (start, end) on the perf_counter clock per request
    attempted: int
    failed: int

    @property
    def samples(self):
        return [end - start for start, end in self.ops]

    @property
    def wall(self):
        return sum(self.samples)


def _call(tr, name, key, fn, *args, **kwargs):
    """Run fn inside a span; return (result or FAILED, (start, end)).

    The benchmark must finish and count the failure, so any exception is
    reported with its traceback and becomes FAILED.
    """
    with tr.span(name, key) as rec:
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = FAILED
    return out, (rec["start"], rec["end"])


def warm_up():
    """Call each layer once on a tiny group, so first-call costs are paid
    before anything is timed."""
    for ring in enumerate_srings(grp.AbelianGroup([2, 2])):
        sch.is_schurian(ring)


def _fresh(ring):
    """The same classes in a new SRing, so no per-object cache outlives a pass."""
    return sr.SRing(ring.group, ring.classes)


def _enumerate_traced(tr, m, group):
    name = group_name(group.orders)
    stats = defaultdict(int)
    rings, op = _call(tr, "enumeration.enumerate_srings", name, enumerate_srings, group, stats=stats)
    for c in ENUM_COUNTERS:
        m["enumeration." + c] += stats[c]
    busy = "enumeration.busy_s." + name
    if busy in m:
        m[busy] += op[1] - op[0]
    return rings, op


def _revalidate(tr, m, keyed_rings):
    """Validate each ring again; returns the number that fail."""
    bad = 0
    for key, ring in keyed_rings:
        out, (start, end) = _call(tr, "sring.validate", key, sr.validate, ring.group, ring.classes)
        m["sring.validate_s"] += end - start
        bad += out is FAILED or out.canonical_key() != ring.canonical_key()
    return bad


def _stabilizer_and_order(aut):
    stab = aut.point_stabilizer(0)
    aut.order()
    return stab


def schurity_split(tr, m, key, ring):
    """`is_schurian` as its public calls, each in its own span.

    Returns (verdict or FAILED, (start, end)).  The verdict is the one
    `is_schurian` gives: schurian iff the e-stabilizer has one orbit per class.
    """
    start = time.perf_counter()
    aut, (a, b) = _call(tr, "schurity.scheme_automorphisms", key, sch.scheme_automorphisms, ring)
    if aut is FAILED:
        return FAILED, (start, time.perf_counter())
    m["schurity.search_s.order%d" % ring.group.size] += b - a
    stab, (a, b) = _call(tr, "permaction.chain", key, _stabilizer_and_order, aut)
    if stab is FAILED:
        return FAILED, (start, time.perf_counter())
    m["permaction.chain_s"] += b - a
    orbits, (a, b) = _call(tr, "permaction.orbits", key, stab.orbits)
    if orbits is FAILED:
        return FAILED, (start, time.perf_counter())
    m["permaction.orbits_s"] += b - a
    m["schurity.generators"] += len(aut.generators)
    m["permaction.transversal_entries"] += sum(len(t) for t in aut.chain().transversal)
    verdict = len(orbits) == ring.rank
    m["schurity.nonschurian"] += not verdict
    return verdict, (start, time.perf_counter())




def property_probe(tr, m, keyed_rings):
    """Each `check_*` of the verify-paper property suite on each ring, timed
    one call at a time; returns (failures, calls)."""
    bad = 0
    for key, ring in keyed_rings:
        for check in PROPERTY_CHECKS:
            out, (start, end) = _call(tr, "verify.check", check, getattr(ver, "check_" + check), ring)
            m["verify.property_s." + check] += end - start
            bad += out is FAILED
    return bad, len(keyed_rings) * len(PROPERTY_CHECKS)


def claims_probe(tr, m, n=2):
    """`run_claims(n)`, the `schur verify-paper` command, as one call; each
    claim's span is derived from the `Report`, laid end to end inside the
    call's span.  Returns (failures, claims attempted)."""
    with tr.span("verify.run_claims", "n=%d" % n) as call:
        try:
            claims = ver.run_claims(n).claims
        except Exception:
            traceback.print_exc(file=sys.stderr)
            claims = []
    at = call["start"]
    for c in claims:
        tr.add("verify.claim", c.id, at, at + c.seconds, call["id"])
        m["verify.claim_s." + c.id] += c.seconds
        at += c.seconds
    return gate.verify_failures({c.id: c.status for c in claims}), len(gate.CLAIMS_N2)


class Census:
    """enum-census: every S-ring over five groups of order 16 to 27."""

    name = "enum-census"
    setup_repeats = 50
    # A pass takes 5 to 8 s on two cores; each call is counted at its median
    # over at least four passes (see run.timed_run).
    min_passes = 4

    def setup(self, seed, tr=None, m=None):
        orders = list(gate.CENSUS_COUNTS)
        random.Random(seed).shuffle(orders)
        return [grp.AbelianGroup(o) for o in orders]

    def run(self, groups, tr, m=None):
        counts, ops, outputs = {}, [], []
        with tr.span("pass", self.name):
            for g in groups:
                if m is None:
                    name = group_name(g.orders)
                    rings, op = _call(tr, "enumeration.enumerate_srings", name, enumerate_srings, g)
                else:
                    rings, op = _enumerate_traced(tr, m, g)
                ops.append(op)
                counts[g.orders] = None if rings is FAILED else len(rings)
                if rings is not FAILED:
                    outputs.extend(rings)
        attempted = len(gate.CENSUS_COUNTS)
        failed = gate.census_failures(counts)
        if m is not None:
            with tr.span("probe", self.name):
                keyed = [("%s#%d" % (group_name(r.group.orders), i), r) for i, r in enumerate(outputs)]
                failed += _revalidate(tr, m, keyed)
                attempted += len(keyed)
                # The property suite of `verify-paper --n 2` runs over the
                # Z3xZ9 rings, which this census enumerates.
                bad, done = property_probe(tr, m, [kr for kr in keyed if kr[1].group.orders == (3, 9)])
                failed += bad
                attempted += done
        return PassResult(ops, attempted, failed)


class Schurity81:
    """schurity-81: one `is_schurian` call per ring over Z3xZ27 and Z5xZ5."""

    name = "schurity-81"
    setup_repeats = 3
    # A pass takes 10 to 19 s on two cores; median of at least three.
    min_passes = 3

    def setup(self, seed, tr=None, m=None):
        g81, g25 = grp.AbelianGroup([3, 27]), grp.AbelianGroup([5, 5])
        reps, _ = ver.cyclotomic_partition_orbits(g81)
        items = [
            ("3x27", "Z3xZ27#%d" % i, sr.validate(g81, ver.labels_to_classes(lbl)))
            for i, lbl in enumerate(reps)
        ]
        if m is None:
            rings25 = enumerate_srings(g25)
        else:
            rings25, _ = _enumerate_traced(tr, m, g25)
        items += [("5x5", "Z5xZ5#%d" % i, r) for i, r in enumerate(rings25)]
        random.Random(seed).shuffle(items)
        return items

    def run(self, items, tr, m=None):
        rings = [(fam, key, _fresh(r)) for fam, key, r in items]
        verdicts = {"3x27": [], "5x5": []}
        ops = []
        with tr.span("pass", self.name):
            for fam, key, ring in rings:
                if m is None:
                    rep, op = _call(tr, "schurity.is_schurian", key, sch.is_schurian, ring)
                    verdict = FAILED if rep is FAILED else rep.schurian
                else:
                    verdict, op = schurity_split(tr, m, key, ring)
                ops.append(op)
                verdicts[fam].append(None if verdict is FAILED else verdict)
        attempted = max(len(items), gate.CYCLOTOMIC_REPS_3x27 + gate.RINGS_5x5)
        failed = min(gate.schurity_failures(verdicts), attempted)
        if m is not None:
            with tr.span("probe", self.name):
                failed += _revalidate(tr, m, [(key, r) for _, key, r in items])
                attempted += len(items)
                # `verify-paper --n 2` checks schurity of every Z3xZ9 ring in
                # its schurian-all claim and builds automorphism groups of
                # sections in section-regular-orbits.
                bad, done = claims_probe(tr, m)
                failed += bad
                attempted += done
        return PassResult(ops, attempted, failed)


WORKLOADS = {w.name: w for w in (Census(), Schurity81())}
