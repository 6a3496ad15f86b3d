"""Machine verification harness for the desk-scale classification claims.

Each claim runs independently and reports pass/fail/budget with timings;
the CLI's `verify-paper` subcommand and the acceptance test suite are thin
wrappers around `run_claims`.

Cayley isomorphism is orbit membership under the one partition-orbit
kernel, `permaction.partition_orbits`: `catalog_keys` closes the catalog
once, `e-c1-classes` compares least orbit keys with class representatives,
and `cyclotomic_partition_orbits` closes its relabeling orbits with it.

The per-ring property checks work on indicator rows (see `sring`): a batch
of sets is a (k, |G|) boolean array, tested at once with the ring's class
constancy test, the coset counts and the radical row; the A-set lattice of
`check_torsion_power_sets` is one batch of class masks per prime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import constructions as cons
from . import group as grp
from . import schurity as sch
from . import sring as sr
from .enumeration import classify_up_to_cayley, enumerate_srings
from .errors import BudgetExceeded
from .permaction import block_min, blocks, orbit_labels, orbit_of, partition_orbits


# -- cyclotomic partition closure ---------------------------------------------


def _joins(p, cyclic):
    """Labels of the join of partition p with each row of `cyclic`, by
    label propagation: each round takes the label minimum over every block of
    p, then over every block of the row, until no label moves."""
    c, n = cyclic.shape
    offsets = np.arange(c, dtype=np.int64).reshape(c, 1) * n
    p_keys, q_keys = offsets + p, offsets + cyclic
    labels = np.minimum(p, cyclic)
    while True:
        moved = block_min(q_keys, block_min(p_keys, labels, c * n), c * n)
        if np.array_equal(moved, labels):
            return labels
        labels = moved


def cyclotomic_partition_orbits(group):
    """(representatives, all distinct partitions) of {Orb(K, G) : K <= Aut(G)}.

    The orbit partition of any subgroup is the join of the orbit partitions
    of its cyclic subgroups, so the join-closure of the cyclic partitions
    covers every K without walking the subgroup lattice of Aut(G).  Joins
    commute with the Aut(G)-relabeling action and the cyclic partitions form
    an invariant set, so expanding one representative per relabeling orbit
    reaches the whole closure.

    Partitions are tuples of block-minimum labels.  Relabeling orbits are
    closed by `permaction.partition_orbits` under the few automorphisms that
    `group.generating_subset` keeps, and the joins of one representative
    with every cyclic partition are taken in one NumPy pass.
    """
    n = group.size
    auts = grp.automorphisms(group)
    # every automorphism's cyclic partition at once, as one permutation of
    # len(auts) disjoint copies of G
    offsets = np.arange(len(auts), dtype=np.int64).reshape(-1, 1) * n
    tables = auts + offsets
    rows = orbit_labels([tables.ravel()], tables.size).reshape(-1, n) - offsets
    cyclic = dict.fromkeys(map(tuple, rows.tolist()))
    cyclic_rows = np.array(list(cyclic), dtype=np.int64)
    gens = grp.generating_subset(auts)
    known = set()
    reps = []

    def register(partitions):
        for lbl in partitions:
            if lbl in known:
                continue
            orbit = partition_orbits([lbl], gens)
            known.update(orbit)
            reps.append(min(orbit))

    register(cyclic)
    expanded = 0
    while expanded < len(reps):
        p = np.array(reps[expanded], dtype=np.int64)
        expanded += 1
        register(map(tuple, _joins(p, cyclic_rows).tolist()))
    return sorted(reps), known


# the classes of a partition given by its block-minimum labels
labels_to_classes = blocks


# -- the nine S-rings over E with C1 as an A-subgroup --------------------------
#
# Partitions over [3, 3] in word form with s = (1,0) and c1 = (0,1); the
# identity class is implied.  Listed up to Cayley isomorphisms preserving C1.

E_C1_FORMS = (
    ((("c1",), ("c1^2",), ("s", "sc1", "sc1^2", "s2", "s2c1", "s2c1^2")),),
    ((("c1",), ("c1^2",), ("s",), ("s2",), ("sc1",), ("s2c1",), ("sc1^2",), ("s2c1^2",)),),
    ((("c1",), ("c1^2",), ("s", "sc1", "sc1^2"), ("s2", "s2c1", "s2c1^2")),),
    ((("c1",), ("c1^2",), ("s", "s2"), ("sc1", "s2c1"), ("sc1^2", "s2c1^2")),),
    ((("c1", "c1^2"), ("s",), ("s2",), ("sc1", "sc1^2"), ("s2c1", "s2c1^2")),),
    ((("c1", "c1^2"), ("s", "sc1", "sc1^2"), ("s2", "s2c1", "s2c1^2")),),
    ((("c1", "c1^2"), ("s", "s2"), ("sc1", "s2c1^2"), ("sc1^2", "s2c1")),),
    ((("c1", "c1^2"), ("s", "s2"), ("sc1", "s2c1^2", "sc1^2", "s2c1")),),
    ((("c1", "c1^2"), ("s", "s2", "sc1", "s2c1^2", "sc1^2", "s2c1")),),
)

_WORDS = {
    "e": (0, 0), "c1": (0, 1), "c1^2": (0, 2),
    "s": (1, 0), "sc1": (1, 1), "sc1^2": (1, 2),
    "s2": (2, 0), "s2c1": (2, 1), "s2c1^2": (2, 2),
}


def e_c1_catalog():
    """The nine validated rings over Z3 x Z3 from the word-form catalog."""
    g = grp.AbelianGroup([3, 3])
    rings = []
    for (form,) in E_C1_FORMS:
        classes = [[(0, 0)]] + [[_WORDS[w] for w in c] for c in form]
        rings.append(sr.validate(g, classes))
    return rings


def c1_preserving_automorphisms(group):
    """The rows of `group.automorphisms` that map C1 onto itself."""
    c1 = np.flatnonzero(sr.generated(group, [sr.canonical_c1(group)]))
    auts = grp.automorphisms(group)
    return auts[np.isin(auts[:, c1], c1).all(axis=1)]


# -- structural checks shared by claims and tests ------------------------------


def _member_tuples(group, row):
    """The residue tuples of the members of an indicator row, for messages."""
    return [group.elements[i] for i in np.flatnonzero(row)]


def tensor_decomposes_with_rank2_factor(ring):
    """A = A_H (x) A_L with rk(A_H) = 2 and |L| <= 3 <= |H|."""
    g = ring.group
    subs = ring.a_subgroups()
    orders = subs.sum(1)
    for h in subs[orders >= 3]:
        for l in subs[orders <= 3]:
            if h.sum() * l.sum() != g.size or (h & l).sum() != 1:  # G = H x L
                continue
            harr, larr = np.flatnonzero(h), np.flatnonzero(l)
            if len(np.unique(ring.class_of[harr])) != 2:  # the rank of A_H
                continue
            # G = H x L; label a + b by the classes of a and b.  The products
            # XY are the classes iff the labels are class constant and as many.
            label = np.empty(g.size, dtype=np.int64)
            pairs = ring.class_of[harr][:, None] * ring.rank + ring.class_of[larr]
            label[g.mul_table[np.ix_(harr, larr)]] = pairs
            if ring.is_class_constant(label) and len(np.unique(label)) == ring.rank:
                return True
    return False


def wreath_section_trichotomy(ring):
    """Some proper U/L-wreath section has |U/L| in {1, 3}, or has |L| = 3
    with the restriction to U having trivial radical."""
    for upper, lower in cons.gw_sections(ring):
        if upper.sum() // lower.sum() in (1, 3):
            return True
        if lower.sum() == 3 and ring.restrict(upper).ring_radical().sum() == 1:
            return True
    return False


def catalog_keys(n):
    """Keys of every ring Cayley-isomorphic to a catalog ring over
    Z3 x Z3^n: the ten Table 1 rows and rows 6..9 with the other resolution
    of c1, closed once under Aut(D)."""
    catalog = [cons.table1(i, n) for i in range(10)]
    catalog += [cons.table1(i, n, mirror=True) for i in range(6, 10)]
    d = catalog[0].group
    tables = grp.generating_subset(grp.automorphisms(d))
    return sr.orbit_keys([c.canonical_key() for c in catalog], tables)


# -- claim runner --------------------------------------------------------------


@dataclass
class Claim:
    id: str
    status: str  # "pass" | "fail" | "budget"
    detail: str
    seconds: float


@dataclass
class Report:
    claims: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.status == "pass" for c in self.claims)

    def to_json_dict(self):
        return {
            "claims": [
                {
                    "id": c.id,
                    "status": c.status,
                    "detail": c.detail,
                    "seconds": round(c.seconds, 3),
                }
                for c in self.claims
            ]
        }


def _run(report, claim_id, fn, deadline):
    """Run one claim into the report; a claim due to start after the
    deadline does not run and is recorded as `budget`."""
    start = time.monotonic()
    if deadline is not None and start >= deadline:
        report.claims.append(Claim(claim_id, "budget", "not started: time limit reached", 0.0))
        return
    try:
        detail = fn()
        status = "pass"
        detail = detail or "ok"
    except BudgetExceeded as e:
        status, detail = "budget", str(e)
    except AssertionError as e:
        status, detail = "fail", str(e) or "assertion failed"
    report.claims.append(Claim(claim_id, status, detail, time.monotonic() - start))


def run_claims(n, time_limit=None, jobs=1, progress=None):
    """Verify the desk-scale claims for D = Z3 x Z3^n; returns a Report.

    `time_limit` (seconds) sets one deadline for the whole run: the long
    claims check it as they go, and a claim due to start after it is
    recorded as `budget` without running.
    """
    if not 1 <= n <= 3:
        raise ValueError("n must be 1, 2 or 3")
    report = Report()
    say = progress or (lambda s: None)
    d = grp.AbelianGroup([3, 3 ** n])
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    state = {}

    def claim_enumerate():
        left = deadline - time.monotonic() if deadline is not None else None
        state["rings"] = enumerate_srings(d, time_limit=left, jobs=jobs)
        return "%d S-rings over %s (regression constant)" % (
            len(state["rings"]),
            list(d.orders),
        )

    def claim_schurian_all():
        rings = state["rings"]
        checked = 0
        for ring in rings:
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetExceeded(
                    "schurity verified for %d/%d rings before the time limit"
                    % (checked, len(rings))
                )
            rep = sch.is_schurian(ring)
            assert rep.schurian, "non-schurian ring found: %s" % ring.to_json()
            checked += 1
        return "all %d rings schurian" % checked

    def claim_e_c1_classes():
        e = grp.AbelianGroup([3, 3])
        c1 = sr.generated(e, [sr.canonical_c1(e)])
        withc1 = [r for r in enumerate_srings(e) if r.is_class_constant(c1)]
        maps = c1_preserving_automorphisms(e)
        classes = classify_up_to_cayley(withc1, maps=maps)
        assert len(classes) == 9, "expected 9 classes, got %d" % len(classes)
        reps = [rep.canonical_key() for rep, _ in classes]
        tables = grp.generating_subset(maps)
        least = [min(sr.orbit_keys([f.canonical_key()], tables)) for f in e_c1_catalog()]
        assert set(least) <= set(reps), "a catalog form matches no class"
        assert sorted(least) == reps, "classes and catalog forms must biject"
        return "9 classes matching the catalog forms"

    def claim_catalog_rows():
        for row in range(10):
            ring = cons.table1(row, n)  # raises on size mismatch
            assert ring.is_regular(), "row %d not regular" % row
            assert ring.ring_radical().sum() == 1, "row %d has nontrivial radical" % row
            assert sch.is_schurian(ring).schurian, "row %d not schurian" % row
        return "sizes %s verified; rings regular, trivial-radical, schurian" % (
            cons.CATALOG_SIZES,
        )

    def claim_regular_classification():
        rings = state["rings"]
        reg = [r for r in rings if r.is_regular() and r.ring_radical().sum() == 1]
        keys = catalog_keys(n)
        for ring in reg:
            assert ring.canonical_key() in keys, (
                "regular trivial-radical ring not in catalog: %s" % ring.to_json()
            )
        return "%d regular trivial-radical rings all catalogued" % len(reg)

    def claim_nonregular_tensor():
        rings = state["rings"]
        nonreg = [
            r for r in rings if not r.is_regular() and r.ring_radical().sum() == 1
        ]
        for ring in nonreg:
            assert tensor_decomposes_with_rank2_factor(ring), (
                "nonregular trivial-radical ring fails tensor split: %s"
                % ring.to_json()
            )
        return "%d nonregular trivial-radical rings decompose" % len(nonreg)

    def claim_nontrivial_radical():
        rings = state["rings"]
        wild = [r for r in rings if r.ring_radical().sum() > 1]
        for ring in wild:
            assert wreath_section_trichotomy(ring), (
                "no admissible wreath section: %s" % ring.to_json()
            )
        return "%d nontrivial-radical rings admit sections" % len(wild)

    def claim_section_regular_orbits():
        full = np.ones(d.size, dtype=bool)
        count = 0
        for row in range(6):
            ring = cons.table1(row, n)
            subs = ring.a_subgroups()
            for low in subs[subs.sum(1) == 3]:
                quot = ring.quotient_ring(full, low)
                aut = sch.scheme_automorphisms(quot)
                stab = aut.point_stabilizer(0)
                assert stab.has_faithful_regular_orbit(), (
                    "no faithful regular orbit: row %d, L=%s" % (row, _member_tuples(d, low))
                )
                count += 1
        return "%d (row, L) pairs verified" % count

    def claim_property_suite():
        rings = state["rings"]
        for ring in rings:
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetExceeded("property suite timed out")
            check_structure_constant_identity(ring)
            check_product_sets(ring)
            check_coset_intersections(ring)
            check_generated_and_radical(ring)
            check_power_maps(ring)
            check_torsion_power_sets(ring)
            check_separating_subgroups(ring)
            if len(d.orders) == 2:
                check_order_layer_cosets(ring)
        return "all per-ring properties hold for %d rings" % len(state["rings"])

    say("claim enumerate")
    _run(report, "enumerate", claim_enumerate, deadline)
    if report.claims[-1].status == "pass":
        say("claim schurian-all")
        _run(report, "schurian-all", claim_schurian_all, deadline)
    say("claim e-c1-classes")
    _run(report, "e-c1-classes", claim_e_c1_classes, deadline)
    if n >= 2:
        say("claim catalog-rows")
        _run(report, "catalog-rows", claim_catalog_rows, deadline)
    if report.claims[0].status == "pass":
        if n == 2:
            say("claim regular-classification")
            _run(report, "regular-classification", claim_regular_classification, deadline)
            say("claim nonregular-tensor")
            _run(report, "nonregular-tensor", claim_nonregular_tensor, deadline)
            say("claim nontrivial-radical")
            _run(report, "nontrivial-radical", claim_nontrivial_radical, deadline)
    if n >= 2:
        say("claim section-regular-orbits")
        _run(report, "section-regular-orbits", claim_section_regular_orbits, deadline)
    if report.claims[0].status == "pass":
        say("claim property-suite")
        _run(report, "property-suite", claim_property_suite, deadline)
    return report


# -- per-ring property checks (exhaustive at desk scale) -----------------------

_MAX_POWERSET_RANK = 12  # check_torsion_power_sets covers all A-sets up to this rank


def check_structure_constant_identity(ring):
    """|Z| c^{Z^-1}_{X,Y} = |X| c^{X^-1}_{Y,Z} = |Y| c^{Y^-1}_{Z,X}.

    One class X at a time, in (rank, rank) arrays over (y, z).  X's
    product block read at the least member of each Z^-1 gives the first
    side, and its transpose the third, because XZ = ZX.  The middle side
    counts the b in Z with m - b in Y, m the least member of X^-1: one
    bincount of class pairs.  The first violation in (x, y, z) order is
    named."""
    g, r = ring.group, ring.rank
    minima = np.array([arr[0] for arr in ring.class_arrays])[ring.inverse_classes]
    sizes = np.array([len(cl) for cl in ring.classes])
    for x in range(r):
        # d[y, z] = |Z| c^{Z^-1}_{X,Y}, and d[z, y] = |Y| c^{Y^-1}_{Z,X}
        d = ring.products(x)[:, minima] * sizes
        pairs = ring.class_of[g.mul_table[minima[x], g.inv_table]] * r + ring.class_of
        mid = np.bincount(pairs, minlength=r * r).reshape(r, r) * sizes[x]
        bad = (d != d.T) | (d != mid)
        assert not bad.any(), (x, *np.argwhere(bad)[0].tolist())


def check_product_sets(ring):
    """XY is an A-set; XY is a single class when |X| = 1 or |Y| = 1.

    One class X at a time; the first failing (x, y) in row-major order is
    named."""
    thin = np.array([len(c) == 1 for c in ring.classes])
    # an A-set is a single class iff it holds a single class minimum
    minima = ring.rep_of == np.arange(ring.group.size)
    for x in range(ring.rank):
        support = ring.products(x) > 0
        single = (support & minima).sum(-1) == 1
        bad = ~ring.is_class_constant(support) | ((thin[x] | thin) & ~single)
        assert not bad.any(), (x, int(np.argmax(bad)))


def check_coset_intersections(ring):
    """|X & Hg| is constant over the cosets meeting a class X."""
    g = ring.group
    own = (ring.class_of, np.arange(g.size))
    for h in ring.a_subgroups():
        # |C & (H + x)| for C the class of x, constant on C iff the check holds
        meet = sr.coset_counts(g, ring.class_rows, np.flatnonzero(h))[own]
        assert ring.is_class_constant(meet), _member_tuples(g, h)


def check_generated_and_radical(ring):
    """<X> and rad(X) are A-subgroups for every class (hence every A-set)."""
    g = ring.group
    gen = np.array([sr.generated(g, arr) for arr in ring.class_arrays])
    rad = np.array([sr.radical_row(g, row) for row in ring.class_rows])
    ok = ring.is_class_constant(gen) & ring.is_class_constant(rad)
    assert ok.all(), sorted(ring.classes[int(np.argmin(ok))])


def check_power_maps(ring):
    """X^(m) is a class for every class X and every m coprime to |G|."""
    # x -> x^m permutes G, so it maps every class onto a class iff the
    # class of x^m is constant on each class
    ok = ring.is_class_constant(ring.class_of[sr.multiplier_maps(ring.group)])
    assert ok.all(), ring.group.multiplier_exponents()[int(np.argmin(ok))]


def check_torsion_power_sets(ring):
    """X^[p] is an A-set for A-sets X, p prime dividing |G|.

    Exhaustive over single classes and unions of two classes always, and
    over the full A-set lattice when the rank allows; the unions are class
    masks read through `class_of`, one batch per prime.
    """
    g, r = ring.group, ring.rank
    if r <= _MAX_POWERSET_RANK:
        masks = (np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1 == 1
    else:
        i, j = np.triu_indices(r)  # i == j gives the single classes
        masks = (np.arange(r) == i[:, None]) | (np.arange(r) == j[:, None])
    rows = masks[:, ring.class_of]
    # by Cauchy's theorem the primes dividing |G| are the prime element orders
    for p in sorted({int(o) for o in g.order_table if o > 1 and all(o % d for d in range(2, o))}):
        ok = ring.is_class_constant(sr.torsion_power_rows(g, rows, p))
        assert ok.all(), (p, np.flatnonzero(rows[np.argmin(ok)]).tolist())


def check_separating_subgroups(ring):
    """If H <= rad(X \\ H), X meets both H and its complement, then
    X = <X> \\ rad(X) and rad(X) <= H & <X>."""
    g = ring.group
    rows = ring.class_rows
    for h in grp.subgroups(g):
        outside = rows & ~h
        # H <= rad(Y) iff every H-coset that meets Y lies in Y
        counts = sr.coset_counts(g, outside, np.flatnonzero(h))
        split = (rows & h).any(-1) & outside.any(-1) & ((counts == h.sum()) | ~outside).all(-1)
        for ci in np.flatnonzero(split):
            gen = sr.generated(g, ring.class_arrays[ci])
            rad = sr.radical_row(g, rows[ci])
            ok = (rows[ci] == gen & ~rad).all() and not (rad & ~(h & gen)).any()
            assert ok, (sorted(ring.classes[ci]), _member_tuples(g, h))


def check_order_layer_cosets(ring):
    """Classes over Z3 x Z3^n holding two elements of distinct orders >= 3
    absorb the canonical order-3 coset of the larger one."""
    g = ring.group
    if len(g.orders) != 2:
        return
    c1 = g.index[sr.canonical_c1(g)]
    c1sq, mul = g.inv_table[c1], g.mul_table
    for c in ring.classes:
        for a in c:
            oa = int(g.order_table[a])
            if oa < 9:
                continue
            if any(3 <= int(g.order_table[b]) < oa for b in c):
                assert mul[a, c1] in c and mul[a, c1sq] in c, (sorted(c), a)


def check_cyclic_class_shapes(ring):
    """Over a cyclic 3-group every class is an orbit of some K <= Aut(G) or
    equals <X> \\ rad(X)."""
    g = ring.group
    auts = grp.automorphisms(g)
    for c, arr, row in zip(ring.classes, ring.class_arrays, ring.class_rows):
        stab = auts[np.isin(auts[:, arr], arr).all(axis=1)]
        orbit = orbit_of(stab, arr[0])
        if orbit == c:
            continue
        assert (row == sr.generated(g, arr) & ~sr.radical(g, arr)).all(), sorted(c)
