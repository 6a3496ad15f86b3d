"""Machine verification harness for the desk-scale classification claims.

Each claim runs independently and reports pass/fail/budget with timings;
the CLI's `verify-paper` subcommand and the acceptance test suite are thin
wrappers around `run_claims`.
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
from .groupring import set_product_vector


# -- cyclotomic partition closure ---------------------------------------------


def _orbit_labels(tables, n):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t in tables:
        for i in range(n):
            ri, rj = find(i), find(t[i])
            if ri != rj:
                if ri < rj:
                    parent[rj] = ri
                else:
                    parent[ri] = rj
    return tuple(find(i) for i in range(n))


def _join_labels(p, q, n):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in (p[i], q[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                if ri < rj:
                    parent[rj] = ri
                else:
                    parent[ri] = rj
    return tuple(find(i) for i in range(n))


def _relabel(lbl, table, n):
    """Canonical labels of the image partition under an automorphism table."""
    tmp = [0] * n
    for i in range(n):
        tmp[table[i]] = lbl[i]
    first = {}
    out = [0] * n
    for pos in range(n):
        b = tmp[pos]
        if b not in first:
            first[b] = pos
        out[pos] = first[b]
    return tuple(out)


def cyclotomic_partition_orbits(group, deadline=None):
    """(representatives, all distinct partitions) of {Orb(K, G) : K <= Aut(G)}.

    The orbit partition of any subgroup is the join of the orbit partitions
    of its cyclic subgroups, so the join-closure of the cyclic partitions
    covers every K without walking the subgroup lattice of Aut(G).  Joins
    commute with the Aut(G)-relabeling action and the cyclic partitions form
    an invariant set, so expanding one representative per relabeling orbit
    reaches the whole closure.
    """
    n = group.size
    auts = grp.automorphisms(group)
    tables = [f.table for f in auts]
    gens = {}
    for t in tables:
        gens.setdefault(_orbit_labels([t], n), True)
    gen_list = list(gens)
    known = set()
    reps = []
    queue = []

    def register(lbl):
        if lbl in known:
            return
        orbit = {_relabel(lbl, t, n) for t in tables}
        known.update(orbit)
        rep = min(orbit)
        reps.append(rep)
        queue.append(rep)

    for lbl in gen_list:
        register(lbl)
    while queue:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("cyclotomic partition closure timed out")
        p = queue.pop()
        for q in gen_list:
            j = _join_labels(p, q, n)
            if j not in known:
                register(j)
    return sorted(reps), known


def labels_to_classes(labels):
    blocks = {}
    for i, l in enumerate(labels):
        blocks.setdefault(l, []).append(i)
    return [frozenset(b) for b in blocks.values()]


def abelian_group_orders_up_to(max_order):
    """Canonical orders lists of every abelian group of order 2..max_order."""

    def exponent_partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(1, k + 1):
            for rest in exponent_partitions(k - first):
                if not rest or first <= rest[0]:
                    yield (first,) + rest

    import itertools

    out = []
    for n in range(2, max_order + 1):
        fac = sorted(_prime_factors_with_multiplicity(n).items())
        combos = [list(exponent_partitions(k)) for _, k in fac]
        for combo in itertools.product(*combos):
            factors = []
            for (p, _), parts in zip(fac, combo):
                factors.extend(p ** a for a in parts)
            out.append(sorted(factors))
    return out


def _prime_factors_with_multiplicity(m):
    out = {}
    p = 2
    while m > 1:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    return out


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
    c1 = sr.canonical_c1(group)
    c1_sub = sr.generated(group, [c1]).members
    return [
        f
        for f in grp.automorphisms(group)
        if frozenset(f.apply_index(i) for i in c1_sub) == c1_sub
    ]


# -- structural checks shared by claims and tests ------------------------------


def tensor_decomposes_with_rank2_factor(ring):
    """A = A_H (x) A_L with rk(A_H) = 2 and |L| <= 3 <= |H|."""
    g = ring.group
    subs = ring.a_subgroups()
    for h in subs:
        if not 3 <= h.order:
            continue
        for l in subs:
            if l.order > 3 or h.order * l.order != g.size:
                continue
            if h.members & l.members != {0}:
                continue
            if ring.restrict(h).rank != 2:
                continue
            hcls = [c for c in ring.classes if c <= h.members]
            lcls = [c for c in ring.classes if c <= l.members]
            prod = set()
            for x in hcls:
                for y in lcls:
                    prod.add(
                        frozenset(int(g.mul_table[a, b]) for a in x for b in y)
                    )
            if prod == set(ring.classes):
                return True
    return False


def wreath_section_trichotomy(ring):
    """Some proper U/L-wreath section has |U/L| in {1, 3}, or has |L| = 3
    with the restriction to U having trivial radical."""
    for sec in cons.gw_sections(ring):
        q = sec.upper.order // sec.lower.order
        if q in (1, 3):
            return True
        if sec.lower.order == 3 and ring.restrict(sec.upper).ring_radical().order == 1:
            return True
    return False


def matches_catalog(ring, catalog, maps):
    return any(sr.cayley_isomorphic(ring, c, maps=maps) is not None for c in catalog)


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


def _run(report, claim_id, fn):
    start = time.monotonic()
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
    """Verify the desk-scale claims for D = Z3 x Z3^n; returns a Report."""
    if not 1 <= n <= 3:
        raise ValueError("n must be 1, 2 or 3")
    report = Report()
    say = progress or (lambda s: None)
    d = grp.AbelianGroup([3, 3 ** n])
    deadline = time.monotonic() + time_limit if time_limit else None
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
            if deadline is not None and time.monotonic() > deadline:
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
        rings = enumerate_srings(e)
        withc1 = [
            r
            for r in rings
            if r.is_a_set(sr.generated(e, [sr.canonical_c1(e)]).members)
        ]
        maps = c1_preserving_automorphisms(e)
        classes = classify_up_to_cayley(withc1, maps=maps)
        assert len(classes) == 9, "expected 9 classes, got %d" % len(classes)
        catalog = e_c1_catalog()
        matched = set()
        for form in catalog:
            hits = [
                i
                for i, (rep, _) in enumerate(classes)
                if sr.cayley_isomorphic(form, rep, maps=maps) is not None
            ]
            assert len(hits) == 1, "catalog form must match exactly one class"
            matched.add(hits[0])
        assert matched == set(range(9)), "classes and catalog forms must biject"
        return "9 classes matching the catalog forms"

    def claim_catalog_rows():
        for row in range(10):
            ring = cons.table1(row, n)  # raises on size mismatch
            assert ring.is_regular(), "row %d not regular" % row
            assert ring.ring_radical().order == 1, "row %d has nontrivial radical" % row
            assert sch.is_schurian(ring).schurian, "row %d not schurian" % row
        return "sizes %s verified; rings regular, trivial-radical, schurian" % (
            cons.CATALOG_SIZES,
        )

    def claim_regular_classification():
        rings = state["rings"]
        reg = [r for r in rings if r.is_regular() and r.ring_radical().order == 1]
        catalog = [cons.table1(i, n) for i in range(10)]
        catalog += [cons.table1(i, n, mirror=True) for i in range(6, 10)]
        maps = grp.automorphisms(d)
        for ring in reg:
            assert matches_catalog(ring, catalog, maps), (
                "regular trivial-radical ring not in catalog: %s" % ring.to_json()
            )
        return "%d regular trivial-radical rings all catalogued" % len(reg)

    def claim_nonregular_tensor():
        rings = state["rings"]
        nonreg = [
            r for r in rings if not r.is_regular() and r.ring_radical().order == 1
        ]
        for ring in nonreg:
            assert tensor_decomposes_with_rank2_factor(ring), (
                "nonregular trivial-radical ring fails tensor split: %s"
                % ring.to_json()
            )
        return "%d nonregular trivial-radical rings decompose" % len(nonreg)

    def claim_nontrivial_radical():
        rings = state["rings"]
        wild = [r for r in rings if r.ring_radical().order > 1]
        for ring in wild:
            assert wreath_section_trichotomy(ring), (
                "no admissible wreath section: %s" % ring.to_json()
            )
        return "%d nontrivial-radical rings admit sections" % len(wild)

    def claim_section_regular_orbits():
        full = grp.full_subgroup(d)
        count = 0
        for row in range(6):
            ring = cons.table1(row, n)
            for low in ring.a_subgroups():
                if low.order != 3:
                    continue
                quot = ring.quotient_ring(sr.SectionRef(full, low))
                aut = sch.scheme_automorphisms(quot)
                stab = aut.point_stabilizer(0)
                assert stab.has_faithful_regular_orbit(), (
                    "no faithful regular orbit: row %d, L=%s" % (row, low)
                )
                count += 1
        return "%d (row, L) pairs verified" % count

    def claim_property_suite():
        rings = state["rings"]
        for ring in rings:
            if deadline is not None and time.monotonic() > deadline:
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
    _run(report, "enumerate", claim_enumerate)
    if report.claims[-1].status == "pass":
        say("claim schurian-all")
        _run(report, "schurian-all", claim_schurian_all)
    say("claim e-c1-classes")
    _run(report, "e-c1-classes", claim_e_c1_classes)
    if n >= 2:
        say("claim catalog-rows")
        _run(report, "catalog-rows", claim_catalog_rows)
    if report.claims[0].status == "pass":
        if n == 2:
            say("claim regular-classification")
            _run(report, "regular-classification", claim_regular_classification)
            say("claim nonregular-tensor")
            _run(report, "nonregular-tensor", claim_nonregular_tensor)
            say("claim nontrivial-radical")
            _run(report, "nontrivial-radical", claim_nontrivial_radical)
    if n >= 2:
        say("claim section-regular-orbits")
        _run(report, "section-regular-orbits", claim_section_regular_orbits)
    if report.claims[0].status == "pass":
        say("claim property-suite")
        _run(report, "property-suite", claim_property_suite)
    return report


# -- per-ring property checks (exhaustive at desk scale) -----------------------


def check_structure_constant_identity(ring):
    """|Z| c^{Z^-1}_{X,Y} = |X| c^{X^-1}_{Y,Z} = |Y| c^{Y^-1}_{Z,X}."""
    for x in range(ring.rank):
        for y in range(ring.rank):
            for z in range(ring.rank):
                lhs = len(ring.classes[z]) * ring.structure_constant(
                    x, y, ring.inverse_class(z)
                )
                mid = len(ring.classes[x]) * ring.structure_constant(
                    y, z, ring.inverse_class(x)
                )
                rhs = len(ring.classes[y]) * ring.structure_constant(
                    z, x, ring.inverse_class(y)
                )
                assert lhs == mid == rhs, (x, y, z)


def check_product_sets(ring):
    """XY is an A-set; XY is a single class when |X| = 1 or |Y| = 1."""
    for x in range(ring.rank):
        for y in range(ring.rank):
            v = ring.product_vector(x, y)
            support = frozenset(int(i) for i in np.nonzero(v)[0])
            assert ring.is_a_set(support), (x, y)
            if len(ring.classes[x]) == 1 or len(ring.classes[y]) == 1:
                assert support in set(ring.classes), (x, y)


def check_coset_intersections(ring):
    """|X & Hg| is constant over the cosets meeting a class X."""
    g = ring.group
    for h in ring.a_subgroups():
        arr = np.array(sorted(h.members), dtype=np.int64)
        for c in ring.classes:
            sizes = set()
            seen_cosets = set()
            for x in c:
                coset = frozenset(int(v) for v in g.mul_table[arr, x])
                if coset in seen_cosets:
                    continue
                seen_cosets.add(coset)
                sizes.add(len(coset & c))
            assert len(sizes) <= 1, (h, c)


def check_generated_and_radical(ring):
    """<X> and rad(X) are A-subgroups for every class (hence every A-set)."""
    g = ring.group
    for c in ring.classes:
        assert ring.is_a_set(sr.generated(g, c).members), c
        assert ring.is_a_set(sr.radical(g, c).members), c


def check_power_maps(ring):
    """X^(m) is a class for every class X and every m coprime to |G|."""
    g = ring.group
    classes = set(ring.classes)
    for m in g.multiplier_exponents():
        pm = g.power_map(m)
        for c in ring.classes:
            assert frozenset(int(pm[i]) for i in c) in classes, (m, c)


def check_torsion_power_sets(ring, max_rank_for_powerset=12):
    """X^[p] is an A-set for A-sets X, p prime dividing |G|.

    Exhaustive over single classes and unions of two classes always, and
    over the full A-set lattice when the rank allows.
    """
    import itertools

    g = ring.group
    for p in sorted(_prime_factors(g.size)):
        sets = []
        for i in range(ring.rank):
            sets.append(ring.classes[i])
            for j in range(i + 1, ring.rank):
                sets.append(ring.classes[i] | ring.classes[j])
        if ring.rank <= max_rank_for_powerset:
            for k in range(3, ring.rank + 1):
                for combo in itertools.combinations(range(ring.rank), k):
                    u = frozenset().union(*(ring.classes[i] for i in combo))
                    sets.append(u)
        for xs in sets:
            assert ring.is_a_set(ring.power_set_p(xs, p)), (p, sorted(xs))


def _prime_factors(m):
    out = set()
    p = 2
    while m > 1:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    return out


def check_separating_subgroups(ring):
    """If H <= rad(X \\ H), X meets both H and its complement, then
    X = <X> \\ rad(X) and rad(X) <= H & <X>."""
    g = ring.group
    subs = grp.subgroups(g)
    for c in ring.classes:
        for h in subs:
            inside = c & h.members
            outside = c - h.members
            if not inside or not outside:
                continue
            if not h.members <= sr.radical(g, outside).members:
                continue
            gen = sr.generated(g, c).members
            rad = sr.radical(g, c).members
            assert c == gen - rad, (sorted(c), h)
            assert rad <= (h.members & gen), (sorted(c), h)


def check_order_layer_cosets(ring):
    """Classes over Z3 x Z3^n holding two elements of distinct orders >= 3
    absorb the canonical order-3 coset of the larger one."""
    g = ring.group
    if len(g.orders) != 2:
        return
    c1 = g.index[sr.canonical_c1(g)]
    c1sq = g.iinv(c1)
    for c in ring.classes:
        orders = sorted({int(g.order_table[i]) for i in c})
        for a in c:
            oa = int(g.order_table[a])
            if oa < 9:
                continue
            if any(3 <= int(g.order_table[b]) < oa for b in c):
                assert g.imul(a, c1) in c and g.imul(a, c1sq) in c, (sorted(c), a)


def check_cyclic_class_shapes(ring):
    """Over a cyclic 3-group every class is an orbit of some K <= Aut(G) or
    equals <X> \\ rad(X)."""
    g = ring.group
    auts = grp.automorphisms(g)
    for c in ring.classes:
        stab = [f for f in auts if f.apply_set(c) == c]
        orbits = {}
        parent = list(range(g.size))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for f in stab:
            for i, t in enumerate(f.table):
                ri, rt = find(i), find(t)
                if ri != rt:
                    parent[ri] = rt
        rep = find(next(iter(c)))
        orbit = frozenset(i for i in range(g.size) if find(i) == rep)
        if orbit == c:
            continue
        gen = sr.generated(g, c).members
        rad = sr.radical(g, c).members
        assert c == gen - rad, sorted(c)
