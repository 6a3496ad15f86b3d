"""Acceptance suite: one test per criterion, printing a pass line each.

Criteria 3 (n=3 part) and 10 are stretch targets behind SCHUR_STRETCH=1.
"""

import time

import numpy as np
import pytest

from schur import (
    AbelianGroup,
    automorphisms,
    is_schurian,
    table1,
)
from schur import sring as sr
from schur.constructions import CATALOG_SIZES, catalog_maps
from schur.enumeration import (
    classify_up_to_cayley,
    enumerate_srings,
)
from schur.group import map_closure
from schur.schurity import scheme_automorphisms
from schur.verify import (
    c1_preserving_automorphisms,
    check_coset_intersections,
    check_cyclic_class_shapes,
    check_generated_and_radical,
    check_order_layer_cosets,
    check_power_maps,
    check_product_sets,
    check_separating_subgroups,
    check_structure_constant_identity,
    check_torsion_power_sets,
    cyclotomic_partition_orbits,
    e_c1_catalog,
    labels_to_classes,
    tensor_decomposes_with_rank2_factor,
    wreath_section_trichotomy,
)

from conftest import (
    abelian_group_orders_up_to,
    all_small_ring_sets,
    enumerate_srings_brute,
    rings_over,
    scan_isomorphism,
    stretch,
)


def _report(name, detail, start):
    print("PASS %s: %s (%.1fs)" % (name, detail, time.time() - start))


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    for orders in ([2], [3], [4], [2, 2], [9], [3, 3]):
        g = AbelianGroup(orders)
        fast = [r.canonical_key() for r in enumerate_srings(g)]
        brute = [r.canonical_key() for r in enumerate_srings_brute(g)]
        assert fast == brute, orders
    assert time.time() - t0 < 60
    _report("criterion-1", "enumerator matches brute oracle on 6 groups", t0)


def test_criterion_2_nine_classes_over_e():
    t0 = time.time()
    e = AbelianGroup([3, 3])
    rings = rings_over(3, 3)
    c1 = sr.generated(e, [sr.canonical_c1(e)])
    withc1 = [r for r in rings if r.is_class_constant(c1)]
    maps = c1_preserving_automorphisms(e)
    classes = classify_up_to_cayley(withc1, maps=maps)
    assert len(classes) == 9
    catalog = e_c1_catalog()
    matched = {}
    for k, form in enumerate(catalog):
        hits = [
            i
            for i, (rep, _) in enumerate(classes)
            if scan_isomorphism(form, rep, maps) is not None
        ]
        assert len(hits) == 1, "form %d matched %r" % (k + 1, hits)
        matched[k] = hits[0]
    assert sorted(matched.values()) == list(range(9))
    # the catalog partitions appear verbatim among the enumerated rings
    keys = {r.canonical_key() for r in withc1}
    for form in catalog:
        assert form.canonical_key() in keys
    _report("criterion-2", "9 classes bijective with the catalog forms", t0)


def test_criterion_3_all_schurian_n1():
    t0 = time.time()
    rings = rings_over(3, 3)
    for ring in rings:
        assert is_schurian(ring).schurian
    assert time.time() - t0 < 60
    _report("criterion-3a", "all %d rings over [3,3] schurian" % len(rings), t0)


def test_criterion_3_all_schurian_n2():
    t0 = time.time()
    rings = rings_over(3, 9)
    for ring in rings:
        assert is_schurian(ring).schurian
    assert time.time() - t0 < 1800
    _report("criterion-3b", "all %d rings over [3,9] schurian" % len(rings), t0)


@stretch
def test_criterion_3_all_schurian_n3_stretch():
    t0 = time.time()
    g = AbelianGroup([3, 27])
    rings = enumerate_srings(g)
    done = 0
    for ring in rings:
        assert is_schurian(ring).schurian, ring.to_json()
        done += 1
        if done % 100 == 0:
            print("... %d/%d rings schurian" % (done, len(rings)))
    _report("criterion-3c", "all %d rings over [3,27] schurian" % len(rings), t0)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_4_catalog_rows(n):
    t0 = time.time()
    assert CATALOG_SIZES == (1, 2, 2, 4, 2, 2, 3, 6, 6, 6)
    for row in range(10):
        d, maps = catalog_maps(row, n)
        assert len(map_closure(maps)) == CATALOG_SIZES[row]
        ring = table1(row, n)  # validates; raises on size mismatch
        assert ring.is_regular()
        assert ring.ring_radical().sum() == 1
        assert is_schurian(ring).schurian
    _report("criterion-4 (n=%d)" % n, "all rows sized, regular, trivial-radical, schurian", t0)


def test_criterion_4_completeness_at_n2():
    t0 = time.time()
    rings = rings_over(3, 9)
    reg = [r for r in rings if r.is_regular() and r.ring_radical().sum() == 1]
    catalog = [table1(i, 2) for i in range(10)]
    catalog += [table1(i, 2, mirror=True) for i in range(6, 10)]
    maps = automorphisms(AbelianGroup([3, 9]))
    for ring in reg:
        assert any(
            scan_isomorphism(ring, c, maps) is not None for c in catalog
        ), ring.to_json()
    assert time.time() - t0 < 600
    _report(
        "criterion-4 (completeness)",
        "%d regular trivial-radical rings all Cayley-isomorphic to catalog rows "
        "(either resolution of the order-3 symbol)" % len(reg),
        t0,
    )


def test_criterion_5_nonregular_tensor_decomposition():
    t0 = time.time()
    rings = rings_over(3, 9)
    nonreg = [r for r in rings if not r.is_regular() and r.ring_radical().sum() == 1]
    for ring in nonreg:
        assert tensor_decomposes_with_rank2_factor(ring), ring.to_json()
    assert time.time() - t0 < 300
    _report("criterion-5", "%d nonregular trivial-radical rings split" % len(nonreg), t0)


def test_criterion_6_nontrivial_radical_sections():
    t0 = time.time()
    rings = rings_over(3, 9)
    wild = [r for r in rings if r.ring_radical().sum() > 1]
    for ring in wild:
        assert wreath_section_trichotomy(ring), ring.to_json()
    assert time.time() - t0 < 300
    _report("criterion-6", "%d nontrivial-radical rings admit sections" % len(wild), t0)


def test_criterion_7_property_suites():
    t0 = time.time()
    ring_sets = all_small_ring_sets()
    total = 0
    for key, rings in ring_sets.items():
        cyclic3 = key in ((9,), (27,))
        for ring in rings:
            check_structure_constant_identity(ring)
            check_product_sets(ring)
            check_coset_intersections(ring)
            check_generated_and_radical(ring)
            check_power_maps(ring)
            check_torsion_power_sets(ring)
            check_separating_subgroups(ring)
            if key == (3, 9):
                check_order_layer_cosets(ring)
            if cyclic3:
                check_cyclic_class_shapes(ring)
            total += 1
    # quasi-thin: schurian, and >= 2 orthogonals gives a regular orbit
    for key, rings in ring_sets.items():
        for ring in rings:
            if not ring.is_quasi_thin():
                continue
            rep = is_schurian(ring)
            assert rep.schurian
            if len(ring.orthogonals()) >= 2:
                assert rep.aut.point_stabilizer(0).has_faithful_regular_orbit()
    assert time.time() - t0 < 1200
    _report("criterion-7", "zero violations over %d rings of order <= 27" % total, t0)


def test_criterion_8_cyclotomic_schurity_everywhere():
    t0 = time.time()
    reps_total = parts_total = 0
    for orders in abelian_group_orders_up_to(27):
        g = AbelianGroup(orders)
        reps, known = cyclotomic_partition_orbits(g)
        reps_total += len(reps)
        parts_total += len(known)
        for lbl in reps:
            ring = sr.validate(g, labels_to_classes(lbl))
            assert is_schurian(ring).schurian, (orders, lbl)
    assert time.time() - t0 < 900
    _report(
        "criterion-8",
        "%d orbit representatives covering %d cyclotomic rings over 42 groups"
        % (reps_total, parts_total),
        t0,
    )


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_9_section_regular_orbits(n):
    t0 = time.time()
    d = AbelianGroup([3, 3 ** n])
    full = np.ones(d.size, dtype=bool)
    pairs = 0
    for row in range(6):
        ring = table1(row, n)
        subs = ring.a_subgroups()
        for low in subs[subs.sum(1) == 3]:
            quot = ring.quotient_ring(full, low)
            stab = scheme_automorphisms(quot).point_stabilizer(0)
            assert stab.has_faithful_regular_orbit(), (row, np.flatnonzero(low).tolist())
            pairs += 1
    assert time.time() - t0 < 900
    _report("criterion-9 (n=%d)" % n, "%d (row, subgroup) pairs verified" % pairs, t0)


@stretch
def test_criterion_10_wielandt_negative_control():
    import numpy as np

    from schur.permaction import orbit_of
    from schur.schurity import scheme_matrix

    t0 = time.time()
    g = AbelianGroup([5, 5])
    rings = enumerate_srings(g)
    nonschurian = []
    for ring in rings:
        rep = is_schurian(ring)
        if not rep.schurian:
            nonschurian.append((ring, rep))
    assert nonschurian, "expected a non-schurian ring over [5,5]"
    ring, rep = nonschurian[0]
    # independent witness verification: every claimed automorphism preserves
    # colors, and the stabilizer orbits recomputed from scratch split a class
    m = scheme_matrix(ring)
    for gen in rep.aut.generators:
        f = np.asarray(gen)
        assert np.array_equal(m[np.ix_(f, f)], m)
    stab_gens = [p for p in rep.aut.generators if int(p[0]) == 0]
    witness_class = frozenset(
        ring.group.index[tuple(t)] for t in rep.witness["class"]
    )
    orbits_in_class = {
        frozenset(orbit_of(stab_gens, x)) for x in witness_class
    }
    assert len(orbits_in_class) >= 2
    assert frozenset().union(*orbits_in_class) <= witness_class
    _report(
        "criterion-10",
        "%d non-schurian rings over [5,5]; witness re-verified" % len(nonschurian),
        t0,
    )
