import time

import pytest

from schur import AbelianGroup, BudgetExceeded, CapExceeded, automorphisms
from schur.enumeration import (
    _new_stats,
    classify_up_to_cayley,
    enumerate_srings,
    enumerate_srings_brute,
    filter_rings,
)

from conftest import rings_over


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [9], [3, 3]])
def test_oracle_equivalence(orders):
    g = AbelianGroup(orders)
    fast = [r.canonical_key() for r in enumerate_srings(g)]
    brute = [r.canonical_key() for r in enumerate_srings_brute(g)]
    assert fast == brute


def test_known_counts_regression():
    # regression constants derived by this artifact (no published values)
    expect = {(2,): 1, (3,): 2, (4,): 3, (2, 2): 5, (9,): 7, (3, 3): 40, (27,): 25, (3, 9): 391}
    for key, count in expect.items():
        assert len(rings_over(*key)) == count, key


def test_brute_oracle_size_cap():
    with pytest.raises(CapExceeded):
        enumerate_srings_brute(AbelianGroup([3, 9]))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_srings(AbelianGroup([3, 3, 3, 3, 3]))
    with pytest.raises(CapExceeded):
        enumerate_srings(AbelianGroup([3, 9]), cap=9)


def test_closed_under_automorphisms_and_rational_conjugation():
    for orders in ([9], [3, 3]):
        g = AbelianGroup(orders)
        rings = rings_over(*orders)
        keys = {r.canonical_key() for r in rings}
        for f in automorphisms(g):
            for ring in rings:
                moved = sorted(
                    tuple(sorted(f.apply_index(i) for i in c)) for c in ring.classes
                )
                assert tuple(moved) in keys
        for m in g.multiplier_exponents():
            pm = g.power_map(m)
            for ring in rings:
                conj = sorted(
                    tuple(sorted(int(pm[i]) for i in c)) for c in ring.classes
                )
                assert tuple(conj) in keys


def test_parallel_jobs_same_result():
    for orders in ([3, 3], [2, 8]):
        g = AbelianGroup(orders)
        stats1, stats2 = _new_stats(), _new_stats()
        plain = [r.canonical_key() for r in enumerate_srings(g, stats=stats1)]
        par = [r.canonical_key() for r in enumerate_srings(g, jobs=2, stats=stats2)]
        assert plain == par, orders
        assert stats1 == stats2, orders
        assert stats1["leaves"] == len(plain), orders


def test_parallel_jobs_share_one_deadline():
    g = AbelianGroup([2, 2, 4])
    start = time.monotonic()
    enumerate_srings(g)
    # a quarter of the serial time: less than two workers need for the whole
    # search, more than any one root subtree needs
    limit = (time.monotonic() - start) / 4
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        enumerate_srings(g, jobs=2, time_limit=limit)
    assert time.monotonic() - start < limit + 1.0


def test_warns_above_27_and_honors_time_limit():
    from schur import BudgetExceeded

    with pytest.warns(UserWarning):
        with pytest.raises(BudgetExceeded):
            enumerate_srings(AbelianGroup([3, 27]), time_limit=1e-9)


def test_classify_orbit_sizes(rings_z3z3):
    g = rings_z3z3[0].group
    classes = classify_up_to_cayley(rings_z3z3)
    assert sum(size for _, size in classes) == len(rings_z3z3)
    aut_order = len(automorphisms(g))
    for rep, size in classes:
        assert aut_order % size == 0
    # ZG is fixed by every automorphism
    zg_class = next((rep, size) for rep, size in classes if rep.rank == 9)
    assert zg_class[1] == 1


def test_filter_rings(rings_z3z9):
    assert filter_rings(rings_z3z9, lambda r: True) == rings_z3z9
    reg = filter_rings(rings_z3z9, "regular")
    triv = filter_rings(reg, "trivial-radical")
    assert len(triv) == 53  # regression constant
    both = filter_rings(rings_z3z9, "nontrivial-radical")
    assert len(both) + len(filter_rings(rings_z3z9, "trivial-radical")) == len(rings_z3z9)
    with pytest.raises(KeyError):
        filter_rings(rings_z3z9, "bogus")


def test_every_output_validates(rings_z27):
    from schur.sring import validate

    for ring in rings_z27:
        validate(ring.group, ring.classes)
