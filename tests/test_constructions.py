import itertools

import numpy as np
import pytest

from schur import (
    AbelianGroup,
    automorphisms,
    cyclotomic,
    generated,
    gw_sections,
    is_generalized_wreath,
    is_schurian,
    map_from_generator_images,
    table1,
    tensor,
    validate,
    wreath,
)
from schur.constructions import CATALOG_SIZES, catalog_maps
from schur.group import map_closure

from conftest import rings_over, scan_isomorphism


def test_cyclotomic_identity_gives_full_group_ring():
    g = AbelianGroup([3, 3])
    ring = cyclotomic(g, [np.arange(g.size)])
    assert ring.rank == 9


def test_cyclotomic_inversion_pairs():
    g = AbelianGroup([9])
    inv = map_from_generator_images(g, [(8,)])
    ring = cyclotomic(g, [inv])
    assert sorted(len(c) for c in ring.classes) == [1, 2, 2, 2, 2]


def test_cyclotomic_rejects_non_automorphism():
    g = AbelianGroup([9])
    tripler = map_from_generator_images(g, [(3,)])
    assert len(set(tripler.tolist())) < g.size
    swap12 = [0, 2, 1, 3, 4, 5, 6, 7, 8]  # a bijection, not a homomorphism
    out_of_range = list(range(8)) + [9]
    inv = map_from_generator_images(g, [(8,)])
    for bad in (tripler, swap12, out_of_range, list(range(8)), list(range(10))):
        with pytest.raises(ValueError):
            cyclotomic(g, [inv, bad])


def test_cyclotomic_class_sizes_divide_group_order():
    d, maps = catalog_maps(6, 2)
    ring = cyclotomic(d, maps)
    assert all(len(c) in (1, 3) for c in ring.classes)


def test_tensor_rank_and_identity():
    z3 = AbelianGroup([3])
    zg = validate(z3, [[t] for t in z3.elements])
    rank2 = validate(z3, [[(0,)], [(1,), (2,)]])
    t = tensor(zg, zg)
    assert t.group.orders == (3, 3) and t.rank == 9
    assert tensor(rank2, zg).rank == 6


def test_wreath_rank_formula():
    z3 = AbelianGroup([3])
    zg = validate(z3, [[t] for t in z3.elements])
    rank2 = validate(z3, [[(0,)], [(1,), (2,)]])
    assert wreath(zg, zg).rank == 5
    w = wreath(rank2, zg)
    assert w.rank == 2 + 3 - 1


def test_products_validate_exhaustively_over_z3_pairs():
    factors = rings_over(3)
    for a, b in itertools.product(factors, repeat=2):
        t = tensor(a, b)
        w = wreath(a, b)
        assert t.rank == a.rank * b.rank
        assert w.rank == a.rank + b.rank - 1


def test_schurity_transport_tensor_and_wreath():
    # all factor pairs over Z3 x Z3: both products schurian iff factors are;
    # all rings over groups of order <= 9 are schurian so products must be too
    z3 = rings_over(3)
    z9 = rings_over(9)
    for a, b in itertools.product(z3, z9):
        assert is_schurian(tensor(a, b)).schurian
        assert is_schurian(wreath(a, b)).schurian
        assert is_schurian(wreath(b, a)).schurian


def test_generalized_wreath_detection():
    z3 = AbelianGroup([3])
    zg3 = validate(z3, [[t] for t in z3.elements])
    w = wreath(zg3, zg3)
    g = w.group
    bottom, full = generated(g, [(1, 0)]), np.ones(g.size, dtype=bool)
    # U = G is vacuous
    assert is_generalized_wreath(w, full, bottom)
    # U = L recovers the wreath shape
    assert is_generalized_wreath(w, bottom, bottom)
    secs = gw_sections(w)
    assert any((u == bottom).all() and (low == bottom).all() for u, low in secs)
    with pytest.raises(ValueError):
        is_generalized_wreath(w, bottom, full)


def test_gw_sections_exclude_trivial_and_full():
    z3 = AbelianGroup([3])
    zg3 = validate(z3, [[t] for t in z3.elements])
    w = wreath(zg3, zg3)
    for upper, lower in gw_sections(w):
        assert lower.sum() > 1
        assert upper.sum() < w.group.size


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_sizes(n):
    for row in range(10):
        d, maps = catalog_maps(row, n)
        assert len(map_closure(maps)) == CATALOG_SIZES[row]
        d, maps = catalog_maps(row, n, mirror=True)
        assert len(map_closure(maps)) == CATALOG_SIZES[row]


def test_catalog_row0_is_full_group_ring():
    assert table1(0, 2).rank == 27


def test_catalog_row3_group_order():
    _, maps = catalog_maps(3, 2)
    assert len(map_closure(maps)) == 4


def test_catalog_rows_regular_trivial_radical():
    for i in range(10):
        ring = table1(i, 2)
        assert ring.is_regular()
        assert ring.ring_radical().sum() == 1


def test_catalog_generated_order_checked():
    # closure sizes are verified inside table1; a bad row would raise
    for i in range(10):
        table1(i, 2)
    with pytest.raises(IndexError):
        table1(10, 2)
    with pytest.raises(ValueError):
        table1(0, 0)


def test_catalog_invariant_under_c1_convention_for_plain_rows():
    auts = automorphisms(AbelianGroup([3, 9]))
    for i in range(6):
        a, b = table1(i, 2), table1(i, 2, mirror=True)
        assert a.canonical_key() == b.canonical_key()
    # rows using c1 give genuinely different rings
    for i in range(6, 10):
        a, b = table1(i, 2), table1(i, 2, mirror=True)
        assert scan_isomorphism(a, b, auts) is None
