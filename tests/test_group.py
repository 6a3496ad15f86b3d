import itertools

import numpy as np
import pytest

from schur import AbelianGroup, BudgetExceeded, automorphisms, map_from_generator_images
from schur import group as group_module
from schur.group import closure, generating_subset, section, subgroups
from conftest import abelian_group_orders_up_to


def test_mul_inv_pow_examples():
    g = AbelianGroup([3, 9])
    assert g.mul((1, 2), (2, 8)) == (0, 1)
    assert g.inv((0, 0)) == (0, 0)
    assert g.pow((0, 1), 9) == (0, 0)
    assert g.pow((0, 1), -1) == (0, 8)


def test_element_order():
    g = AbelianGroup([3, 9])
    assert g.element_order((0, 0)) == 1
    assert g.element_order((0, 3)) == 3
    # derived by iterating pow until identity
    h = (1, 1)
    m = 1
    x = h
    while x != (0, 0):
        x = g.mul(x, h)
        m += 1
    assert m == 9
    assert g.element_order((1, 1)) == 9


def test_order_divides_exponent():
    g = AbelianGroup([3, 9])
    for t in g.elements:
        o = g.element_order(t)
        assert g.pow(t, o) == g.identity
        assert g.exponent % o == 0


def _oracle_subgroups(g):
    # independent oracle: close every generator pair directly
    found = {frozenset([0])}
    for a in range(g.size):
        for b in range(g.size):
            found.add(frozenset(np.flatnonzero(closure(g, [a, b])).tolist()))
    return found


@pytest.mark.parametrize(
    "orders,count", [([3], 2), ([3, 3], 6), ([3, 9], 10), ([9], 3), ([2, 2], 5)]
)
def test_subgroup_counts(orders, count):
    g = AbelianGroup(orders)
    subs = subgroups(g)
    assert subs.shape == (count, g.size) and subs.dtype == bool
    sets = {frozenset(np.flatnonzero(s).tolist()) for s in subs}
    assert len(sets) == len(subs)
    assert sets == _oracle_subgroups(g)


def test_subgroups_cap():
    # order 256 is above the default cap of 243
    with pytest.raises(BudgetExceeded, match="group order 256 exceeds cap 243"):
        subgroups(AbelianGroup([2, 128]))
    with pytest.raises(BudgetExceeded, match="group order 256 exceeds cap 243"):
        automorphisms(AbelianGroup([2, 128]))


def _is_automorphism(g, t):
    return np.array_equal(np.sort(t), np.arange(g.size)) and np.array_equal(
        t[g.mul_table], g.mul_table[np.ix_(t, t)]
    )


@pytest.mark.parametrize("orders,count", [([3], 2), ([9], 6), ([3, 9], 108), ([3, 3], 48)])
def test_automorphism_counts(orders, count):
    g = AbelianGroup(orders)
    auts = automorphisms(g)
    assert auts.shape == (count, g.size) and auts.dtype == np.int64
    for f in auts[:10]:
        assert _is_automorphism(g, f)


@pytest.mark.parametrize(
    "orders", abelian_group_orders_up_to(27), ids=lambda o: "x".join(map(str, o))
)
def test_automorphisms_match_generator_image_oracle(orders):
    # every choice of generator images of dividing order, one map at a time
    g = AbelianGroup(orders)
    choices = [
        [t for t in g.elements if m % g.element_order(t) == 0] for m in g.orders
    ]
    expect = set()
    for images in itertools.product(*choices):
        f = tuple(map_from_generator_images(g, images).tolist())
        if len(set(f)) == g.size:
            expect.add(f)
    assert list(map(tuple, automorphisms(g).tolist())) == sorted(expect)


@pytest.mark.parametrize("orders", [[2, 2, 2, 2], [3, 9], [2, 2, 4]])
def test_automorphisms_in_small_batches(monkeypatch, orders):
    # one prefix table per batch, so every batch boundary is crossed
    g = AbelianGroup(orders)
    expect = automorphisms(g)
    monkeypatch.setattr(group_module, "_AUT_BATCH", 1)
    assert np.array_equal(automorphisms(g), expect)


def test_automorphisms_closed_under_composition_and_inverse():
    g = AbelianGroup([3, 9])
    auts = automorphisms(g)
    tables = set(map(tuple, auts.tolist()))
    sample = auts[:12]
    for f in sample:
        assert tuple(np.argsort(f).tolist()) in tables  # the inverse of f
        for h in sample:
            assert tuple(h[f].tolist()) in tables  # f, then h


def _closure_of_tables(tables, n):
    """Every composite of the given tables, by breadth-first search."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for t in tables:
            y = tuple(t[i] for i in x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@pytest.mark.parametrize(
    "orders", abelian_group_orders_up_to(27), ids=lambda o: "x".join(map(str, o))
)
def test_generating_subset_generates_aut(orders):
    g = AbelianGroup(orders)
    auts = automorphisms(g)
    tables = set(map(tuple, auts.tolist()))
    kept = list(map(tuple, generating_subset(auts).tolist()))
    assert set(kept) <= tables
    assert len(set(kept)) == len(kept)
    # each kept map at least doubles the closure of the ones before it
    assert 2 ** len(kept) <= len(auts)
    assert _closure_of_tables(kept, g.size) == tables


def test_map_from_generator_images():
    g = AbelianGroup([3, 9])
    ident = map_from_generator_images(g, [(1, 0), (0, 1)])
    assert ident.tolist() == list(range(27))
    # x -> sx, s -> s*c1 generates an order-3 automorphism
    f = map_from_generator_images(g, [(1, 3), (1, 1)])
    assert len(set(f.tolist())) == 27
    assert f[f[f]].tolist() == list(range(27))
    # x -> x^2 is a valid automorphism (order of x^2 is 9)
    h = map_from_generator_images(g, [(1, 0), (0, 2)])
    assert len(set(h.tolist())) == 27
    with pytest.raises(ValueError):
        # image of the order-3 generator has order 9
        map_from_generator_images(g, [(0, 1), (0, 1)])


def _type_from_order_counts(g, upper, lower, p):
    """Invariant-factor orders of the p-group U/L, ascending, read off the
    counts c_k = |{uL : u^(p^k) in L}| = prod_i p^min(k, e_i): the number of
    factors of order at least p^k is log_p(c_k / c_(k-1))."""
    counts = [1]
    while counts[-1] * len(lower) < len(upper):
        pm = g.power_map(p ** len(counts))
        counts.append(sum(1 for u in upper if int(pm[u]) in lower) // len(lower))
    at_least = []
    for k in range(1, len(counts)):
        ratio, r = counts[k] // counts[k - 1], 0
        while ratio > 1:
            ratio, r = ratio // p, r + 1
        at_least.append(r)
    at_least.append(0)
    return tuple(
        p ** k for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k])
    )


@pytest.mark.parametrize(
    "orders,upper_gens,expect",
    [
        ([3, 9], None, None),
        ([2, 8], None, None),
        ([4, 4], None, None),
        ([3, 3, 3], None, None),
        ([9, 9], None, None),
        # E = <s, c1> over the trivial subgroup: E itself as a group
        ([3, 9], [(1, 0), (0, 3)], (3, 3)),
    ],
    ids=["3x9", "2x8", "4x4", "3x3x3", "9x9", "E-in-3x9"],
)
def test_section_matches_order_count_oracle(orders, upper_gens, expect):
    # every pair L <= U of subgroups, or the one section U/1 when U is given
    g = AbelianGroup(orders)
    p = min(q for q in range(2, g.size + 1) if g.size % q == 0)
    if upper_gens is None:
        subs = subgroups(g)
        pairs = [(u, low) for u in subs for low in subs if not (low & ~u).any()]
    else:
        pairs = [(closure(g, [g.index[t] for t in upper_gens]), closure(g, []))]
    for upper, lower in pairs:
        q, pi = section(g, upper, lower)
        u = np.flatnonzero(upper)
        umembers, lmembers = set(u.tolist()), set(np.flatnonzero(lower).tolist())
        assert set(pi) == umembers
        assert q.size * len(lmembers) == len(umembers)
        assert set(pi.values()) == set(range(q.size))
        assert {x for x, y in pi.items() if y == 0} == lmembers
        t = np.zeros(g.size, dtype=np.int64)
        t[u] = [pi[x] for x in u.tolist()]
        assert np.array_equal(t[g.mul_table[np.ix_(u, u)]], q.mul_table[np.ix_(t[u], t[u])])
        assert q.orders == _type_from_order_counts(g, umembers, lmembers, p)
        if expect is not None:
            assert q.orders == expect


def test_section_rejects_rows_that_are_not_a_section():
    g = AbelianGroup([3, 9])
    c3, s3 = closure(g, [g.index[(0, 3)]]), closure(g, [g.index[(1, 0)]])
    with pytest.raises(ValueError, match="not a subgroup"):
        section(g, c3 | s3, c3)  # a union of two subgroups
    with pytest.raises(ValueError, match="not a subgroup"):
        section(g, c3, c3 & ~(np.arange(g.size) == 0))  # e left out
    with pytest.raises(ValueError, match="L <= U"):
        section(g, c3, s3)


def test_trivial_group():
    g = AbelianGroup([])
    assert g.size == 1 and g.exponent == 1
    assert subgroups(g).tolist() == [[True]]
    assert automorphisms(g).tolist() == [[0]]
