import itertools
import random

import numpy as np
import pytest

from schur import AbelianGroup, GroupMismatch, multiply, sum_of_set
from schur.groupring import GroupRingElement, class_products, zero


def test_sum_of_set_basics():
    g = AbelianGroup([3])
    assert np.array_equal(sum_of_set(g, []).coeffs, [0, 0, 0])
    assert np.array_equal(sum_of_set(g, [(0,)]).coeffs, [1, 0, 0])
    assert np.array_equal(sum_of_set(g, [(1,), (2,)]).coeffs, [0, 1, 1])
    with pytest.raises(ValueError):
        sum_of_set(g, [(1,), (1,)])


def test_multiply_expansion():
    g = AbelianGroup([3])
    u = sum_of_set(g, [(0,), (1,)])
    v = sum_of_set(g, [(0,), (2,)])
    # (e+a)(e+a^2) = 2e + a + a^2
    assert np.array_equal((u * v).coeffs, [2, 1, 1])


def test_identity_coefficient_counts_pairings():
    g = AbelianGroup([3, 3])
    random.seed(5)
    xs = random.sample(g.elements, 4)
    u = sum_of_set(g, xs)
    uinv = sum_of_set(g, [g.inv(t) for t in xs])
    assert (u * uinv).coefficient(g.identity) == 4


def test_subgroup_idempotent():
    g = AbelianGroup([3, 9])
    e9 = [t for t in g.elements if g.element_order(t) in (1, 3)]
    u = sum_of_set(g, e9)
    assert len(e9) == 9
    assert (u * u) == 9 * u


def test_support_is_product_set():
    g = AbelianGroup([9])
    xs, ys = [(1,), (3,)], [(2,), (8,)]
    u, v = sum_of_set(g, xs), sum_of_set(g, ys)
    expected = {g.mul(a, b) for a in xs for b in ys}
    assert (u * v).support() == expected


def test_coefficient_accessors():
    g = AbelianGroup([4])
    assert zero(g).coefficient((2,)) == 0
    assert sum_of_set(g, [(2,)]).coefficient((2,)) == 1


def test_commutative_associative_exhaustive_small():
    g = AbelianGroup([2, 2])
    singletons = [sum_of_set(g, [t]) for t in g.elements]
    for u, v in itertools.product(singletons, repeat=2):
        assert (u * v) == (v * u)
    random.seed(1)
    for _ in range(20):
        u = GroupRingElement(g, np.random.randint(-3, 4, g.size))
        v = GroupRingElement(g, np.random.randint(-3, 4, g.size))
        w = GroupRingElement(g, np.random.randint(-3, 4, g.size))
        assert ((u * v) * w) == (u * (v * w))
        assert (u * v) == (v * u)


def test_random_triples_order_81():
    g = AbelianGroup([3, 27])
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = GroupRingElement(g, rng.integers(-2, 3, g.size))
        v = GroupRingElement(g, rng.integers(-2, 3, g.size))
        w = GroupRingElement(g, rng.integers(-2, 3, g.size))
        assert ((u * v) * w) == (u * (v * w))


def test_full_group_sum_central_idempotent_scaled():
    g = AbelianGroup([3, 3])
    s = sum_of_set(g, g.elements)
    assert (s * s) == g.size * s


def test_group_mismatch():
    u = sum_of_set(AbelianGroup([3]), [(1,)])
    v = sum_of_set(AbelianGroup([9]), [(1,)])
    with pytest.raises(GroupMismatch):
        multiply(u, v)


def test_overflow_guard():
    g = AbelianGroup([3])
    big = GroupRingElement(g, [1 << 40, 0, 0])
    with pytest.raises(OverflowError):
        multiply(big, big)


def test_set_product_vector_matches_multiply():
    g = AbelianGroup([3, 9])
    xs = [g.index[t] for t in [(0, 1), (1, 2), (2, 4)]]
    ys = [g.index[t] for t in [(0, 3), (1, 0)]]
    direct = multiply(
        sum_of_set(g, [g.elements[i] for i in xs]),
        sum_of_set(g, [g.elements[i] for i in ys]),
    )
    got = class_products(g, np.array(xs), np.array(ys), np.zeros(len(ys), dtype=np.int64), 1)
    assert np.array_equal(got[0], direct.coeffs)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([4, 1, 13], [20, 2]),
        ({26, 0, 5}, frozenset([3, 9, 1])),
        (np.array([17, 8, 9]), [6, 0]),
        (np.array([], dtype=np.int64), [1, 2]),
        ([3, 4], []),
        ((), set()),
    ],
)
def test_set_product_vector_takes_any_index_iterable(xs, ys):
    g = AbelianGroup([3, 9])
    direct = multiply(
        sum_of_set(g, [int(i) for i in xs]), sum_of_set(g, [int(i) for i in ys])
    )
    xa = np.fromiter(xs, dtype=np.int64)
    ya = np.fromiter(ys, dtype=np.int64)
    got = class_products(g, xa, ya, np.zeros(len(ya), dtype=np.int64), 1)
    assert np.array_equal(got[0], direct.coeffs)
