"""Products of subsets in the integer group ring ZG, from
`sring.class_products`."""

import random

import numpy as np
import pytest

from schur import AbelianGroup
from schur.sring import class_products

from conftest import oracle_set_product


def _product(g, xs, ys):
    """The coefficient vector of underline(X)*underline(Y), X and Y given as
    elements."""
    xa = np.array(g.indices(xs), dtype=np.int64)
    ya = np.array(g.indices(ys), dtype=np.int64)
    return class_products(g, xa, ya, np.zeros(len(ya), dtype=np.int64), 1)[0]


def test_multiply_expansion():
    g = AbelianGroup([3])
    # (e+a)(e+a^2) = 2e + a + a^2
    assert np.array_equal(_product(g, [(0,), (1,)], [(0,), (2,)]), [2, 1, 1])


def test_identity_coefficient_counts_pairings():
    g = AbelianGroup([3, 3])
    random.seed(5)
    xs = random.sample(g.elements, 4)
    v = _product(g, xs, [g.inv(t) for t in xs])
    assert v[g.index[g.identity]] == 4


def test_subgroup_idempotent():
    g = AbelianGroup([3, 9])
    e9 = [t for t in g.elements if g.element_order(t) in (1, 3)]
    assert len(e9) == 9
    expect = np.zeros(g.size, dtype=np.int64)
    expect[g.indices(e9)] = 9
    assert np.array_equal(_product(g, e9, e9), expect)


def test_support_is_product_set():
    g = AbelianGroup([9])
    xs, ys = [(1,), (3,)], [(2,), (8,)]
    expected = {g.mul(a, b) for a in xs for b in ys}
    support = {g.elements[i] for i in np.flatnonzero(_product(g, xs, ys))}
    assert support == expected


def test_full_group_sum_central_idempotent_scaled():
    g = AbelianGroup([3, 3])
    assert np.array_equal(_product(g, g.elements, g.elements), np.full(g.size, g.size))


def test_set_product_vector_matches_multiply():
    g = AbelianGroup([3, 9])
    xs = [g.index[t] for t in [(0, 1), (1, 2), (2, 4)]]
    ys = [g.index[t] for t in [(0, 3), (1, 0)]]
    got = class_products(g, np.array(xs), np.array(ys), np.zeros(len(ys), dtype=np.int64), 1)
    assert got[0].tolist() == oracle_set_product(g, xs, ys)


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
    xa = np.fromiter(xs, dtype=np.int64)
    ya = np.fromiter(ys, dtype=np.int64)
    got = class_products(g, xa, ya, np.zeros(len(ya), dtype=np.int64), 1)
    assert got[0].tolist() == oracle_set_product(g, xs, ys)
