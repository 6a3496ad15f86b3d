import functools
import itertools
import os

import pytest

from schur import AbelianGroup, BudgetExceeded
from schur import sring as sr
from schur.enumeration import enumerate_srings

STRETCH = os.environ.get("SCHUR_STRETCH", "") not in ("", "0")

stretch = pytest.mark.skipif(
    not STRETCH, reason="stretch target; set SCHUR_STRETCH=1 to run"
)


_CACHE = {}


def rings_over(*orders):
    key = tuple(orders)
    if key not in _CACHE:
        _CACHE[key] = enumerate_srings(AbelianGroup(key))
    return _CACHE[key]


@pytest.fixture(scope="session")
def rings_z3z9():
    return rings_over(3, 9)


@pytest.fixture(scope="session")
def rings_z3z3():
    return rings_over(3, 3)


@pytest.fixture(scope="session")
def rings_z27():
    return rings_over(27)


@pytest.fixture(scope="session")
def rings_z9():
    return rings_over(9)


def all_small_ring_sets():
    """Every enumerated ring of order <= 27, keyed by group orders."""
    return {
        key: rings_over(*key)
        for key in [(2,), (3,), (4,), (2, 2), (9,), (3, 3), (27,), (3, 9)]
    }


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def enumerate_srings_brute(group):
    """Oracle: filter every set partition of G \\ {e} through validation."""
    if group.size > 9:
        raise BudgetExceeded("brute-force oracle is limited to order 9")
    rest = list(range(1, group.size))
    out = []
    for part in set_partitions(rest):
        try:
            ring = sr.validate(group, [[0]] + part)
        except sr.SRingViolation:
            continue
        out.append(ring)
    out.sort(key=lambda r: r.canonical_key())
    return out


def oracle_set_product(group, xs, ys):
    """Coefficient list of underline(X)*underline(Y) in ZG for index
    iterables X and Y, by adding residue tuples with `group.mul`; it shares
    no code with `mul_table` or `sring.class_products`."""
    out = [0] * group.size
    for x in xs:
        for y in ys:
            out[group.index[group.mul(group.elements[x], group.elements[y])]] += 1
    return out


def scan_isomorphism(a, b, maps):
    """Oracle for Cayley isomorphism: the first of `maps` that carries every
    class of ring a onto a class of ring b, or None.  It scans the maps one
    by one and shares no code with the library's orbit kernel."""
    if a.rank != b.rank:
        return None
    target = set(b.classes)
    for f in maps:
        f = f.tolist()
        if all(frozenset(f[i] for i in c) in target for c in a.classes):
            return f
    return None


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

    out = []
    for n in range(2, max_order + 1):
        fac = sorted(_factorize(n).items())
        combos = [list(exponent_partitions(k)) for _, k in fac]
        for combo in itertools.product(*combos):
            factors = []
            for (p, _), parts in zip(fac, combo):
                factors.extend(p ** a for a in parts)
            out.append(sorted(factors))
    return out


def _factorize(m):
    """{prime: multiplicity} for m >= 1."""
    out = {}
    p = 2
    while m > 1:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    return out


# -- frozenset oracles for the ring layer's indicator-row kernels -------------
#
# The frozenset definitions that the kernels replaced, element by element
# over Python sets of indices; they share no code with `sring`'s kernels
# (class constancy, coset counts, radical rows).


@functools.lru_cache(maxsize=None)
def _sums(group):
    """x + y for every x (rows) and y (columns), as Python lists."""
    return group.mul_table.tolist()


def oracle_is_a_set(ring, xs):
    xs = frozenset(xs)
    class_of = ring.class_of.tolist()
    return sum(len(ring.classes[c]) for c in {class_of[i] for i in xs}) == len(xs)


def oracle_radical(group, xs):
    """rad(X) = {g : X + g = X}; each g in it is x - x0 for some x in X."""
    xs = frozenset(xs)
    mul, x0 = _sums(group), int(group.inv_table[min(xs)])
    return frozenset(g for g in (mul[x][x0] for x in xs) if all(mul[x][g] in xs for x in xs))


def oracle_power_set_p(ring, xs, p):
    """X^[p] = {x^p : x in X, |X & Hx| != 0 mod p}, H the p-torsion."""
    xs = frozenset(xs)
    cosets, pm = _torsion_cosets_and_powers(ring.group, p)
    return frozenset(pm[x] for x in xs if len(cosets[x] & xs) % p != 0)


@functools.lru_cache(maxsize=None)
def _torsion_cosets_and_powers(group, p):
    """The coset H + x of the p-torsion H and x^p, for every x."""
    mul, orders = _sums(group), group.order_table.tolist()
    torsion = [i for i in range(group.size) if orders[i] in (1, p)]
    cosets = [frozenset(mul[t][x] for t in torsion) for x in range(group.size)]
    return cosets, [group.index[group.pow(t, p)] for t in group.elements]


def oracle_is_generalized_wreath(ring, upper, lower):
    """Every class outside U is a union of L-cosets; U and L are given as
    indicator rows."""
    mul = _sums(ring.group)
    upper = {i for i, inside in enumerate(upper.tolist()) if inside}
    lower = [i for i, inside in enumerate(lower.tolist()) if inside]
    return all(
        frozenset(mul[l][x] for l in lower for x in c) == c
        for c in ring.classes
        if not c <= upper
    )
