import os

import pytest

from schur import AbelianGroup
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


def scan_isomorphism(a, b, maps):
    """Oracle for Cayley isomorphism: the first of `maps` that carries every
    class of ring a onto a class of ring b, or None.  It scans the maps one
    by one and shares no code with the library's orbit kernel."""
    if a.rank != b.rank:
        return None
    target = set(b.classes)
    for f in maps:
        if all(frozenset(f.table[i] for i in c) in target for c in a.classes):
            return f
    return None
