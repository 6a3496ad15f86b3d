import math
import random

import numpy as np
import pytest

from schur import AbelianGroup, BudgetExceeded, PermGroup, right_translations, symmetric_group
from schur import permaction
from schur.permaction import compose, inverse, orbit_labels, orbit_of


def brute_closure(gens, n):
    seen = {tuple(range(n))}
    frontier = [np.arange(n)]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = compose(p, s)
            t = tuple(int(v) for v in q)
            if t not in seen:
                seen.add(t)
                frontier.append(q)
    return seen


def test_compose_inverse():
    p = np.array([1, 2, 0])
    q = np.array([0, 2, 1])
    assert list(compose(p, q)) == [2, 1, 0]
    assert list(compose(p, inverse(p))) == [0, 1, 2]


def test_right_translations_regular():
    g = AbelianGroup([3])
    t = right_translations(g)
    assert t.order() == 3
    assert orbit_of(t.generators, 0) == set(range(3))
    assert t.point_stabilizer(0).order() == 1
    g2 = AbelianGroup([3, 9])
    assert right_translations(g2).order() == 27


def test_chain_order_matches_brute_closure_random():
    random.seed(11)
    for _ in range(25):
        n = random.randint(3, 8)
        gens = []
        for _ in range(random.randint(1, 3)):
            p = list(range(n))
            random.shuffle(p)
            gens.append(np.array(p))
        closure = brute_closure(gens, n)
        if len(closure) > 10_000:
            continue
        assert PermGroup(gens, n).order() == len(closure)


def test_membership_by_sifting():
    random.seed(2)
    n = 7
    gens = []
    for _ in range(2):
        p = list(range(n))
        random.shuffle(p)
        gens.append(np.array(p))
    group = PermGroup(gens, n)
    closure = brute_closure(gens, n)
    for t in random.sample(sorted(closure), 20):
        assert group.contains(np.array(t))
    outside = [t for t in ([1, 0, 2, 3, 4, 5, 6], [2, 0, 1, 3, 4, 5, 6]) if tuple(t) not in closure]
    for t in outside:
        assert not group.contains(np.array(t))


def test_orbits():
    g = AbelianGroup([9])
    ident = PermGroup([], 9)
    assert ident.orbits() == [(i,) for i in range(9)]
    assert right_translations(g).orbits() == [tuple(range(9))]
    inv = PermGroup([np.array([(9 - i) % 9 for i in range(9)])], 9)
    assert inv.orbits() == [(0,), (1, 8), (2, 7), (3, 6), (4, 5)]


def test_orbits_invariant_under_redundant_generators():
    g = AbelianGroup([3, 3])
    t = right_translations(g)
    more = PermGroup(t.generators + [compose(t.generators[0], t.generators[1])], 9)
    assert t.orbits() == more.orbits()


def test_symmetric_group_shortcut():
    for n in (2, 3, 5, 9):
        assert symmetric_group(n).order() == math.factorial(n)
    s9 = symmetric_group(9)
    stab = s9.point_stabilizer(0)
    assert stab.order() == math.factorial(8)
    # the memoized stabilizer fixes 0 and its generators really give Sym(8)
    assert all(int(g[0]) == 0 for g in stab.generators)
    assert PermGroup(stab.generators, 9).order() == math.factorial(8)
    assert stab.orbits() == [(0,), tuple(range(1, 9))]


def _orbitals(group):
    """Orbits on ordered pairs: `orbit_labels` over pair codes a * n + b,
    g mapping a code to g[a] * n + g[b]."""
    n = group.degree
    codes = [(g[:, None] * n + g).ravel() for g in group.generators]
    return [tuple(divmod(c, n) for c in b) for b in permaction.blocks(orbit_labels(codes, n * n))]


def test_orbitals():
    g = AbelianGroup([3])
    assert len(_orbitals(symmetric_group(3))) == 2  # diagonal + off-diagonal
    assert len(_orbitals(right_translations(g))) == 3  # one orbital per group element


def test_two_equivalent_sym_vs_two_transitive_subgroup():
    # AGL(2,3) acting on Z3 x Z3 is 2-transitive, hence 2-equivalent to Sym(9)
    from schur.group import automorphisms

    g = AbelianGroup([3, 3])
    trans = right_translations(g).generators
    lin = list(automorphisms(g))
    agl = PermGroup(trans + lin, 9)
    assert agl.order() == 9 * 48
    s9 = symmetric_group(9)
    assert agl.order() < s9.order()
    assert _orbitals(agl) == _orbitals(s9)


def test_two_equivalent_detects_difference():
    g = AbelianGroup([9])
    assert _orbitals(right_translations(g)) != _orbitals(symmetric_group(9))


def test_has_faithful_regular_orbit():
    assert PermGroup([], 5).has_faithful_regular_orbit()
    g = AbelianGroup([9])
    inv = PermGroup([np.array([(9 - i) % 9 for i in range(9)])], 9)
    assert inv.has_faithful_regular_orbit()  # {a, a^-1} has size 2 = |P|
    # the translation group of Z9 acts regularly on itself
    assert right_translations(g).has_faithful_regular_orbit()
    # Sym(9) has order > 9, no orbit can reach it
    assert not symmetric_group(9).has_faithful_regular_orbit()


def test_brute_force_regular_orbit_crosscheck():
    random.seed(4)
    for _ in range(10):
        n = random.randint(3, 6)
        gens = []
        for _ in range(2):
            p = list(range(n))
            random.shuffle(p)
            gens.append(np.array(p))
        group = PermGroup(gens, n)
        closure = brute_closure(gens, n)
        expect = False
        for orbit in group.orbits():
            stab_sizes = {sum(1 for t in closure if t[x] == x) for x in orbit}
            regular = len(orbit) == len(closure) and stab_sizes == {1}
            if regular:
                expect = True
        assert group.has_faithful_regular_orbit() == expect


def test_chain_budget(monkeypatch):
    monkeypatch.setattr(permaction, "CHAIN_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        PermGroup(symmetric_group(12).generators, 12).order()


def test_orbit_of_helper():
    g = AbelianGroup([3, 3])
    t = right_translations(g)
    assert orbit_of(t.generators, 0) == set(range(9))


def test_orbit_labels_match_orbit_of():
    rng = random.Random(17)
    cases = [([], 1), ([], 6), ([np.zeros(1, dtype=np.int64)], 1)]
    for n in (2, 9, 40):
        cases.append(([np.roll(np.arange(n), -1)], n))  # x -> x + 1
        cases.append(([np.roll(np.arange(n), 1)], n))
    for _ in range(60):
        n = rng.randint(1, 40)
        gens = []
        for _ in range(rng.randint(0, 3)):
            moved = rng.sample(range(n), rng.randint(0, n))
            p = np.arange(n)
            p[moved] = rng.sample(moved, len(moved))
            gens.append(p)
        cases.append((gens, n))
    for gens, n in cases:
        labels = orbit_labels(gens, n)
        assert labels.dtype == np.int64
        assert labels.tolist() == [min(orbit_of(gens, i)) for i in range(n)]


def _brute_orbitals(gens, n):
    closure = brute_closure(gens, n)
    blocks = {frozenset((p[a], p[b]) for p in closure) for a in range(n) for b in range(n)}
    return sorted(tuple(sorted(b)) for b in blocks)


def test_orbitals_match_brute_force_closure():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        gens = [np.array(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2))]
        expect = _brute_orbitals(gens, n)
        assert _orbitals(PermGroup(gens, n)) == expect
