import collections
import itertools
import time

import pytest

from schur import AbelianGroup, BudgetExceeded, automorphisms
from schur import enumeration
from schur import sring as sr
from schur.enumeration import (
    _new_stats,
    _run_slice,
    _Search,
    classify_up_to_cayley,
    enumerate_srings,
    filter_rings,
)
from schur.verify import c1_preserving_automorphisms

from conftest import (
    abelian_group_orders_up_to,
    enumerate_srings_brute,
    rings_over,
    set_partitions,
    stretch,
)


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [9], [3, 3], []])
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
    with pytest.raises(BudgetExceeded):
        enumerate_srings_brute(AbelianGroup([3, 9]))


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_srings(AbelianGroup([3, 3, 3, 3, 3]))
    # the least order above the cap of 81, below the automorphism cap
    with pytest.raises(BudgetExceeded, match="enumeration over order 82 exceeds cap 81"):
        enumerate_srings(AbelianGroup([2, 41]))


def test_closed_under_automorphisms_and_rational_conjugation():
    for orders in ([9], [3, 3]):
        g = AbelianGroup(orders)
        rings = rings_over(*orders)
        keys = {r.canonical_key() for r in rings}
        for f in automorphisms(g):
            for ring in rings:
                moved = sorted(
                    tuple(sorted(int(f[i]) for i in c)) for c in ring.classes
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
    # leaves searched below the root-orbit representatives (regression constants)
    for orders, leaves in (([3, 3], 23), ([2, 8], 149)):
        g = AbelianGroup(orders)
        stats1, stats2 = _new_stats(), _new_stats()
        plain = [r.canonical_key() for r in enumerate_srings(g, stats=stats1)]
        par = [r.canonical_key() for r in enumerate_srings(g, jobs=2, stats=stats2)]
        assert plain == par, orders
        assert stats1 == stats2, orders
        assert stats1["leaves"] == leaves, orders


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_time_out_keeps_the_progress_made(jobs):
    g = AbelianGroup([2, 2, 4])
    start = time.monotonic()
    enumerate_srings(g)
    # a quarter of the serial time: too little for the whole search at
    # either jobs, enough for the slices to search past the root
    limit = (time.monotonic() - start) / 4
    stats = _new_stats()
    with pytest.raises(BudgetExceeded, match="after [1-9][0-9]* nodes"):
        enumerate_srings(g, jobs=jobs, time_limit=limit, stats=stats)
    # the root ticks once; more nodes can only come from the slices
    assert stats["nodes"] > 1


def test_time_limit_zero_leaves_no_time():
    with pytest.raises(BudgetExceeded):
        enumerate_srings(AbelianGroup([3, 9]), time_limit=0)


def test_time_out_at_the_root_keeps_its_progress():
    stats = _new_stats()
    with pytest.raises(BudgetExceeded, match=r"after [1-9][0-9]* nodes, [0-9]+ rings found"):
        enumerate_srings(AbelianGroup([3, 9]), time_limit=1e-9, stats=stats)
    assert stats["nodes"] >= 1


class _OracleSearch(_Search):
    """Checks every unforced node's candidate classes against all subsets."""

    def __init__(self, *args):
        super().__init__(*args)
        self.unforced = 0

    def candidates(self, pivot):
        got = super().candidates(pivot)
        if self._forced_candidate(pivot) is None:
            self.unforced += 1
            assert all(list(c) == sorted(c) for c in got)
            assert got == sorted(got, key=lambda c: (len(c), c))
            assert set(map(frozenset, got)) == self._brute_candidates(pivot)
            assert len(set(got)) == len(got)
        return got

    def _brute_candidates(self, pivot):
        g = self.group
        powers = [g.power_map(m) for m in g.multiplier_exponents()]
        completed = {frozenset(arr.tolist()) for arr in self.completed}
        unassigned = {y for y in range(self.n) if self.class_of[y] < 0}
        allowed = [
            y
            for y in sorted(unassigned)
            if y > pivot and all(row[y] == row[pivot] for rows in self.rows for row in rows)
        ]
        out = set()
        for size in range(len(allowed) + 1):
            for rest in itertools.combinations(allowed, size):
                x = frozenset((pivot,) + rest)
                images = [frozenset(int(pm[i]) for i in x) for pm in powers]
                if all(
                    img == x or img in completed or (img <= unassigned and not img & x)
                    for img in images
                ):
                    out.add(x)
        return out


@pytest.mark.parametrize(
    "orders",
    [[9], [3, 3], [8], [2, 4], [2, 2, 2], [12], [2, 6], [10], [16], [2, 8], [4, 4], [15]],
)
def test_candidates_match_subset_oracle(orders):
    g = AbelianGroup(orders)
    search = _OracleSearch(g, None, _new_stats())
    search._extend()
    assert search.unforced > 0
    assert sorted(search.results) == [r.canonical_key() for r in enumerate_srings(g)]


def test_leaf_certificate_matches_validate():
    # every set partition of G \ {e}, classes in order of least element,
    # through `_assign` and then `_leaf`: the leaf accepts exactly what
    # `sring.validate` accepts
    kinds = collections.Counter()
    for orders in ([2, 4], [2, 2, 2], [3, 3]):
        g = AbelianGroup(orders)
        accepted = []
        for part in set_partitions(list(range(1, g.size))):
            classes = [(0,)] + sorted(tuple(sorted(c)) for c in part)
            s = _Search(g, None, _new_stats())
            if not all(s._assign(c) for c in classes[1:]):
                continue
            s._leaf()
            accepted += s.results
            try:
                sr.validate(g, classes)
            except sr.SRingViolation as e:
                kinds[e.kind] += 1
                assert s.stats["leaf_rejects"] == 1, classes
        assert sorted(accepted) == [r.canonical_key() for r in enumerate_srings_brute(g)]
    # partitions that pass every `_assign` but not the leaf, by the first
    # axiom `validate` finds broken
    assert set(kinds) == {"module-closure", "inverse-closure"}


# rings returned, pinned apart from `leaves`: the search reaches leaves only
# below root-orbit representatives, so it sees fewer leaves than it returns
# rings wherever Stab_Aut(G)(pivot) is not trivial
_RING_COUNTS = {(27,): 25, (2, 8): 163, (3, 9): 391, (4, 4): 537, (2, 2, 4): 1121, (5, 5): 458}


@pytest.mark.parametrize(
    "orders, nodes, candidates, leaves, profile_filtered, prune_module",
    [
        ([27], 136, 75, 25, 114, 29),
        ([2, 8], 490, 646, 149, 459, 242),
        ([3, 9], 1701, 3120, 269, 3168, 1687),
        ([4, 4], 1031, 2803, 284, 1386, 1591),
        ([2, 2, 4], 1364, 4961, 469, 1131, 2780),
        ([5, 5], 978, 7051, 156, 2243, 3428),
    ],
)
def test_search_shape_regression(orders, nodes, candidates, leaves, profile_filtered, prune_module):
    # regression constants of this search (no published values)
    stats = _new_stats()
    rings = enumerate_srings(AbelianGroup(orders), stats=stats)
    assert len(rings) == _RING_COUNTS[tuple(orders)]
    assert stats["nodes"] == nodes
    assert stats["candidates"] == candidates
    assert stats["leaves"] == leaves
    assert stats["profile_filtered"] == profile_filtered
    assert stats["prune_module"] == prune_module
    assert stats["leaf_rejects"] == stats["prune_forced"] == 0


def _unreduced_keys(g):
    """The search below every root candidate, with no orbit reduction."""
    root = _Search(g, None, _new_stats())
    keys, _, timed_out = _run_slice(g, root.candidates(1), None)
    assert not timed_out
    return sorted(set(keys))


@pytest.mark.parametrize(
    "orders",
    # every group of order <= 16, which has Z4xZ4, Z2xZ2xZ4 and Z2xZ8 of the
    # census, and the census groups Z3xZ9 and Z5xZ5
    abelian_group_orders_up_to(16) + [[3, 9], [5, 5]],
    ids=lambda o: "x".join(map(str, o)),
)
def test_root_reduction_matches_unreduced_search(orders):
    g = AbelianGroup(orders)
    assert [r.canonical_key() for r in enumerate_srings(g)] == _unreduced_keys(g)


@stretch
def test_root_reduction_on_z3xz27_stretch():
    assert len(enumerate_srings(AbelianGroup([3, 27]))) == 2855


def test_time_limit_covers_the_automorphisms(monkeypatch):
    # the deadline passes inside `automorphisms`: no root candidates are
    # built and no slice runs
    def slow_automorphisms(group):
        time.sleep(0.1)
        return automorphisms(group)

    monkeypatch.setattr(enumeration.grp, "automorphisms", slow_automorphisms)
    stats = _new_stats()
    with pytest.raises(BudgetExceeded, match="after 1 nodes, 0 rings found"):
        enumerate_srings(AbelianGroup([3, 9]), time_limit=0.03, stats=stats)
    assert stats["nodes"] == 1 and stats["candidates"] == 0


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


def _orbits_under_every_map(rings, maps):
    """(key, size) per orbit, from the images of one member under every map;
    `maps` must be a group, as automorphisms(G) and its C1-stabilizer are."""
    keys = {r.canonical_key() for r in rings}
    left = set(keys)
    out = []
    for key in sorted(keys):
        if key not in left:
            continue
        orbit = {
            tuple(sorted(tuple(sorted(int(f[i]) for i in c)) for c in key)) for f in maps
        }
        assert orbit <= keys, "ring set not closed under Aut(G)"
        left -= orbit
        out.append((key, len(orbit)))
    return out


@pytest.mark.parametrize(
    "orders", [(3, 9), (4, 4), (2, 2, 4), (5, 5), (2, 8)], ids=lambda o: "x".join(map(str, o))
)
def test_census_classes_match_every_automorphism(orders):
    rings = rings_over(*orders)
    classes = classify_up_to_cayley(rings)
    found = [(rep.canonical_key(), size) for rep, size in classes]
    assert found == _orbits_under_every_map(rings, automorphisms(AbelianGroup(orders)))
    assert sum(size for _, size in classes) == len(rings)


def test_c1_preserving_classes_match_every_map():
    e = AbelianGroup([3, 3])
    c1 = sr.generated(e, [sr.canonical_c1(e)])
    withc1 = [r for r in rings_over(3, 3) if r.is_class_constant(c1)]
    maps = c1_preserving_automorphisms(e)
    classes = classify_up_to_cayley(withc1, maps=maps)
    assert len(classes) == 9
    found = [(rep.canonical_key(), size) for rep, size in classes]
    assert found == _orbits_under_every_map(withc1, maps)


def test_classify_rejects_a_set_that_is_not_closed(rings_z3z3):
    # drop one ring of an orbit of size > 1
    moved = next(rep for rep, size in classify_up_to_cayley(rings_z3z3) if size > 1)
    with pytest.raises(ValueError, match="not closed"):
        classify_up_to_cayley([r for r in rings_z3z3 if r is not moved])


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
