import pytest

from schur import AbelianGroup, automorphisms, table1
from schur import group as group_module
from schur.verify import (
    catalog_keys,
    cyclotomic_partition_orbits,
    run_claims,
)

from conftest import abelian_group_orders_up_to, scan_isomorphism


def test_claims_due_after_the_time_limit_do_not_run():
    report = run_claims(2, time_limit=1e-6)
    assert report.claims
    assert all(c.status == "budget" for c in report.claims)


def test_time_limit_zero_runs_no_claim():
    report = run_claims(2, time_limit=0)
    assert report.claims
    assert all(c.status == "budget" for c in report.claims)


def test_order_cap_inside_a_claim_is_a_budget(monkeypatch):
    # both n = 1 claims that run need Aut(Z3 x Z3), of order 9 > 8
    monkeypatch.setattr(group_module, "DEFAULT_ORDER_CAP", 8)
    report = run_claims(1)
    assert [c.id for c in report.claims] == ["enumerate", "e-c1-classes"]
    for c in report.claims:
        assert (c.status, c.detail) == ("budget", "group order 9 exceeds cap 8")


# -- oracle: the full-list closure, pure Python, union-find joins --------------


def _union_find_labels(n, pairs):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri < rj:
            parent[rj] = ri
        elif rj < ri:
            parent[ri] = rj
    return tuple(find(i) for i in range(n))


def _image_labels(lbl, table, n):
    moved = [0] * n
    for i in range(n):
        moved[table[i]] = lbl[i]
    first = {}
    return tuple(first.setdefault(b, pos) for pos, b in enumerate(moved))


def _oracle_cyclotomic_partition_orbits(group):
    """Every relabeling orbit applies all of Aut(G); every join runs
    union-find on the edges of both partitions."""
    n = group.size
    tables = automorphisms(group).tolist()
    cyclic = list(dict.fromkeys(_union_find_labels(n, ((i, t[i]) for i in range(n))) for t in tables))
    known, reps, queue = set(), [], []

    def register(lbl):
        if lbl in known:
            return
        orbit = {_image_labels(lbl, t, n) for t in tables}
        known.update(orbit)
        reps.append(min(orbit))
        queue.append(min(orbit))

    for lbl in cyclic:
        register(lbl)
    while queue:
        p = queue.pop()
        for q in cyclic:
            register(_union_find_labels(n, ((i, j) for i in range(n) for j in (p[i], q[i]))))
    return sorted(reps), known


_LARGE = ([2, 2, 2, 2], [3, 3, 3])


@pytest.mark.parametrize(
    "orders",
    [o for o in abelian_group_orders_up_to(27) if o not in _LARGE],
    ids=lambda o: "x".join(map(str, o)),
)
def test_cyclotomic_partition_orbits_match_full_list_oracle(orders):
    g = AbelianGroup(orders)
    assert cyclotomic_partition_orbits(g) == _oracle_cyclotomic_partition_orbits(g)


@pytest.mark.parametrize(
    "orders,reps,partitions", [([2, 2, 2, 2], 43, 12537), ([3, 3, 3], 68, 10768)]
)
def test_cyclotomic_partition_counts_on_large_groups(orders, reps, partitions):
    # regression constants of the full-list algorithm; 10,768 is also the
    # number of S-rings that enumeration finds over Z3 x Z3 x Z3
    found, known = cyclotomic_partition_orbits(AbelianGroup(orders))
    assert (len(found), len(known)) == (reps, partitions)


def test_catalog_membership_matches_the_map_scan_on_every_ring(rings_z3z9):
    # every ring over Z3 x Z9, not only the regular trivial-radical ones the
    # claim asks about, so that rings outside the catalog are tested too
    catalog = [table1(i, 2) for i in range(10)]
    catalog += [table1(i, 2, mirror=True) for i in range(6, 10)]
    maps = automorphisms(AbelianGroup([3, 9]))
    keys = catalog_keys(2)
    matched = 0
    for ring in rings_z3z9:
        scanned = any(scan_isomorphism(ring, c, maps) is not None for c in catalog)
        assert (ring.canonical_key() in keys) == scanned, ring.to_json()
        matched += scanned
    assert len(rings_z3z9) == 391 and 0 < matched < 391
