import itertools
import json
import random

import numpy as np
import pytest

from schur import AbelianGroup, SRingViolation, canonical_c1, validate
from schur import generated, radical
from schur import sring as sr
from schur import verify
from schur.constructions import is_generalized_wreath
from schur.sring import SRing, from_json

from conftest import (
    oracle_is_a_set,
    oracle_set_product,
    oracle_is_generalized_wreath,
    oracle_power_set_p,
    oracle_radical,
    rings_over,
)


def test_validate_accepts_inversion_ring():
    g = AbelianGroup([3])
    ring = validate(g, [[(0,)], [(1,), (2,)]])
    assert ring.rank == 2


def test_validate_accepts_full_group_ring():
    g = AbelianGroup([3])
    ring = validate(g, [[(0,)], [(1,)], [(2,)]])
    assert ring.rank == 3


def test_validate_rejects_inverse_closure_violation():
    g = AbelianGroup([9])
    # a and a^-1 split across classes whose set is not inverse-closed
    bad = [[(0,)], [(1,), (2,)], [(7,), (8,)], [(3,), (4,), (5,), (6,)]]
    with pytest.raises(SRingViolation) as e:
        validate(g, bad)
    assert e.value.kind in ("inverse-closure", "module-closure")


def test_validate_rejects_non_partition_and_identity_class():
    g = AbelianGroup([3])
    with pytest.raises(SRingViolation) as e:
        validate(g, [[(0,), (1,)], [(2,)]])
    assert e.value.kind == "identity-class"
    with pytest.raises(SRingViolation) as e:
        validate(g, [[(0,)], [(1,)]])
    assert e.value.kind == "not-partition"
    with pytest.raises(SRingViolation) as e:
        validate(g, [[(0,)], [(1,), (2,)], [(2,)]])
    assert e.value.kind == "not-partition"
    # an index outside 0..|G|-1 is named, not lost in the missing-element scan
    with pytest.raises(SRingViolation) as e:
        validate(AbelianGroup([3, 3]), [[0], [1, 2], [3, 6], [4, 8], [5, 7, 9]])
    assert e.value.kind == "not-partition"
    assert "9" in e.value.detail["reason"]


def test_module_closure_violation_carries_witness():
    g = AbelianGroup([9])
    bad = [[(0,)], [(1,), (8,)], [(2,), (7,)], [(3,), (6,)], [(4,), (5,)]]
    # this one is actually valid (cyclotomic under inversion)
    validate(g, bad)
    worse = [[(0,)], [(1,), (8,)], [(2,), (3,), (6,), (7,)], [(4,), (5,)]]
    with pytest.raises(SRingViolation) as e:
        validate(g, worse)
    assert e.value.kind == "module-closure"
    assert "witness" in e.value.detail


def _reference_closure_violation(g, classes):
    """validate's module-closure detail, from `oracle_set_product` pair by
    pair."""
    class_of = {i: ci for ci, c in enumerate(classes) for i in c}
    for x in range(len(classes)):
        for y in range(x, len(classes)):
            v = oracle_set_product(g, classes[x], classes[y])
            for b in range(g.size):
                z = class_of[b]
                rep = min(classes[z])
                if v[b] != v[rep]:
                    return {
                        "classes": (x, y),
                        "on_class": z,
                        "witness": (g.elements[rep], int(v[rep]), g.elements[b], int(v[b])),
                    }
    return None


@pytest.mark.parametrize("orders", [[9], [3, 3], [2, 4], [3, 9]])
def test_module_closure_verdict_and_witness_match_pairwise_products(orders):
    g = AbelianGroup(orders)
    inv = g.inv_table
    rng = random.Random(sum(orders))
    verdicts = set()
    for _ in range(80):
        # the common refinement of a random partition and its inverse image
        # is inverse-closed
        k = rng.randint(1, 4)
        p = [rng.randrange(k) for _ in range(g.size)]
        blocks = {}
        for i in range(1, g.size):
            blocks.setdefault((p[i], p[int(inv[i])]), []).append(i)
        classes = sorted([[0]] + list(blocks.values()), key=min)
        expected = _reference_closure_violation(g, [frozenset(c) for c in classes])
        try:
            ring = validate(g, classes)
            got = None
        except SRingViolation as e:
            assert e.kind == "module-closure"
            got = e.detail
        assert got == expected, classes
        verdicts.add(got is None)
        if got is None:
            for x in range(ring.rank):
                block = ring.products(x).tolist()
                assert block == [oracle_set_product(g, classes[x], c) for c in classes]
    assert verdicts == {True, False}


def test_validated_ring_holds_only_its_partition(rings_z3z9):
    for ring in rings_z3z9[::40]:
        ring = validate(ring.group, ring.classes)
        assert set(vars(ring)) == {"group", "classes", "class_arrays", "class_of"}


def test_structure_constants():
    g = AbelianGroup([3])
    ring = validate(g, [[(0,)], [(1,), (2,)]])
    x = 1
    assert ring.structure_constant(x, x, 0) == 2  # |X| at identity
    assert ring.structure_constant(x, x, x) == 1  # a = a^2 * a^2
    with pytest.raises(IndexError):
        ring.structure_constant(0, 0, 5)
    # a negative index is no class either, not a count from the end
    for x in (-1, ring.rank):
        with pytest.raises(IndexError):
            ring.products(x)
        with pytest.raises(IndexError):
            ring.structure_constant(x, 0, 0)


def test_is_a_set_and_a_subgroups():
    g = AbelianGroup([3, 3])
    rank2 = validate(g, [[g.elements[0]], [t for t in g.elements if t != (0, 0)]])
    assert rank2.is_a_set([(0, 0)])
    assert rank2.a_subgroups().sum(1).tolist() == [1, 9]
    assert rank2.is_primitive()
    full = validate(g, [[t] for t in g.elements])
    assert all(full.is_a_set(s) for s in [[(0, 1)], [(0, 1), (2, 2)]])
    assert len(full.a_subgroups()) == 6


def test_radical_and_generated():
    g = AbelianGroup([3, 9])
    assert radical(g, range(g.size)).sum() == g.size
    assert radical(g, [(0, 0)]).sum() == 1
    s_coset = [g.mul((1, 0), (0, k)) for k in range(9)]
    c = generated(g, [(0, 1)])
    assert (radical(g, s_coset) == c).all()
    assert generated(g, [(0, 0)]).sum() == 1
    c3 = generated(g, [(0, 3)])
    assert c3.dtype == bool and set(np.flatnonzero(c3)) == {0, g.index[(0, 3)], g.index[(0, 6)]}
    assert generated(g, [(1, 0), (0, 1)]).sum() == 27
    with pytest.raises(ValueError):
        radical(g, [])


def test_restrict_trivial_and_full():
    g = AbelianGroup([3, 3])
    full = validate(g, [[t] for t in g.elements])
    triv = full.restrict(np.arange(g.size) == 0)
    assert triv.group.size == 1 and triv.rank == 1
    c1 = generated(g, [(0, 1)])
    sub = full.restrict(c1)
    assert sub.group.orders == (3,) and sub.rank == 3


def test_restrict_requires_a_subgroup():
    g = AbelianGroup([3, 3])
    rank2 = validate(g, [[g.elements[0]], [t for t in g.elements if t != (0, 0)]])
    with pytest.raises(ValueError):
        rank2.restrict(generated(g, [(0, 1)]))


def test_restrict_to_torsion_validates(rings_z3z9):
    g = rings_z3z9[0].group
    e = generated(g, [(1, 0), (0, 3)])
    count = 0
    for ring in rings_z3z9:
        if ring.is_class_constant(e):
            sub = ring.restrict(e)  # validates internally
            assert sub.group.orders == (3, 3)
            count += 1
    assert count > 0


def test_quotient_ring_edge_cases():
    g = AbelianGroup([3, 3])
    full = validate(g, [[t] for t in g.elements])
    top = generated(g, [(1, 0), (0, 1)])
    c1 = generated(g, [(0, 1)])
    # L = {e}: quotient is the restriction
    q = full.quotient_ring(top, np.arange(g.size) == 0)
    assert q.rank == 9
    # U = L: rank-1 ring over the trivial group
    q2 = full.quotient_ring(c1, c1)
    assert q2.group.size == 1 and q2.rank == 1


def test_quotient_ring_of_catalog_row():
    from schur import table1

    ring = table1(6, 2)
    d = ring.group
    c1 = generated(d, [(0, 3)])
    q = ring.quotient_ring(np.ones(d.size, dtype=bool), c1)
    assert q.group.size == 9
    assert q.rank >= 2


def test_rational_conjugates():
    g = AbelianGroup([9])
    ring = validate(g, [[(0,)], [(k,) for k in range(1, 9)]])
    c = ring.classes[1]
    assert ring.rational_conjugate(c, 1) == c
    assert ring.rational_conjugate([(1,)], 2) == frozenset([g.index[(2,)]])
    assert ring.is_rational_set(c)
    assert ring.is_rational()
    with pytest.warns(UserWarning):
        ring.rational_conjugate([(1,)], 3)


def test_power_set_p_examples():
    g = AbelianGroup([9])
    zg = validate(g, [[t] for t in g.elements])
    assert zg.power_set_p([(1,)], 3) == frozenset([g.index[(3,)]])
    torsion = [(0,), (3,), (6,)]
    assert zg.power_set_p(torsion, 3) <= frozenset([0])
    with pytest.raises(ValueError):
        zg.power_set_p([(1,)], 2)


def test_ring_predicates_basic():
    g = AbelianGroup([3])
    zg = validate(g, [[t] for t in g.elements])
    # singleton classes keep the full group ring quasi-thin
    assert zg.is_quasi_thin()
    inversion = validate(g, [[(0,)], [(1,), (2,)]])
    assert inversion.is_quasi_thin()
    rank2_z9 = validate(AbelianGroup([9]), [[(0,)], [(k,) for k in range(1, 9)]])
    assert not rank2_z9.is_quasi_thin()
    assert rank2_z9.is_primitive()
    assert rank2_z9.rank == 2


def test_family_gate():
    g = AbelianGroup([2, 2])
    ring = validate(g, [[t] for t in g.elements])
    with pytest.raises(ValueError):
        ring.is_regular()
    with pytest.raises(ValueError):
        canonical_c1(g)
    assert canonical_c1(AbelianGroup([3, 9])) == (0, 3)
    assert canonical_c1(AbelianGroup([27])) == (9,)


def test_catalog_ring_radical_trivial():
    from schur import table1

    for i in range(10):
        assert table1(i, 2).ring_radical().sum() == 1


def test_json_roundtrip_byte_identical(rings_z3z3):
    for ring in rings_z3z3[:10]:
        text = ring.to_json()
        back = from_json(text)
        assert back.to_json() == text
        assert back == ring
    doc = json.loads(rings_z3z3[5].to_json())
    assert doc["group"] == [3, 3]
    assert doc["classes"][0] == [[0, 0]]


# -- indicator-row kernels against the frozenset oracles ----------------------


@pytest.mark.parametrize("orders", [(3, 9), (2, 2, 4)], ids=["3x9", "2x2x4"])
def test_set_kernels_match_frozenset_oracles(orders):
    """On every class union X of every ring of rank at most 12: class
    constancy (on X with its least member toggled, and on X^[p]), the
    radical row and the X^[p] rows, against the frozenset oracles; on every
    ring, is_generalized_wreath for every pair L <= U of A-subgroups and
    the public is_a_set, radical and power_set_p on every class."""
    p = min(orders)
    unions = 0
    for ring in rings_over(*orders):
        g = ring.group
        subs = ring.a_subgroups()
        for low in subs:
            for up in subs:
                if not (low & ~up).any():
                    assert is_generalized_wreath(ring, up, low) == (
                        oracle_is_generalized_wreath(ring, up, low)
                    )
        for c in ring.classes:
            assert ring.is_a_set(c) and set(np.flatnonzero(radical(g, c))) == oracle_radical(g, c)
            assert ring.power_set_p(c, p) == oracle_power_set_p(ring, c, p)
        if ring.rank > 12:
            continue
        r = ring.rank
        rows = ((np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1 == 1)[:, ring.class_of]
        toggled = rows.copy()
        toggled[np.arange(len(rows)), rows.argmax(1)] = False
        powers = sr.torsion_power_rows(g, rows, p)
        radicals = np.array([sr.radical_row(g, row) for row in rows])
        a_sets = ring.is_class_constant(np.stack([toggled, powers]))
        for xs, power, rad, a_set in zip(
            _as_sets(rows), _as_sets(powers), _as_sets(radicals), a_sets.T.tolist()
        ):
            assert power == oracle_power_set_p(ring, xs, p) and rad == oracle_radical(g, xs)
            assert a_set == [oracle_is_a_set(ring, xs - {min(xs)}), oracle_is_a_set(ring, power)]
        unions += len(rows)
    assert unions > 100_000


def _as_sets(rows):
    return [frozenset(i for i, inside in enumerate(row) if inside) for row in rows.tolist()]


def _raw_ring(orders, classes):
    """An SRing over a partition that `validate` never saw."""
    return SRing(AbelianGroup(orders), [frozenset(c) for c in sorted(classes, key=min)])


# (check, group orders, a partition that breaks the checked property)
_BROKEN = [
    # {1}{1} = {2}, which is half of the class {2, 3}
    ("product_sets", (4,), [[0], [1], [2, 3]]),
    # H = {0, 4}; X = {1, 2, 5} meets H+1 twice and H+2 once
    ("coset_intersections", (8,), [[0], [4], [1, 2, 5], [3], [6], [7]]),
    # <{2}> = {0, 2, 4, 6} splits the class of 4 and 6
    ("generated_and_radical", (8,), [[0], [2], [1, 3, 4, 5, 6, 7]]),
    # x -> x^2 sends {2, 3} to {4, 1}, which is no class
    ("power_maps", (5,), [[0], [1], [2, 3], [4]]),
    # {1}^[3] = {3}, which is part of a larger class
    ("torsion_power_sets", (9,), [[0], [1], [2, 3, 4, 5, 6, 7, 8]]),
    # H = {0, 2, 4, 6} <= rad({1, 3, 5, 7}), but X != <X> \ rad(X)
    ("separating_subgroups", (8,), [[0], [1, 2, 3, 5, 7], [4], [6]]),
]


# the checks that name the subgroup H, by its member tuples
_H_MEMBERS = {
    "coset_intersections": "[(0,), (4,)]",
    "separating_subgroups": "[(0,), (2,), (4,), (6,)]",
}


@pytest.mark.parametrize("check, orders, classes", _BROKEN, ids=[b[0] for b in _BROKEN])
def test_property_checks_reject_a_partition_that_breaks_them(check, orders, classes):
    with pytest.raises(AssertionError) as err:
        getattr(verify, "check_" + check)(_raw_ring(orders, classes))
    assert _H_MEMBERS.get(check, "") in str(err.value)


def _first_identity_violation(ring):
    """Oracle: the first (x, y, z), in loop order, at which the three sides
    of the structure-constant identity are not all equal; None when there
    is none.  Each c^W_{X,Y} is read from one `oracle_set_product` per
    (x, y), and X^-1 is the class of `group.inv` of min X."""
    g = ring.group
    classes = [sorted(c) for c in ring.classes]
    size = [len(c) for c in classes]
    class_of = {i: ci for ci, c in enumerate(classes) for i in c}
    inv = [class_of[g.index[g.inv(g.elements[c[0]])]] for c in classes]
    sc = {}
    for x, y in itertools.product(range(ring.rank), repeat=2):
        v = oracle_set_product(g, classes[x], classes[y])
        sc[x, y] = [v[c[0]] for c in classes]
    for x, y, z in itertools.product(range(ring.rank), repeat=3):
        sides = {
            size[z] * sc[x, y][inv[z]],
            size[x] * sc[y, z][inv[x]],
            size[y] * sc[z, x][inv[y]],
        }
        if len(sides) > 1:
            return (x, y, z)
    return None


def test_structure_constant_identity_matches_triple_loop(rings_z3z9):
    # every Z3xZ9 ring, and every fourth one with the largest member of its
    # last class moved into a class of its own, which breaks most of them
    cases = list(rings_z3z9)
    for ring in rings_z3z9[::4]:
        last = ring.classes[-1]
        if len(last) > 1:
            classes = list(ring.classes[:-1]) + [last - {max(last)}, {max(last)}]
            cases.append(SRing(ring.group, [frozenset(c) for c in sorted(classes, key=min)]))
    broken = 0
    for ring in cases:
        expected = _first_identity_violation(ring)
        if expected is None:
            verify.check_structure_constant_identity(ring)
            continue
        with pytest.raises(AssertionError) as err:
            verify.check_structure_constant_identity(ring)
        assert err.value.args == (expected,)
        broken += 1
    assert broken == 63
