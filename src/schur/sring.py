"""S-rings over finite abelian groups.

An S-ring is represented by its class partition: classes are frozensets of
canonical element indices, listed in canonical order (sorted by smallest
member, so class 0 is {e}).  `validate` is the single entry point that
certifies a partition; everything downstream assumes a validated ring.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import group as grp
from .errors import GroupMismatch
from .groupring import set_product_vector


class SRingViolation(Exception):
    """A partition failed one of the S-ring axioms; carries a witness."""

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail
        super().__init__("%s: %s" % (kind, detail))


@dataclass(frozen=True)
class SectionRef:
    upper: grp.Subgroup
    lower: grp.Subgroup


class SRing:
    """A validated S-ring; construct via `validate` or the builders."""

    def __init__(self, group, classes):
        self.group = group
        self.classes = tuple(classes)
        self.class_arrays = [np.array(sorted(c), dtype=np.int64) for c in self.classes]
        class_of = np.full(group.size, -1, dtype=np.int64)
        for ci, c in enumerate(self.classes):
            for i in c:
                class_of[i] = ci
        self.class_of = class_of
        self._products = {}
        self._inverse_class = None

    @property
    def rank(self):
        return len(self.classes)

    def product_vector(self, x, y):
        """Coefficient vector of the product of class sums x and y."""
        key = (min(x, y), max(x, y))  # commutative
        v = self._products.get(key)
        if v is None:
            v = set_product_vector(self.group, self.class_arrays[x], self.class_arrays[y])
            self._products[key] = v
        return v

    def structure_constant(self, x, y, z):
        if not (0 <= x < self.rank and 0 <= y < self.rank and 0 <= z < self.rank):
            raise IndexError("class index out of range")
        return int(self.product_vector(x, y)[self.class_arrays[z][0]])

    def inverse_class(self, x):
        """Index of the class X^{-1}."""
        if self._inverse_class is None:
            inv = self.group.inv_table
            self._inverse_class = tuple(
                int(self.class_of[inv[arr[0]]]) for arr in self.class_arrays
            )
        return self._inverse_class[x]

    # -- A-sets and A-subgroups --------------------------------------------

    def members_of(self, xs):
        return frozenset(
            x if isinstance(x, (int, np.integer)) else self.group.index[self.group.element(x)]
            for x in xs
        )

    def is_a_set(self, xs):
        xs = self.members_of(xs)
        ids = {int(self.class_of[i]) for i in xs}
        return sum(len(self.classes[c]) for c in ids) == len(xs)

    def a_subgroups(self, cap=grp.DEFAULT_ORDER_CAP):
        return [h for h in grp.subgroups(self.group, cap) if self.is_a_set(h.members)]

    # -- restriction and quotient ------------------------------------------

    def restrict(self, sub):
        """The induced S-ring over an A-subgroup, in canonical coordinates."""
        if not self.is_a_set(sub.members):
            raise ValueError("restriction requires an A-subgroup")
        s, to_sub, _ = grp.subgroup_as_group(self.group, sub)
        classes = [
            frozenset(to_sub[i] for i in c) for c in self.classes if c <= sub.members
        ]
        return validate(s, classes)

    def quotient_ring(self, section):
        """The induced S-ring over U/L for an A-section U/L."""
        u, l = section.upper, section.lower
        if not (l.members <= u.members):
            raise ValueError("section requires L <= U")
        if not (self.is_a_set(u.members) and self.is_a_set(l.members)):
            raise ValueError("not an A-section: U and L must be A-subgroups")
        s, to_sub, _ = grp.subgroup_as_group(self.group, u)
        l_in_s = grp.Subgroup(s, frozenset(to_sub[i] for i in l.members))
        q, pi = grp.quotient(s, l_in_s)
        images = set()
        for c in self.classes:
            if c <= u.members:
                images.add(frozenset(pi.table[to_sub[i]] for i in c))
        return validate(q, images)

    # -- rationality and power maps ------------------------------------------

    def rational_conjugate(self, xs, m):
        """The set X^(m) = {x^m}.  Only coprime m give conjugate classes."""
        if gcd(m, self.group.size) != 1:
            warnings.warn("power map with m not coprime to |G| is not a conjugation")
        xs = self.members_of(xs)
        pm = self.group.power_map(m)
        return frozenset(int(pm[i]) for i in xs)

    def is_rational_set(self, xs):
        xs = self.members_of(xs)
        for m in self.group.multiplier_exponents():
            pm = self.group.power_map(m)
            if frozenset(int(pm[i]) for i in xs) != xs:
                return False
        return True

    def is_rational(self):
        return all(self.is_rational_set(c) for c in self.classes)

    def power_set_p(self, xs, p):
        """X^[p] = {x^p : x in X, |X & Hx| != 0 mod p}, H the p-torsion."""
        if p < 2 or self.group.size % p != 0:
            raise ValueError("p must be a prime dividing the group order")
        xs = self.members_of(xs)
        torsion = [i for i in range(self.group.size) if int(self.group.order_table[i]) in (1, p)]
        tarr = np.array(torsion, dtype=np.int64)
        pm = self.group.power_map(p)
        out = set()
        for x in xs:
            coset = set(int(v) for v in self.group.mul_table[tarr, x])
            if len(coset & xs) % p != 0:
                out.add(int(pm[x]))
        return frozenset(out)

    # -- classification predicates ------------------------------------------

    def is_primitive(self):
        return all(
            h.order in (1, self.group.size) for h in self.a_subgroups()
        )

    def is_quasi_thin(self):
        return all(len(c) <= 2 for c in self.classes)

    def orthogonals(self):
        """Non-identity classes X contained in Y*Y^{-1} for some class Y."""
        out = []
        for x in range(1, self.rank):
            xarr = self.class_arrays[x]
            for y in range(self.rank):
                v = self.product_vector(y, self.inverse_class(y))
                if np.all(v[xarr] > 0):
                    out.append(x)
                    break
        return out

    def is_highest(self, xs):
        _require_3_family(self.group)
        xs = self.members_of(xs)
        return any(int(self.group.order_table[i]) == self.group.exponent for i in xs)

    def is_regular_set(self, xs):
        xs = self.members_of(xs)
        return len({int(self.group.order_table[i]) for i in xs}) <= 1

    def is_regular(self):
        """Every highest basic set consists of elements of one order."""
        _require_3_family(self.group)
        return all(
            self.is_regular_set(c) for c in self.classes if self.is_highest(c)
        )

    def ring_radical(self):
        """Subgroup generated by the radicals of the highest basic sets."""
        _require_3_family(self.group)
        gens = set()
        for c in self.classes:
            if self.is_highest(c):
                gens |= set(radical(self.group, c).members)
        return grp.subgroup(self.group, sorted(gens))

    # -- serialization --------------------------------------------------------

    def canonical_key(self):
        return tuple(tuple(int(i) for i in arr) for arr in self.class_arrays)

    def to_json_dict(self):
        return {
            "group": list(self.group.orders),
            "classes": [
                [list(self.group.elements[int(i)]) for i in arr]
                for arr in self.class_arrays
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def __eq__(self, other):
        return (
            isinstance(other, SRing)
            and self.group == other.group
            and self.classes == other.classes
        )

    def __hash__(self):
        return hash((self.group.orders, self.classes))

    def __repr__(self):
        return "SRing(group=%s, rank=%d)" % (list(self.group.orders), self.rank)


def _canonical_classes(group, partition):
    classes = []
    for c in partition:
        members = frozenset(
            x if isinstance(x, (int, np.integer)) else group.index[group.element(x)]
        for x in c)
        if not members:
            raise SRingViolation("not-partition", {"reason": "empty class"})
        classes.append(members)
    classes.sort(key=min)
    return classes


def validate(group, partition):
    """Certify a partition of G as an S-ring or raise SRingViolation.

    Checks, in order: the classes partition G; {e} is a class; the class set
    is inverse-closed; every product of two class sums has a constant
    coefficient on each class.  The violation carries minimal witnesses.
    """
    classes = _canonical_classes(group, partition)
    seen = {}
    for ci, c in enumerate(classes):
        for i in c:
            if i in seen:
                raise SRingViolation(
                    "not-partition",
                    {"element": group.elements[i], "classes": [seen[i], ci]},
                )
            seen[i] = ci
    if len(seen) != group.size:
        missing = next(i for i in range(group.size) if i not in seen)
        raise SRingViolation("not-partition", {"missing": group.elements[missing]})
    if classes[0] != frozenset([0]):
        raise SRingViolation(
            "identity-class",
            {"class": sorted(group.elements[i] for i in classes[0])},
        )
    ring = SRing(group, classes)
    class_sets = set(classes)
    inv = group.inv_table
    for ci, c in enumerate(classes):
        ic = frozenset(int(inv[i]) for i in c)
        if ic not in class_sets:
            raise SRingViolation("inverse-closure", {"class": ci})
    reps = np.array([arr[0] for arr in ring.class_arrays], dtype=np.int64)
    for x in range(ring.rank):
        for y in range(x, ring.rank):
            v = ring.product_vector(x, y)
            expected = v[reps][ring.class_of]
            if not np.array_equal(v, expected):
                bad = int(np.nonzero(v != expected)[0][0])
                z = int(ring.class_of[bad])
                rep = int(reps[z])
                raise SRingViolation(
                    "module-closure",
                    {
                        "classes": (x, y),
                        "on_class": z,
                        "witness": (
                            group.elements[rep],
                            int(v[rep]),
                            group.elements[bad],
                            int(v[bad]),
                        ),
                    },
                )
    return ring


def from_json_dict(data):
    g = grp.AbelianGroup(data["group"])
    classes = [[tuple(t) for t in c] for c in data["classes"]]
    return validate(g, classes)


def from_json(text):
    return from_json_dict(json.loads(text))


# -- group-level set operations used throughout §2/§3 -------------------------


def radical(group, xs):
    """rad(X) = {g : Xg = X}; the translation stabilizer of X."""
    xs = frozenset(
        x if isinstance(x, (int, np.integer)) else group.index[group.element(x)] for x in xs
    )
    if not xs:
        raise ValueError("radical of the empty set is undefined")
    arr = np.array(sorted(xs), dtype=np.int64)
    members = [
        g
        for g in range(group.size)
        if frozenset(int(v) for v in group.mul_table[arr, g]) == xs
    ]
    return grp.Subgroup(group, frozenset(members))


def generated(group, xs):
    """The subgroup <X>."""
    xs = [
        x if isinstance(x, (int, np.integer)) else group.index[group.element(x)] for x in xs
    ]
    if not xs:
        raise ValueError("closure of the empty set is undefined")
    return grp.subgroup(group, xs)


def _require_3_family(group):
    """The order-layer predicates assume G = Z3 x Z3^n or a cyclic 3-group."""
    orders = group.orders
    ok = False
    if len(orders) == 1:
        m = orders[0]
        while m % 3 == 0:
            m //= 3
        ok = m == 1
    elif len(orders) == 2 and orders[0] == 3:
        m = orders[1]
        while m % 3 == 0:
            m //= 3
        ok = m == 1
    if not ok:
        raise ValueError(
            "predicate requires Z3 x Z3^n or a cyclic 3-group, got %r" % (orders,)
        )


def canonical_c1(group):
    """The canonical order-3 element of the top cyclic factor."""
    _require_3_family(group)
    if len(group.orders) == 1:
        return (group.orders[0] // 3,)
    return (0, group.orders[1] // 3)


def cayley_isomorphic(a, b, maps=None):
    """A group automorphism carrying S(A) onto S(B), or None.

    Complete: scans the full automorphism group (or the supplied maps).
    """
    if a.group != b.group:
        raise GroupMismatch("Cayley isomorphism needs identical group specs")
    if a.rank != b.rank:
        return None
    if maps is None:
        maps = grp.automorphisms(a.group)
    target = set(b.classes)
    for f in maps:
        if all(f.apply_set(c) in target for c in a.classes) :
            return f
    return None
