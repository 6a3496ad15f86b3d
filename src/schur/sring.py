"""S-rings over finite abelian groups.

An S-ring is represented by its class partition: classes are frozensets of
canonical element indices, listed in canonical order (sorted by smallest
member, so class 0 is {e}).  `validate` is the public entry point that
certifies a partition; the enumeration search certifies its leaves from
its own product rows and builds its rings directly.  Everything downstream
assumes a certified ring.

Products of class sums in the integer group ring ZG come from one kernel,
`class_products`, exact in int64; `validate`, `SRing.products` (every
X*C for one class X, not kept) and the enumeration search's partial module
closure call it.

A subset X of G is a boolean indicator row over canonical indices, and
a batch of k subsets is a (k, |G|) array.  A subgroup is the row of its
members, and its order is `row.sum()`: `a_subgroups` (one array of rows),
`ring_radical`, `radical` and `generated` return rows, and `restrict` and
`quotient_ring` take them.  Functions of an arbitrary set of elements
(`is_a_set`, `indicator`, `radical`, `generated`) take indices or residues.

Restrictions A_U and quotients A_{U/L} live on `group.section(G, U, L)`,
which gives the section in canonical cyclic form and the map from U onto
it; the images of the classes inside U are validated there.

The A-set predicates and the §2-§3 set operations rest on three kernels:

- class constancy: rows are A-sets iff `rows == rows[..., rep_of]`, with
  `rep_of[x]` the least member of x's class (`SRing.is_class_constant`);
- coset counts: |X & (H + x)| at every x is `rows[..., mul_table[h]]`
  summed over H (`coset_counts`);
- radical: rad(X) is `row[mul_table[xs]].all(0)` (`radical_row`).

Cayley isomorphism is orbit membership: `orbit_keys` closes a set of ring
keys under a group of automorphisms with the one partition-orbit kernel,
`permaction.partition_orbits`, for the enumeration closure,
`classify_up_to_cayley` and the catalog matching in `verify`.
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property
from math import gcd

import numpy as np

from . import group as grp
from . import permaction as pa


class SRingViolation(Exception):
    """A partition failed one of the S-ring axioms; carries a witness."""

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail
        super().__init__("%s: %s" % (kind, detail))


class SRing:
    """A validated S-ring; construct via `validate` or the builders.

    It holds its partition (`classes`, `class_arrays`, `class_of`); the
    other arrays are derived from it on first use."""

    def __init__(self, group, classes):
        self.group = group
        self.classes = tuple(classes)
        self.class_arrays = [np.array(sorted(c), dtype=np.int64) for c in self.classes]
        self.class_of = np.full(group.size, -1, dtype=np.int64)
        for ci, arr in enumerate(self.class_arrays):
            self.class_of[arr] = ci

    @property
    def rank(self):
        return len(self.classes)

    def products(self, x):
        """The (rank, |G|) block whose row c is the coefficient vector of
        X*C_c in ZG, from one `class_products` call; it is not kept."""
        if not 0 <= x < self.rank:
            raise IndexError("class index out of range")
        members = np.arange(self.group.size)
        return class_products(self.group, self.class_arrays[x], members, self.class_of, self.rank)

    def structure_constant(self, x, y, z):
        if not (0 <= x < self.rank and 0 <= y < self.rank and 0 <= z < self.rank):
            raise IndexError("class index out of range")
        return int(self.products(x)[y, self.class_arrays[z][0]])

    # -- A-sets and A-subgroups --------------------------------------------

    @cached_property
    def rep_of(self):
        """rep_of[x] is the least member of x's class."""
        return np.array([arr[0] for arr in self.class_arrays])[self.class_of]

    @cached_property
    def inverse_classes(self):
        """inverse_classes[x] is the index of the class X^{-1}."""
        return self.class_of[self.group.inv_table[[arr[0] for arr in self.class_arrays]]]

    @cached_property
    def class_rows(self):
        """One indicator row per class, shape (rank, |G|)."""
        return np.arange(self.rank)[:, None] == self.class_of

    def is_class_constant(self, rows):
        """Whether each row (last axis over G) is constant on every class;
        an indicator row passes iff its set is an A-set."""
        return (rows == rows[..., self.rep_of]).all(-1)

    def is_a_set(self, xs):
        return bool(self.is_class_constant(indicator(self.group, xs)))

    def a_subgroups(self):
        """The A-subgroups as rows of `group.subgroups`, in its order."""
        subs = grp.subgroups(self.group)
        return subs[self.is_class_constant(subs)]

    # -- restriction and quotient ------------------------------------------

    def restrict(self, upper):
        """The induced S-ring over the A-subgroup with row `upper`: the
        section U/{e}."""
        return self.quotient_ring(upper, np.arange(self.group.size) == 0)

    def quotient_ring(self, upper, lower):
        """The induced S-ring over U/L for the A-subgroup rows U and L,
        L <= U."""
        if not self.is_class_constant(np.array([upper, lower])).all():
            raise ValueError("not an A-section: U and L must be A-subgroups")
        q, pi = grp.section(self.group, upper, lower)
        # U is an A-set, so a class lies in U iff its least member does
        inside = (c for c, arr in zip(self.classes, self.class_arrays) if upper[arr[0]])
        return validate(q, {frozenset(pi[i] for i in c) for c in inside})

    # -- rationality and power maps ------------------------------------------

    def rational_conjugate(self, xs, m):
        """The set X^(m) = {x^m}.  Only coprime m give conjugate classes."""
        if gcd(m, self.group.size) != 1:
            warnings.warn("power map with m not coprime to |G| is not a conjugation")
        return frozenset(self.group.power_map(m)[self.group.indices(xs)].tolist())

    def is_rational_set(self, xs):
        # each multiplier power map is a permutation, so X^(m) = X iff X is
        # constant along it
        row = indicator(self.group, xs)
        return bool((row[multiplier_maps(self.group)] == row).all())

    def is_rational(self):
        return bool((self.class_of[multiplier_maps(self.group)] == self.class_of).all())

    def power_set_p(self, xs, p):
        """X^[p] = {x^p : x in X, |X & Hx| != 0 mod p}, H the p-torsion."""
        if p < 2 or self.group.size % p != 0:
            raise ValueError("p must be a prime dividing the group order")
        out = torsion_power_rows(self.group, indicator(self.group, xs), p)
        return frozenset(np.flatnonzero(out).tolist())

    # -- classification predicates ------------------------------------------

    def is_primitive(self):
        orders = self.a_subgroups().sum(1)
        return bool(((orders == 1) | (orders == self.group.size)).all())

    def is_quasi_thin(self):
        return all(len(c) <= 2 for c in self.classes)

    def orthogonals(self):
        """Non-identity classes X contained in Y*Y^{-1} for some class Y."""
        support = [self.products(y)[self.inverse_classes[y]] > 0 for y in range(self.rank)]
        # each support is an A-set, so it holds X iff it holds X's least member
        hit = np.array(support)[:, [arr[0] for arr in self.class_arrays]].any(0)
        return [x for x in range(1, self.rank) if hit[x]]

    def is_highest(self, xs):
        _require_3_family(self.group)
        return bool((self.group.order_table[self.group.indices(xs)] == self.group.exponent).any())

    def is_regular_set(self, xs):
        return len(np.unique(self.group.order_table[self.group.indices(xs)])) <= 1

    def is_regular(self):
        """Every highest basic set consists of elements of one order."""
        _require_3_family(self.group)
        return all(
            self.is_regular_set(c) for c in self.classes if self.is_highest(c)
        )

    def ring_radical(self):
        """The row of the subgroup generated by the radicals of the highest
        basic sets."""
        _require_3_family(self.group)
        gens = np.zeros(self.group.size, dtype=bool)
        for c, row in zip(self.classes, self.class_rows):
            if self.is_highest(c):
                gens |= radical_row(self.group, row)
        return grp.closure(self.group, np.flatnonzero(gens))

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
        try:
            members = frozenset(group.indices(c))
        except IndexError as e:
            raise SRingViolation("not-partition", {"reason": str(e)})
        if not members:
            raise SRingViolation("not-partition", {"reason": "empty class"})
        classes.append(members)
    classes.sort(key=min)
    return classes


def class_products(group, xs, members, labels, k):
    """The k x |G| matrix whose row c is the coefficient vector of
    underline(X)*underline(C_c), C_c = {members[j] : labels[j] == c}, in
    the integer group ring ZG.

    One bincount over label * |G| + (x * member) for x in X and every
    labelled member; the counts are exact int64.  X is an index array;
    members and labels are index arrays of equal length, labels in [0, k).
    """
    n = group.size
    idx = group.mul_table[xs[:, None], members] + labels * n
    return np.bincount(idx.ravel(), minlength=k * n).reshape(k, n)


def validate(group, partition):
    """Certify a partition of G as an S-ring or raise SRingViolation.

    Checks, in order: the classes partition G; {e} is a class; the class set
    is inverse-closed; every product of two class sums has a constant
    coefficient on each class.  For module closure, one `class_products`
    call per class X gives X*Y for every class Y from X on, and the whole
    matrix is compared with its values at the class representatives.  The
    ring holds only its partition.  The violation carries
    minimal witnesses: for module closure, the first pair (x, y) with
    x <= y in lexicographic order and the least element where X*Y is not
    constant.
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
    for ci, arr in enumerate(ring.class_arrays):
        image = ring.class_of[group.inv_table[arr]]  # X^-1 is a class iff it fills one
        if (image != image[0]).any() or len(ring.class_arrays[image[0]]) != len(arr):
            raise SRingViolation("inverse-closure", {"class": ci})
    # not ring.rep_of, which would stay cached on the ring
    rep_of = np.array([arr[0] for arr in ring.class_arrays])[ring.class_of]
    for x, xarr in enumerate(ring.class_arrays):
        # row i is X*Y for y = x + i; each y < x was paired with x before
        later = np.flatnonzero(ring.class_of >= x)
        products = class_products(group, xarr, later, ring.class_of[later] - x, ring.rank - x)
        bad = products != products[:, rep_of]
        if bad.any():
            i, b = (int(j) for j in np.argwhere(bad)[0])
            rep = int(rep_of[b])
            raise SRingViolation(
                "module-closure",
                {
                    "classes": (x, x + i),
                    "on_class": int(ring.class_of[b]),
                    "witness": (
                        group.elements[rep],
                        int(products[i, rep]),
                        group.elements[b],
                        int(products[i, b]),
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


# -- subsets of G as indicator rows --------------------------------------------


def indicator(group, xs):
    """The indicator row of a collection of elements, each an index or
    residues; raises IndexError on an index outside 0..|G|-1."""
    row = np.zeros(group.size, dtype=bool)
    row[group.indices(xs)] = True
    return row


def coset_counts(group, rows, h):
    """|X & (H + x)| at every x, for each indicator row X; h is an index
    array of the subgroup H."""
    return rows[..., group.mul_table[h]].sum(-2)


def radical_row(group, row):
    """The indicator row of rad(X) = {g : X + g = X}, the g with X + g
    inside X."""
    return row[group.mul_table[np.flatnonzero(row)]].all(0)


def torsion_power_rows(group, rows, p):
    """Indicator rows of X^[p] for each indicator row X (see
    `SRing.power_set_p`)."""
    torsion = np.flatnonzero(p % group.order_table == 0)
    keep = rows & (coset_counts(group, rows, torsion) % p != 0)
    *lead, x = np.nonzero(keep)
    out = np.zeros_like(rows)
    out[(*lead, group.power_map(p)[x])] = True
    return out


def multiplier_maps(group):
    """The power maps x -> x^m for every m coprime to |G|, one row each."""
    return np.array([group.power_map(m) for m in group.multiplier_exponents()])


def radical(group, xs):
    """The row of rad(X) = {g : Xg = X}, the translation stabilizer of X."""
    row = indicator(group, xs)
    if not row.any():
        raise ValueError("radical of the empty set is undefined")
    return radical_row(group, row)


def generated(group, xs):
    """The row of the subgroup <X>."""
    xs = group.indices(xs)
    if not xs:
        raise ValueError("closure of the empty set is undefined")
    return grp.closure(group, xs)


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


def orbit_keys(keys, tables):
    """The keys of every ring in the orbits of some ring keys under the group
    that `tables` generate: `permaction.partition_orbits` over the keys'
    block-minimum labels, read back as keys."""
    labels = [pa.block_labels(key) for key in keys]
    return {tuple(pa.blocks(row)) for row in pa.partition_orbits(labels, tables)}
