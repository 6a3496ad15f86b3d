"""Finite abelian groups given as explicit products of cyclic factors.

Elements are residue tuples (a1,...,ak) with 0 <= ai < mi.  The canonical
index of an element is its mixed-radix value, i.e. elements are numbered in
lexicographic order of their residue tuples.  Every derived structure in
this package (subgroups, partitions, permutations) works on canonical
indices; tuples appear only at API boundaries and in JSON.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm, prod

import numpy as np

from .errors import CapExceeded, GroupMismatch

DEFAULT_ORDER_CAP = 243


class AbelianGroup:
    """Z_{m1} x ... x Z_{mk}; the empty product is the trivial group."""

    def __init__(self, orders=()):
        orders = tuple(int(m) for m in orders)
        if any(m < 2 for m in orders):
            raise ValueError("cyclic factor orders must be >= 2: %r" % (orders,))
        self.orders = orders
        self.rank = len(orders)
        self.size = prod(orders)
        self.exponent = lcm(*orders) if orders else 1
        self.elements = list(itertools.product(*(range(m) for m in orders)))
        self.index = {t: i for i, t in enumerate(self.elements)}
        self._residues = np.array(self.elements, dtype=np.int64).reshape(self.size, self.rank)
        self._radix = np.array(
            [prod(orders[j + 1:]) for j in range(self.rank)], dtype=np.int64
        )
        mods = np.array(orders, dtype=np.int64)
        summed = (self._residues[:, None, :] + self._residues[None, :, :]) % mods
        self.mul_table = (summed @ self._radix).astype(np.int64)
        self.inv_table = (((-self._residues) % mods) @ self._radix).astype(np.int64)
        ords = np.ones(self.size, dtype=np.int64)
        for j, m in enumerate(orders):
            cyc = np.array([m // gcd(int(a), m) for a in range(m)], dtype=np.int64)
            ords = np.lcm(ords, cyc[self._residues[:, j]])
        self.order_table = ords
        self.identity = (0,) * self.rank

    # -- basic element arithmetic ------------------------------------------

    def element(self, residues):
        """Normalize residues componentwise into a valid element tuple."""
        residues = tuple(residues)
        if len(residues) != self.rank:
            raise GroupMismatch("expected %d residues, got %r" % (self.rank, residues))
        return tuple(int(a) % m for a, m in zip(residues, self.orders))

    def mul(self, g, h):
        g, h = self.element(g), self.element(h)
        return tuple((a + b) % m for a, b, m in zip(g, h, self.orders))

    def inv(self, g):
        g = self.element(g)
        return tuple((-a) % m for a, m in zip(g, self.orders))

    def pow(self, g, m):
        g = self.element(g)
        return tuple((a * int(m)) % mi for a, mi in zip(g, self.orders))

    def element_order(self, g):
        return int(self.order_table[self.index[self.element(g)]])

    # -- index-level fast path ---------------------------------------------

    def imul(self, i, j):
        return int(self.mul_table[i, j])

    def iinv(self, i):
        return int(self.inv_table[i])

    def power_map(self, m):
        """Index array of x -> x^m over the whole group."""
        mods = np.array(self.orders, dtype=np.int64).reshape(1, -1) if self.rank else None
        if self.rank == 0:
            return np.zeros(1, dtype=np.int64)
        res = (self._residues * int(m)) % mods
        return (res @ self._radix).astype(np.int64)

    def multiplier_exponents(self):
        """Residues m mod exp(G) coprime to |G|, i.e. the distinct power maps."""
        return [m for m in range(1, self.exponent + 1) if gcd(m, self.size) == 1]

    def canonical_generators(self):
        """Indices of the unit vectors, one per cyclic factor."""
        gens = []
        for j in range(self.rank):
            t = [0] * self.rank
            t[j] = 1
            gens.append(self.index[tuple(t)])
        return gens

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "AbelianGroup(%s)" % list(self.orders)


@dataclass(frozen=True)
class Subgroup:
    group: AbelianGroup
    members: frozenset
    generators: tuple = ()

    @property
    def order(self):
        return len(self.members)

    def sorted_members(self):
        return tuple(sorted(self.members))

    def member_tuples(self):
        return [self.group.elements[i] for i in self.sorted_members()]

    def __contains__(self, i):
        return i in self.members

    def __le__(self, other):
        return self.members <= other.members

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group.orders == other.group.orders
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.group.orders, self.members))

    def __repr__(self):
        return "Subgroup(order=%d, members=%s)" % (self.order, self.member_tuples())


def closure(group, seeds):
    """Member indices of the subgroup generated by the given indices."""
    seen = {0}
    frontier = [0]
    seeds = [int(s) for s in seeds]
    mul = group.mul_table
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = int(mul[x, s])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    # seeds of finite order generate their inverses, so one-sided closure is enough
    return frozenset(seen)


def subgroup(group, generator_indices):
    gens = tuple(int(g) for g in generator_indices)
    return Subgroup(group, closure(group, gens), gens)


def trivial_subgroup(group):
    return Subgroup(group, frozenset([0]), ())


def full_subgroup(group):
    return Subgroup(group, frozenset(range(group.size)), tuple(group.canonical_generators()))


def subgroups(group, cap=DEFAULT_ORDER_CAP):
    """All subgroups, sorted by (order, member list).

    Every subgroup of an abelian group is a join of cyclic ones, and the join
    of two subgroups is their elementwise product set, so closing the cyclic
    subgroups under pairwise joins is complete.
    """
    if group.size > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (group.size, cap))
    mul = group.mul_table
    found = {}

    def add(members, gens):
        if members not in found:
            found[members] = gens
            return True
        return False

    add(frozenset([0]), ())
    cyclic = []
    for g in range(1, group.size):
        m = closure(group, [g])
        cyclic.append((m, (g,)))
        add(m, (g,))
    work = list(found.items())
    while work:
        members, gens = work.pop()
        arr = np.fromiter(members, dtype=np.int64)
        for cm, cg in cyclic:
            if cm <= members:
                continue
            carr = np.fromiter(cm, dtype=np.int64)
            joined = frozenset(int(v) for v in np.unique(mul[np.ix_(arr, carr)]))
            if add(joined, tuple(gens) + cg):
                work.append((joined, tuple(gens) + cg))
    subs = [Subgroup(group, m, g) for m, g in found.items()]
    subs.sort(key=lambda s: (s.order, s.sorted_members()))
    return subs


@dataclass(frozen=True)
class GroupMap:
    """A homomorphism given by its full image table on canonical indices."""

    src: AbelianGroup
    dst: AbelianGroup
    table: tuple

    @property
    def injective(self):
        return len(set(self.table)) == len(self.table)

    @property
    def surjective(self):
        return len(set(self.table)) == self.dst.size

    @property
    def bijective(self):
        return self.injective and self.src.size == self.dst.size

    def __call__(self, g):
        return self.dst.elements[self.table[self.src.index[self.src.element(g)]]]

    def apply_index(self, i):
        return self.table[i]

    def apply_set(self, indices):
        return frozenset(self.table[i] for i in indices)

    def compose(self, other):
        """self followed by other."""
        if self.dst != other.src:
            raise GroupMismatch("cannot compose maps across different groups")
        return GroupMap(self.src, other.dst, tuple(other.table[t] for t in self.table))

    def inverse(self):
        if not self.bijective:
            raise ValueError("only bijective maps can be inverted")
        inv = [0] * len(self.table)
        for i, t in enumerate(self.table):
            inv[t] = i
        return GroupMap(self.dst, self.src, tuple(inv))

    def is_homomorphism(self):
        mul_s, mul_d = self.src.mul_table, self.dst.mul_table
        t = np.array(self.table, dtype=np.int64)
        return bool(np.array_equal(t[mul_s], mul_d[np.ix_(t, t)]))

    def kernel(self):
        return frozenset(i for i, t in enumerate(self.table) if t == 0)

    def __hash__(self):
        return hash((self.src.orders, self.dst.orders, self.table))

    def __repr__(self):
        return "GroupMap(%s -> %s)" % (self.src, self.dst)


def identity_map(group):
    return GroupMap(group, group, tuple(range(group.size)))


def map_from_generator_images(group, images, dst=None):
    """The endomorphism sending the i-th canonical generator to images[i].

    Well defined iff each image order divides the corresponding factor order;
    otherwise raises ValueError.  Bijectivity is left to the caller via the
    returned map's flags.
    """
    dst = dst or group
    images = [dst.element(t) for t in images]
    if len(images) != group.rank:
        raise ValueError("expected %d generator images" % group.rank)
    for img, m in zip(images, group.orders):
        if m % dst.element_order(img) != 0:
            raise ValueError(
                "ill-defined map: image %r has order %d, not dividing %d"
                % (img, dst.element_order(img), m)
            )
    # image of (a1,...,ak) is sum_j aj * images[j], computed coordinatewise
    mods = np.array(dst.orders, dtype=np.int64) if dst.rank else np.zeros(0, dtype=np.int64)
    img_res = np.array([list(t) for t in images], dtype=np.int64).reshape(group.rank, dst.rank)
    res = (group._residues @ img_res) % mods if dst.rank else np.zeros((group.size, 0), dtype=np.int64)
    table = (res @ dst._radix).astype(np.int64) if dst.rank else np.zeros(group.size, dtype=np.int64)
    return GroupMap(group, dst, tuple(int(v) for v in table))


def automorphisms(group, cap=DEFAULT_ORDER_CAP):
    """The full automorphism group, by enumerating generator images."""
    if group.size > cap:
        raise CapExceeded("group order %d exceeds cap %d" % (group.size, cap))
    if group.rank == 0:
        return [identity_map(group)]
    candidates = []
    for m in group.orders:
        candidates.append([i for i in range(group.size) if m % int(group.order_table[i]) == 0])
    mods = np.array(group.orders, dtype=np.int64)
    out = []
    for combo in itertools.product(*candidates):
        img_res = group._residues[list(combo)]
        res = (group._residues @ img_res) % mods
        table = (res @ group._radix).astype(np.int64)
        if len(np.unique(table)) == group.size:
            out.append(GroupMap(group, group, tuple(int(v) for v in table)))
    out.sort(key=lambda f: f.table)
    return out


# -- quotients and abstract subgroup structure -----------------------------


def _abstract_order(mul, e, x):
    n = 1
    y = x
    while y != e:
        y = mul(y, x)
        n += 1
    return n


def _abstract_cyclic(mul, e, g):
    out = [e]
    y = mul(e, g)
    while y != e:
        out.append(y)
        y = mul(y, g)
    return out


def _abstract_subgroups(elems, mul, e):
    """All subgroup member-sets of a small abstract abelian group."""
    cyclic = {frozenset(_abstract_cyclic(mul, e, g)) for g in elems}
    found = set(cyclic) | {frozenset([e])}
    work = list(found)
    while work:
        a = work.pop()
        for c in cyclic:
            if c <= a:
                continue
            j = frozenset(mul(x, y) for x in a for y in c)
            if j not in found:
                found.add(j)
                work.append(j)
    return found


def abelian_basis(elems, mul, e):
    """A direct-sum basis [(g1, d1), ...] with d1 <= d2 <= ... for a small
    abstract abelian group given by its multiplication function.

    Splits off an element of maximal order (always a direct summand) and
    recurses on a complement found among the subgroups.
    """
    if len(elems) == 1:
        return []
    h = max(elems, key=lambda x: (_abstract_order(mul, e, x),))
    hord = _abstract_order(mul, e, h)
    hgen = frozenset(_abstract_cyclic(mul, e, h))
    if hord == len(elems):
        return [(h, hord)]
    for k in _abstract_subgroups(elems, mul, e):
        if len(k) * hord == len(elems) and k & hgen == {e}:
            return abelian_basis(sorted(k), mul, e) + [(h, hord)]
    raise RuntimeError("no direct complement found; group is not abelian?")


def _coordinate_map(elems, mul, e, basis):
    """Map each element to its coordinate tuple w.r.t. a direct-sum basis."""
    coords = {e: (0,) * len(basis)}
    for exps in itertools.product(*(range(d) for _, d in basis)):
        x = e
        for (g, _), a in zip(basis, exps):
            for _ in range(a):
                x = mul(x, g)
        coords[x] = exps
    if len(coords) != len(elems):
        raise RuntimeError("basis does not span the group")
    return coords


def quotient(group, sub, cap=DEFAULT_ORDER_CAP):
    """(Q, pi) with Q = G/L in canonical cyclic form and pi the projection.

    pi is surjective with kernel exactly L; abelian groups need no normality
    check.
    """
    if not isinstance(sub, Subgroup):
        raise TypeError("expected a Subgroup")
    if not _is_subgroup_set(group, sub.members):
        raise ValueError("member set is not a subgroup")
    members = np.fromiter(sub.members, dtype=np.int64)
    coset_of = group.mul_table[:, members].min(axis=1)
    reps = sorted(set(int(c) for c in coset_of))

    def cmul(a, b):
        return int(coset_of[group.mul_table[a, b]])

    basis = abelian_basis(reps, cmul, 0)
    q = AbelianGroup([d for _, d in basis])
    coords = _coordinate_map(reps, cmul, 0, basis)
    table = tuple(q.index[coords[int(coset_of[i])]] for i in range(group.size))
    return q, GroupMap(group, q, table)


def _is_subgroup_set(group, members):
    arr = np.fromiter(members, dtype=np.int64)
    if 0 not in members:
        return False
    prods = group.mul_table[np.ix_(arr, arr)]
    return set(int(v) for v in np.unique(prods)) <= set(int(v) for v in arr)


def subgroup_as_group(group, sub):
    """(S, to_sub, from_sub): S is the canonical group isomorphic to the
    subgroup, to_sub maps member indices to S-indices, from_sub the reverse."""
    members = sorted(sub.members)

    def smul(a, b):
        return int(group.mul_table[a, b])

    basis = abelian_basis(members, smul, 0)
    s = AbelianGroup([d for _, d in basis])
    coords = _coordinate_map(members, smul, 0, basis)
    to_sub = {m: s.index[coords[m]] for m in members}
    from_sub = [0] * s.size
    for m, i in to_sub.items():
        from_sub[i] = m
    return s, to_sub, from_sub
