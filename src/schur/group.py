"""Finite abelian groups given as explicit products of cyclic factors.

Elements are residue tuples (a1,...,ak) with 0 <= ai < mi.  The canonical
index of an element is its mixed-radix value, i.e. elements are numbered in
lexicographic order of their residue tuples.  Every derived structure in
this package (subgroups, partitions, permutations) works on canonical
indices; tuples appear only at API boundaries and in JSON.

A subgroup of G is its indicator row, a bool array of length |G|, and its
order is `row.sum()`.  `subgroups(G)` is one (k, |G|) array of such rows,
and `closure(G, seeds)` is the row of the subgroup that the seeds generate.

A map of G to itself is its image table, an int64 array t with t[i] the
index of the image of element i.  `automorphisms(G)` is one (|Aut|, |G|)
array of such tables, and a group of maps is given by a few of its rows
(`generating_subset`), as `permaction` expects.

A group that is not an `AbelianGroup` -- a subgroup, a quotient, the
multiplier group of exponents -- is given only by its multiplication table
over indices 0..k-1 with the identity at 0.  One kernel, `subgroup_sets`,
lists the subgroups of such a table; `section(G, U, L)` builds the coset
table of U/L and reads its canonical cyclic form off it, for the
restrictions and quotients of S-rings.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

import numpy as np

from . import permaction as pa
from .errors import BudgetExceeded

DEFAULT_ORDER_CAP = 243  # automorphisms and subgroups raise BudgetExceeded above it
_AUT_BATCH = 1 << 20  # entries in one batch of candidate automorphism tables


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
            raise ValueError("expected %d residues, got %r" % (self.rank, residues))
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

    def indices(self, xs):
        """Canonical indices of a collection of elements, each given as an
        index or as residues; raises IndexError on an index outside
        0..|G|-1."""
        out = [x if isinstance(x, (int, np.integer)) else self.index[self.element(x)] for x in xs]
        if out and not 0 <= min(out) <= max(out) < self.size:
            bad = next(x for x in out if not 0 <= x < self.size)
            raise IndexError("element index %d outside 0..%d" % (bad, self.size - 1))
        return out

    def element_order(self, g):
        return int(self.order_table[self.index[self.element(g)]])

    # -- index-level fast path ---------------------------------------------

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


def closure(group, seeds):
    """The indicator row of the subgroup generated by the given indices:
    the orbit of e under translation by the seeds (seeds of finite order
    generate their inverses, so the one-sided orbit is enough)."""
    row = np.zeros(group.size, dtype=bool)
    row[list(pa.orbit_of(group.mul_table[[int(s) for s in seeds]], 0))] = True
    return row


def map_from_generator_images(group, images):
    """The image table of the endomorphism sending the i-th canonical
    generator to images[i].

    Well defined iff each image order divides the corresponding factor order;
    otherwise raises ValueError.  The map is a bijection iff the table holds
    every index once; that is left to the caller.
    """
    images = [group.element(t) for t in images]
    if len(images) != group.rank:
        raise ValueError("expected %d generator images" % group.rank)
    for img, m in zip(images, group.orders):
        if m % group.element_order(img) != 0:
            raise ValueError(
                "ill-defined map: image %r has order %d, not dividing %d"
                % (img, group.element_order(img), m)
            )
    # image of (a1,...,ak) is sum_j aj * images[j], computed coordinatewise
    mods = np.array(group.orders, dtype=np.int64)
    img_res = np.array(images, dtype=np.int64).reshape(group.rank, group.rank)
    return ((group._residues @ img_res) % mods) @ group._radix


def automorphisms(group):
    """The full automorphism group as one (|Aut|, |G|) int64 array of image
    tables, its rows in lexicographic order.

    Generator images are chosen one cyclic factor at a time, each among the
    elements whose order divides the factor's.  A choice for the first j
    factors defines a homomorphism on their subgroup S_j, kept as its table
    on S_j; it is kept only if it is injective, i.e. only the identity maps
    to 0.  Extending a table by the image c of the next generator gives
    T(x) + t*c at x + t*e_j, so each batch of extensions is one lookup in
    the multiplication table.  Batches hold at most _AUT_BATCH entries, and
    tables are built in the narrowest index type, so memory stays near the
    size of the result.
    """
    if group.size > DEFAULT_ORDER_CAP:
        raise BudgetExceeded("group order %d exceeds cap %d" % (group.size, DEFAULT_ORDER_CAP))
    mods = np.array(group.orders, dtype=np.int64)
    index_type = np.min_scalar_type(group.size - 1)
    tables = np.zeros((1, 1), dtype=index_type)  # the trivial map on S_0 = {0}
    for m in group.orders:
        cand = np.flatnonzero(m % group.order_table == 0)
        # multiples[c, t] = t * cand[c]
        multiples = np.arange(m)[None, :, None] * group._residues[cand, None, :]
        multiples = (multiples % mods) @ group._radix
        width = tables.shape[1] * m
        step = max(1, _AUT_BATCH // (len(cand) * width))
        kept = []
        for lo in range(0, len(tables), step):
            ext = group.mul_table[tables[lo:lo + step, None, :, None], multiples[None, :, None, :]]
            ext = ext.reshape(-1, width)
            kept.append(ext[(ext == 0).sum(axis=1) == 1].astype(index_type))
        tables = np.concatenate(kept)
    return tables[np.lexsort(tables.T[::-1])].astype(np.int64)


def map_closure(tables):
    """The group of bijections that the image tables generate, as a set of
    row tuples, by breadth-first search from the identity."""
    gens = np.asarray(tables, dtype=np.int64)
    n = gens.shape[1]
    seen = {tuple(range(n))}
    frontier = np.arange(n, dtype=np.int64).reshape(1, n)
    while len(frontier):
        fresh = []
        for row in gens[:, frontier].reshape(-1, n).tolist():
            t = tuple(row)
            if t not in seen:
                seen.add(t)
                fresh.append(row)
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, n)
    return seen


def generating_subset(tables):
    """Rows of the image tables `tables` that generate the same group of
    bijections, as an int64 array.

    Greedy, in row order: a row is kept only when it lies outside the
    closure of the rows kept so far.  Each kept row at least doubles that
    closure, so at most log2 of the group order are kept (4 of the 324
    automorphisms of Z3 x Z27), and the closures taken sum to at most twice
    the last.  Orbits under the group can then be found by breadth-first
    search over these few rows.
    """
    tables = np.asarray(tables, dtype=np.int64)
    seen = {tuple(range(tables.shape[-1]))}
    kept = []
    for i, row in enumerate(map(tuple, tables.tolist())):
        if row not in seen:
            kept.append(i)
            seen = map_closure(tables[kept])
    return tables[kept]


# -- sections on multiplication tables -------------------------------------


def _power_rows(table):
    """x^j for every element x (rows) and j = 0..exp (columns), over the
    group with multiplication table `table`; column exp is all identity."""
    x = np.arange(len(table))
    cols = [np.zeros_like(x), x]
    while cols[-1].any():
        cols.append(table[cols[-1], x])
    return np.stack(cols, axis=1)


def subgroup_sets(table):
    """Every subgroup of the abelian group with multiplication table `table`
    (indices 0..k-1, identity 0), as sorted member tuples in (order,
    members) order.

    Every subgroup of an abelian group is a join of cyclic ones, and the join
    of two subgroups is their elementwise product set, so closing the
    distinct cyclic subgroups under joins with them is complete.
    """
    table = np.asarray(table, dtype=np.int64)
    cyclic = [
        (c, np.fromiter(c, dtype=np.int64, count=len(c)))
        for c in {frozenset(row) for row in _power_rows(table).tolist()}
    ]
    found = {c for c, _ in cyclic}
    work = list(found)
    while work:
        members = work.pop()
        arr = np.fromiter(members, dtype=np.int64, count=len(members))
        for c, carr in cyclic:
            if c <= members:
                continue
            joined = frozenset(table[arr[:, None], carr].ravel().tolist())
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def subgroups(group):
    """All subgroups as one (k, |G|) array of indicator rows, sorted by
    (order, member list)."""
    if group.size > DEFAULT_ORDER_CAP:
        raise BudgetExceeded("group order %d exceeds cap %d" % (group.size, DEFAULT_ORDER_CAP))
    sets = subgroup_sets(group.mul_table)
    rows = np.zeros((len(sets), group.size), dtype=bool)
    for row, members in zip(rows, sets):
        row[list(members)] = True
    return rows


def _cyclic_form(table):
    """(orders, elems) for the group with multiplication table `table`: it
    is the product of cyclic groups of the ascending `orders`, and elems[i]
    is the table index of the element with mixed-radix index i.

    Splits off h, the least element of largest order (its cyclic subgroup is
    a direct summand), and recurses on the first complement of <h> in
    (order, members) order, re-indexed as its own table.
    """
    k = len(table)
    rows = _power_rows(table)
    orders = (rows[:, 1:] == 0).argmax(axis=1) + 1
    h = int(orders.argmax())
    d = int(orders[h])
    if d == k:
        return ([d] if k > 1 else []), rows[h, :d]
    cyc = set(rows[h].tolist())
    comp = next(
        s for s in subgroup_sets(table) if len(s) * d == k and cyc.isdisjoint(s[1:])
    )
    comp = np.array(comp, dtype=np.int64)
    pos = np.zeros(k, dtype=np.int64)
    pos[comp] = np.arange(len(comp))
    inner, elems = _cyclic_form(pos[table[np.ix_(comp, comp)]])
    return inner + [d], table[comp[elems][:, None], rows[h, :d][None, :]].ravel()


def section(group, upper, lower):
    """(Q, pi) for the section U/L: Q is U/L in canonical cyclic form, and
    pi maps each member of U to its Q-index, a surjective homomorphism
    U -> Q with kernel exactly L.

    U and L are the indicator rows of subgroups with L <= U.  The cosets are
    named by their least members, and the coset table of U/L is indexed by
    the sorted coset minima, so the identity coset is 0.  Q's factors are
    read off that table by `_cyclic_form`.
    """
    if not (_is_subgroup_row(group, upper) and _is_subgroup_row(group, lower)):
        raise ValueError("row is not a subgroup")
    if (lower & ~upper).any():
        raise ValueError("section requires L <= U")
    mul = group.mul_table
    coset = mul[:, np.flatnonzero(lower)].min(axis=1)
    u = np.flatnonzero(upper)
    reps = np.unique(coset[u])
    pos = np.zeros(group.size, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    orders, elems = _cyclic_form(pos[coset[mul[np.ix_(reps, reps)]]])
    q_of = np.empty(len(reps), dtype=np.int64)
    q_of[elems] = np.arange(len(reps))
    return AbelianGroup(orders), dict(zip(u.tolist(), q_of[pos[coset[u]]].tolist()))


def _is_subgroup_row(group, row):
    arr = np.flatnonzero(row)
    return bool(row[0] and row[group.mul_table[np.ix_(arr, arr)]].all())
