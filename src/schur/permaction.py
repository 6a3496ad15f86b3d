"""Permutations of the group domain and permutation groups.

Permutations are image arrays over canonical indices.  PermGroup builds a
deterministic Schreier-Sims stabilizer chain lazily, on first need; group
order and membership never enumerate elements.  Base points are chosen in
canonical index order starting from e, so the stabilizer of e is the tail
of the default chain.

Two memos sit in front of the chain: `order()` keeps its value in `_order`
and `point_stabilizer(point)` keeps each stabilizer in `_stabilizers`.  The
automorphism search in `schurity` fills both for the group it returns (its
order and the stabilizer of e come out of the search itself), and
`symmetric_group` fills both from n! and Sym(n-1), for every degree, so no
library path builds a chain.  The chain (`contains()`, `chain()`, and
orders and stabilizers of groups given by generators alone) serves only
the tests and the benchmark's stabilizer-chain probe.

Orbits need no chain.  A partition of 0..n-1 is a row of block-minimum
labels; `blocks` and `block_labels` convert it to and from its blocks.
`orbit_labels(tables, n)` is the orbit partition of points under the group
that the tables generate.  `PermGroup.orbits()`, `constructions.cyclotomic`,
the enumeration's root-orbit split and the cyclic partitions in `verify`
use it.  The one partition-orbit kernel is `partition_orbits(rows,
tables)`, a breadth-first closure of a set of partitions with one image
function, `_relabel`; its callers are `sring.orbit_keys` (the enumeration
closure, `classify_up_to_cayley` and catalog matching in `verify`) and
`verify.cyclotomic_partition_orbits`.  `orbit_of` is the search for the
orbit of one point, and `extend_orbit` grows an orbit when a generator is
added.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

CHAIN_BUDGET = 1_000_000  # transversal entries one chain may hold


def as_perm(p, degree=None):
    a = np.asarray(p, dtype=np.int64)
    if degree is not None and a.shape != (degree,):
        raise ValueError("permutation has wrong degree")
    return a


def compose(p, q):
    """Apply p first, then q."""
    return q[p]


def inverse(p):
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def is_identity(p):
    return bool(np.array_equal(p, np.arange(len(p))))


class _Chain:
    """Base, strong generators, and one transversal per base point.

    Level i acts with the strong generators fixing base[:i] pointwise; its
    transversal maps each orbit point of base[i] to a coset representative.
    """

    __slots__ = ("base", "strong", "transversal", "transversal_inv")

    def __init__(self, first_base, ident):
        self.base = [int(first_base)]
        self.strong = []
        self.transversal = [{self.base[0]: ident}]
        self.transversal_inv = [{self.base[0]: ident}]


def _build_chain(generators, degree, first_base):
    ident = np.arange(degree, dtype=np.int64)
    ident_bytes = ident.tobytes()
    chain = _Chain(first_base, ident)
    base, strong = chain.base, chain.strong
    trans, trans_inv = chain.transversal, chain.transversal_inv
    level_gens = [[]]  # indices into strong, per level
    done = [set()]  # processed (orbit point, gen index) Schreier pairs
    entries = 0
    seen = set()

    def sift_from(p, i):
        """Residue of p after stripping through levels i.., or None."""
        for j in range(i, len(base)):
            x = int(p[base[j]])
            if x not in trans[j]:
                return p
            p = trans_inv[j][x][p]
        return None if p.tobytes() == ident_bytes else p

    def add_strong(h):
        key = h.tobytes()
        if key in seen:
            return None
        seen.add(key)
        strong.append(h)
        idx = len(strong) - 1
        j = 0
        while j < len(base) and int(h[base[j]]) == base[j]:
            j += 1
        if j == len(base):
            b = int(np.nonzero(h != ident)[0][0])
            base.append(b)
            trans.append({b: ident})
            trans_inv.append({b: ident})
            level_gens.append([])
            done.append(set())
        for l in range(j + 1):
            level_gens[l].append(idx)
        return j

    def extend_orbit(i):
        nonlocal entries
        t, tinv = trans[i], trans_inv[i]
        queue = list(t.keys())
        while queue:
            x = queue.pop()
            rx = t[x]
            for gi in level_gens[i]:
                s = strong[gi]
                y = int(s[x])
                if y not in t:
                    entries += 1
                    if entries > CHAIN_BUDGET:
                        raise BudgetExceeded(
                            "stabilizer chain exceeded %d transversal entries" % CHAIN_BUDGET
                        )
                    rep = s[rx]
                    t[y] = rep
                    tinv[y] = inverse(rep)
                    queue.append(y)

    def ensure(i):
        """Establish the Schreier condition at levels i..; transversal
        entries are permanent, so each (point, generator) pair needs one
        sifting for the whole build."""
        while True:
            extend_orbit(i)
            t, tinv = trans[i], trans_inv[i]
            progressed = False
            for x in list(t.keys()):
                rx = t[x]
                for gi in level_gens[i]:
                    if (x, gi) in done[i]:
                        continue
                    done[i].add((x, gi))
                    s = strong[gi]
                    y = int(s[x])
                    schreier = tinv[y][s[rx]]
                    if schreier.tobytes() == ident_bytes:
                        continue
                    h = sift_from(schreier, i + 1)
                    if h is None:
                        continue
                    j = add_strong(h)
                    if j is None:
                        continue
                    for l in range(j, i, -1):
                        ensure(l)
                    progressed = True
            if not progressed:
                return

    for g in generators:
        if not is_identity(g):
            add_strong(g)
    l = len(base) - 1
    while l >= 0:
        ensure(l)
        l -= 1
    return chain


class PermGroup:
    def __init__(self, generators, degree):
        self.degree = int(degree)
        gens = []
        seen = set()
        for g in generators:
            a = as_perm(g, self.degree)
            key = a.tobytes()
            if key not in seen and not is_identity(a):
                seen.add(key)
                gens.append(a)
        self.generators = gens
        self._chain = None
        self._order = None
        self._stabilizers = {}

    @classmethod
    def from_distinct(cls, generators, degree):
        """The group on `generators`, int64 image arrays of length `degree`
        that the caller knows to be distinct and not the identity; they are
        kept as given, unchecked."""
        group = cls([], degree)
        group.generators = list(generators)
        return group

    def chain(self):
        if self._chain is None:
            self._chain = _build_chain(self.generators, self.degree, 0)
        return self._chain

    def order(self):
        if self._order is None:
            n = 1
            for t in self.chain().transversal:
                n *= len(t)
            self._order = n
        return self._order

    def contains(self, p):
        p = as_perm(p, self.degree)
        chain = self.chain()
        for j, b in enumerate(chain.base):
            x = int(p[b])
            if x not in chain.transversal[j]:
                return False
            p = chain.transversal_inv[j][x][p]
        return is_identity(p)

    def point_stabilizer(self, point):
        """The stabilizer of a point, from a chain rebased at that point."""
        point = int(point)
        if point not in self._stabilizers:
            if self._chain is not None and self._chain.base[0] == point:
                chain = self._chain
            elif point == 0:
                chain = self.chain()
            else:
                chain = _build_chain(self.generators, self.degree, point)
            gens = [p for p in chain.strong if int(p[point]) == point]
            self._stabilizers[point] = PermGroup(gens, self.degree)
        return self._stabilizers[point]

    def orbits(self):
        """Orbit partition on the domain, sorted."""
        return blocks(orbit_labels(self.generators, self.degree))

    def has_faithful_regular_orbit(self):
        """True iff some orbit has size equal to the group order.

        Transitivity on an orbit of full size forces trivial point
        stabilizers there, hence a regular and faithful action.
        """
        n = self.order()
        if n > self.degree:
            return False
        return any(len(o) == n for o in self.orbits())

    def __repr__(self):
        return "PermGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))


def right_translations(group):
    """The regular representation, generated by the canonical translations."""
    gens = [group.mul_table[:, g].copy() for g in group.canonical_generators()]
    return PermGroup(gens, group.size)


def symmetric_group(degree):
    """Sym(degree) from an n-cycle and an (n-1)-cycle; never enumerated.

    Its order n! and the stabilizer of 0, Sym on 1..n-1 from the cycle
    (1 ... n-1) and the transposition (1 2), are filled in, so neither
    builds a stabilizer chain.  Degree <= 1 gives the trivial group on one
    point, order 1, which is its own stabilizer of 0."""
    if degree <= 1:
        trivial = PermGroup([], 1)
        trivial._order = 1
        trivial._stabilizers[0] = trivial
        return trivial
    full = np.roll(np.arange(degree, dtype=np.int64), -1)
    sub = np.arange(degree, dtype=np.int64)
    sub[: degree - 1] = np.roll(sub[: degree - 1], -1)
    sym = PermGroup([full, sub], degree)
    sym._order = math.factorial(degree)
    cycle = np.arange(degree, dtype=np.int64)
    cycle[1:] = np.roll(cycle[1:], -1)
    swap = np.arange(degree, dtype=np.int64)
    swap[1:3] = swap[1:3][::-1]
    stab = PermGroup([cycle, swap], degree)
    stab._order = math.factorial(degree - 1)
    sym._stabilizers[0] = stab
    return sym


def orbit_of(gens, point):
    return extend_orbit(set(), gens, [int(point)])


def extend_orbit(orb, gens, points):
    """Close the set `orb` under `gens` in place, and return it, given that
    every image under `gens` of a point of `orb` lies in `orb` or among
    `points`.  Only the points new to `orb` are mapped."""
    queue = [x for x in points if x not in orb]
    orb.update(queue)
    while queue:
        x = queue.pop()
        for g in gens:
            y = int(g[x])
            if y not in orb:
                orb.add(y)
                queue.append(y)
    return orb


def orbit_labels(tables, n):
    """Block minima of the orbit partition of <tables> on 0..n-1, as int64.

    `tables` is a sequence of permutations of 0..n-1 as index arrays.
    Labels are pointers to smaller points of the same orbit, so they form a
    forest whose roots are block minima.  For each table t in turn, every
    pointer jumps to its root, and wherever the roots of i and t[i] differ
    the larger root is hooked onto the smaller.  Passes repeat until no
    table hooks a root (conditional hooking with pointer jumping, as in
    Shiloach and Vishkin 1982).  Plain min-label propagation would move a
    label one step per pass along an ascending cycle such as a translation
    x -> x + 1; hooking roots joins such a cycle in one pass.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        hooked = False
        for t in tables:
            labels = _roots(labels)
            images = labels[t]
            apart = labels != images
            if apart.any():
                low, high = np.minimum(labels, images), np.maximum(labels, images)
                np.minimum.at(labels, high[apart], low[apart])
                hooked = True
        if not hooked:
            return labels


def _roots(labels):
    while True:
        jumped = labels[labels]
        if jumped.tobytes() == labels.tobytes():
            return labels
        labels = jumped


def blocks(labels):
    """Blocks of a block-minimum labelling, each an ascending tuple, by their
    minima."""
    out = {}
    for i, label in enumerate(np.asarray(labels).tolist()):
        out.setdefault(label, []).append(i)
    return [tuple(b) for b in out.values()]


def block_labels(parts):
    """The block-minimum labels of a partition of 0..n-1, given by its
    blocks, as a tuple; the inverse of `blocks`."""
    labels = [0] * sum(map(len, parts))
    for b in parts:
        low = min(b)
        for i in b:
            labels[i] = low
    return tuple(labels)


def block_min(keys, values, size):
    """Minimum of `values` over each key, read back at every key."""
    low = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(low, keys.ravel(), values.ravel())
    return low[keys]


def _relabel(rows, tables):
    """Images of partitions under bijections: row j * len(rows) + r is the
    image of rows[r] under tables[j].

    Partitions are rows of block-minimum labels, and so are the images."""
    k, (m, n) = len(tables), rows.shape
    keys = (np.arange(k * m, dtype=np.int64).reshape(k, m, 1) * n) + rows[None, :, :]
    low = block_min(keys, np.broadcast_to(tables[:, None, :], (k, m, n)), k * m * n)
    inverse = np.argsort(tables, axis=1)
    return np.take_along_axis(low, inverse[:, None, :], axis=2).reshape(k * m, n)


# Table x row x point entries that one `_relabel` call maps; it bounds the
# arrays of a breadth-first level, which hold several times this many int64s.
_RELABEL_ENTRIES = 1 << 16


def partition_orbits(rows, tables):
    """The union of the orbits of partitions, given as label tuples, under
    the group that `tables` generate; each breadth-first level maps its
    frontier under every table in `_relabel` calls over slices of at most
    `_RELABEL_ENTRIES` entries."""
    closed = set(rows)
    if len(tables) == 0:
        return closed
    tables = np.asarray(tables, dtype=np.int64)
    step = max(1, _RELABEL_ENTRIES // tables.size)
    frontier = list(closed)
    while frontier:
        fresh = set()
        for lo in range(0, len(frontier), step):
            images = _relabel(np.array(frontier[lo:lo + step], dtype=np.int64), tables)
            fresh.update(map(tuple, images.tolist()))
        fresh -= closed
        closed |= fresh
        frontier = list(fresh)
    return closed
