"""Permutations of the group domain and permutation groups.

Permutations are image arrays over canonical indices.  PermGroup keeps a
deterministic Schreier-Sims stabilizer chain; group order and membership
never enumerate elements.  Base points are chosen in canonical index order
starting from e, so the stabilizer of e is the tail of the default chain.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

DEFAULT_CHAIN_BUDGET = 1_000_000


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


def _build_chain(generators, degree, first_base, budget):
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
                    if entries > budget:
                        raise BudgetExceeded(
                            "stabilizer chain exceeded %d transversal entries" % budget
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
    def __init__(self, generators, degree, chain_budget=DEFAULT_CHAIN_BUDGET):
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
        self.chain_budget = chain_budget
        self._chain = None

    def chain(self):
        if self._chain is None:
            self._chain = _build_chain(self.generators, self.degree, 0, self.chain_budget)
        return self._chain

    def order(self):
        chain = self.chain()
        n = 1
        for t in chain.transversal:
            n *= len(t)
        return n

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
        if self._chain is not None and self._chain.base[0] == point:
            chain = self._chain
        elif point == 0:
            chain = self.chain()
        else:
            chain = _build_chain(self.generators, self.degree, point, self.chain_budget)
        gens = [p for p in chain.strong if int(p[point]) == point]
        return PermGroup(gens, self.degree, self.chain_budget)

    def orbits(self, points=None):
        """Orbit partition on the domain (or the given points), sorted."""
        if points is None:
            points = range(self.degree)
        parent = {int(p): int(p) for p in points}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for g in self.generators:
            for i in list(parent):
                j = int(g[i])
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        blocks = {}
        for i in parent:
            blocks.setdefault(find(i), []).append(i)
        return sorted(tuple(sorted(b)) for b in blocks.values())

    def orbit(self, point):
        return frozenset(orbit_of(self.generators, point))

    def orbitals(self):
        """Orbit partition of the diagonal action on ordered pairs."""
        n = self.degree
        parent = np.arange(n * n, dtype=np.int64)

        def find(i):
            root = i
            while parent[root] != root:
                root = parent[root]
            while parent[i] != root:
                parent[i], i = root, parent[i]
            return root

        for g in self.generators:
            for a in range(n):
                ga = int(g[a]) * n
                an = a * n
                for b in range(n):
                    i, j = find(an + b), find(ga + int(g[b]))
                    if i != j:
                        parent[i] = j
        blocks = {}
        for code in range(n * n):
            blocks.setdefault(find(code), []).append((code // n, code % n))
        return sorted(tuple(sorted(b)) for b in blocks.values())

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
    """Sym(degree) from an n-cycle and an (n-1)-cycle; never enumerated."""
    if degree <= 1:
        return PermGroup([], max(degree, 1))
    full = np.roll(np.arange(degree, dtype=np.int64), -1)
    sub = np.arange(degree, dtype=np.int64)
    sub[: degree - 1] = np.roll(sub[: degree - 1], -1)
    return PermGroup([full, sub], degree)


def two_equivalent(p1, p2):
    """Equal orbit partitions on ordered pairs."""
    if p1.degree != p2.degree:
        raise ValueError("groups act on different domains")
    return {frozenset(o) for o in p1.orbitals()} == {frozenset(o) for o in p2.orbitals()}


def orbit_of(gens, point):
    seen = {int(point)}
    queue = [int(point)]
    while queue:
        x = queue.pop()
        for g in gens:
            y = int(g[x])
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen
