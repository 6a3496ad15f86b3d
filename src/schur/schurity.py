"""Cayley schemes and the complete color-automorphism search.

The scheme of an S-ring colors each ordered pair (a,b) by the class of
b*a^-1.  `scheme_automorphisms` finds generators for the FULL group of
color-preserving permutations by an exhaustive individualization-refinement
backtrack: partitions are refined to stability by color-degree counts, the
branch cell is the first smallest non-singleton cell, and subtrees prune on
refinement-trace mismatch.  Right translations are seeded as known
automorphisms, so the top branching level collapses and the search descends
straight into the stabilizer of e.  Generators found along the way prune
sibling branches via orbit computations; the result is deterministic as a
set of generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constructions as cons
from . import permaction as pa
from . import sring as sr
from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 500_000


def scheme_matrix(ring):
    """Color matrix: M[a, b] = class index of b * a^-1."""
    g = ring.group
    return ring.class_of[g.mul_table[g.inv_table]].astype(np.int32)


@dataclass
class CayleyScheme:
    ring: "sr.SRing"
    matrix: np.ndarray

    @property
    def group(self):
        return self.ring.group

    def color(self, a, b):
        return int(self.matrix[a, b])


def cayley_scheme(ring, verify=True):
    scheme = CayleyScheme(ring, scheme_matrix(ring))
    if verify:
        verify_scheme_axioms(scheme)
    return scheme


def verify_scheme_axioms(scheme, max_triples=200_000):
    """Check the scheme axioms; a failure means an S-ring validation bug.

    Colors partition GxG by construction; the diagonal color, transpose
    closure, and the intermediate-count regularity (against one
    representative pair per triple) are checked explicitly.
    """
    m = scheme.matrix
    ring = scheme.ring
    n = m.shape[0]
    if not np.all(np.diag(m) == 0):
        raise AssertionError("diagonal pairs must carry the identity color")
    inv_class = np.array([ring.inverse_class(x) for x in range(ring.rank)])
    if not np.array_equal(inv_class[m], m.T):
        raise AssertionError("color set is not closed under transpose")
    rank = ring.rank
    triples = rank ** 3
    step = max(1, triples // max_triples)
    idx = 0
    for t in range(rank):
        # one representative pair (f, g) with color t
        f = 0
        gpt = int(ring.class_arrays[t][0])
        row_f = m[f]
        col_g = m[:, gpt]
        for r in range(rank):
            for s in range(rank):
                idx += 1
                if idx % step:
                    continue
                count = int(np.sum((row_f == r) & (col_g == s)))
                if count != ring.structure_constant(s, r, t):
                    raise AssertionError(
                        "intermediate counts disagree with structure constants"
                    )


def intermediate_count(scheme, f, g, r, s):
    """|{h : color(f,h)=r and color(h,g)=s}| counted directly."""
    m = scheme.matrix
    return int(np.sum((m[f] == r) & (m[:, g] == s)))


# -- refinement ---------------------------------------------------------------


def _refine(m, rank, cells):
    """Refine cells to color-degree stability.

    Returns (cells, trace): cells are index arrays ordered deterministically
    and equivariantly (old cell position, then signature bytes); the trace
    fingerprints every split decision, so two partitions that some color
    automorphism maps onto each other always produce equal traces.
    """
    n = m.shape[0]
    trace = []
    while True:
        k = len(cells)
        if k == n:
            break
        cell_id = np.empty(n, dtype=np.int64)
        for idx, c in enumerate(cells):
            cell_id[c] = idx
        rows = np.concatenate([c for c in cells if len(c) > 1])
        codes = m[rows].astype(np.int64) * k + cell_id[None, :]
        width = rank * k
        flat = codes + (np.arange(len(rows), dtype=np.int64) * width)[:, None]
        counts = np.bincount(flat.ravel(), minlength=len(rows) * width)
        counts = counts.reshape(len(rows), width).astype(np.int32)
        sig_of = {}
        for pos, v in enumerate(rows):
            sig_of[int(v)] = counts[pos].tobytes()
        new_cells = []
        round_trace = []
        changed = False
        for ci, c in enumerate(cells):
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c:
                groups.setdefault(sig_of[int(v)], []).append(int(v))
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                new_cells.append(np.array(sorted(groups[sig]), dtype=np.int64))
                round_trace.append((ci, hash(sig), len(groups[sig])))
        trace.append(tuple(round_trace))
        cells = new_cells
        if not changed:
            break
    return cells, tuple(trace)


def _individualize(cells, ci, v):
    cell = cells[ci]
    rest = cell[cell != v]
    return cells[:ci] + [np.array([v], dtype=np.int64), rest] + cells[ci + 1:]


def _branch_index(cells):
    best, best_size = -1, None
    for i, c in enumerate(cells):
        if len(c) > 1 and (best_size is None or len(c) < best_size):
            best, best_size = i, len(c)
    return best


# -- the search ---------------------------------------------------------------


def scheme_automorphisms(
    ring,
    node_budget=DEFAULT_NODE_BUDGET,
    chain_budget=pa.DEFAULT_CHAIN_BUDGET,
):
    """Generators of the full color-preserving group of the ring's scheme.

    Always contains the right translations.  Rank <= 2 short-circuits to the
    symmetric group, which is returned by generators and never enumerated.
    """
    g = ring.group
    n = g.size
    if n == 1:
        return pa.PermGroup([], 1, chain_budget)
    if ring.rank <= 2:
        return pa.symmetric_group(n)
    m = scheme_matrix(ring)
    rank = ring.rank
    gens = list(pa.right_translations(g).generators)
    nodes = 0

    def ind_ref(cells, ci, v):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("automorphism search exceeded %d nodes" % node_budget)
        return _refine(m, rank, _individualize(cells, ci, v))

    def leaf_perm(c1, c2):
        f = np.empty(n, dtype=np.int64)
        for a, b in zip(c1, c2):
            f[int(a[0])] = int(b[0])
        if np.array_equal(m[np.ix_(f, f)], m):
            return f
        return None

    def find_one(c1, c2):
        if len(c1) == n:
            return leaf_perm(c1, c2)
        i = _branch_index(c1)
        v = int(c1[i][0])
        s1, f1 = ind_ref(c1, i, v)
        for w in c2[i]:
            s2, f2 = ind_ref(c2, i, int(w))
            if f2 != f1:
                continue
            r = find_one(s1, s2)
            if r is not None:
                return r
        return None

    def build(cells, fixed):
        if len(cells) == n:
            return
        i = _branch_index(cells)
        cell = cells[i]
        v = int(cell[0])
        sv, fv = ind_ref(cells, i, v)
        build(sv, fixed + [v])
        fixing = [p for p in gens if all(int(p[x]) == x for x in fixed)]
        orb = pa.orbit_of(fixing, v)
        for w in cell[1:]:
            w = int(w)
            if w in orb:
                continue
            sw, fw = ind_ref(cells, i, w)
            if fw != fv:
                continue
            r = find_one(sv, sw)
            if r is not None:
                gens.append(r)
                fixing.append(r)
                orb = pa.orbit_of(fixing, v)

    cells0, _ = _refine(m, rank, [np.arange(n, dtype=np.int64)])
    build(cells0, [])
    return pa.PermGroup(gens, n, chain_budget)


# -- schurity -----------------------------------------------------------------


@dataclass
class SchurityReport:
    schurian: bool
    aut_order: int
    stabilizer_orbits: list
    witness: dict | None
    aut: pa.PermGroup

    def __bool__(self):
        return self.schurian


def is_schurian(ring, node_budget=DEFAULT_NODE_BUDGET, chain_budget=pa.DEFAULT_CHAIN_BUDGET):
    """Compare the e-stabilizer orbits of the full scheme automorphism group
    with the class partition.

    Orbits of the stabilizer are always contained in classes, so the ring is
    schurian iff every class is a single orbit; otherwise the witness names a
    split class.
    """
    aut = scheme_automorphisms(ring, node_budget, chain_budget)
    stab = aut.point_stabilizer(0)
    orbits = stab.orbits()
    by_class = {}
    for o in orbits:
        ids = {int(ring.class_of[i]) for i in o}
        if len(ids) != 1:
            raise RuntimeError("stabilizer orbit crosses classes: search bug")
        by_class.setdefault(ids.pop(), []).append(o)
    schurian = len(orbits) == ring.rank
    witness = None
    if not schurian:
        ci, parts = next((c, p) for c, p in sorted(by_class.items()) if len(p) > 1)
        witness = {
            "class_index": ci,
            "class": [list(ring.group.elements[i]) for i in sorted(ring.classes[ci])],
            "orbits": [[list(ring.group.elements[i]) for i in o] for o in parts],
        }
    return SchurityReport(
        schurian=schurian,
        aut_order=aut.order(),
        stabilizer_orbits=orbits,
        witness=witness,
        aut=aut,
    )


@dataclass
class GeneralizedWreathReport:
    section: "sr.SectionRef"
    is_generalized_wreath: bool
    upper_schurian: bool
    quotient_schurian: bool
    section_regular_orbit: bool
    schurian: bool

    @property
    def consistent(self):
        """The sufficient condition may only certify schurian rings."""
        preconditions = (
            self.is_generalized_wreath and self.upper_schurian and self.quotient_schurian
        )
        if preconditions and self.section_regular_orbit:
            return self.schurian
        return True


def genwr_certificate(ring, upper, lower, node_budget=DEFAULT_NODE_BUDGET):
    """Evaluate the faithful-regular-orbit certificate on the section ring
    A_{U/L} and, independently, direct schurity of A; report both."""
    section = sr.SectionRef(upper, lower)
    is_gw = cons.is_generalized_wreath(ring, upper, lower)
    full = sr.SectionRef(
        upper=_full_subgroup(ring), lower=lower
    )
    a_u = ring.restrict(upper)
    a_gl = ring.quotient_ring(full)
    a_ul = ring.quotient_ring(section)
    upper_rep = is_schurian(a_u, node_budget)
    quot_rep = is_schurian(a_gl, node_budget)
    aut_ul = scheme_automorphisms(a_ul, node_budget)
    regorb = aut_ul.point_stabilizer(0).has_faithful_regular_orbit()
    direct = is_schurian(ring, node_budget)
    return GeneralizedWreathReport(
        section=section,
        is_generalized_wreath=is_gw,
        upper_schurian=upper_rep.schurian,
        quotient_schurian=quot_rep.schurian,
        section_regular_orbit=regorb,
        schurian=direct.schurian,
    )


def _full_subgroup(ring):
    from . import group as grp

    return grp.full_subgroup(ring.group)
