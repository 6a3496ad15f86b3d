"""Schurity of an S-ring from the complete color-automorphism search of
its Cayley scheme.

The scheme of an S-ring colors each ordered pair (a,b) by the class of
b*a^-1 (`scheme_matrix`).  `scheme_automorphisms` finds generators for
the FULL group of color-preserving permutations by an exhaustive
individualization-refinement backtrack: partitions are refined to
stability by color-degree counts, the branch cell is the first smallest
non-singleton cell, and subtrees prune on refinement-trace mismatch.
Right translations are seeded as known automorphisms, so the top branching
level collapses and the search descends straight into the stabilizer of e.
Generators found along the way prune sibling branches via orbit
computations; the result is deterministic as a set of generators.

The input must be an S-ring, as every `SRing` is, and the search reads its
first two levels off that.  The root needs no work: the translations make
the scheme vertex-transitive, so the unit partition is already stable and
the orbit of e is all of G, of size n, with no orbit search.  Below it, the
partition with e individualized refines to the class partition (e, then
the classes in colour order), because the S-ring axiom makes that
partition equitable: the number of y in a class D with colour k from x, for
x in a class C, is a structure constant.  So that step is one stable sort
of the colour column of e (`_class_partition`), with no splitter queue.

Each ordered partition is held as two arrays for the whole search, the
vertices in cell order and the start of each position's cell, and is
refined against a queue of splitter cells (McKay and Piperno 2014).
Individualizing v in a stable partition queues only the singleton {v}:
the rest of v's old cell needs no turn, by Hopcroft's rule.  A singleton
splitter costs one column of the colour matrix, and nothing more when that
column splits no cell.  The node budget still counts one refinement per
individualized vertex, however many splitters it takes, and counts
individualizing e as one node, though it takes none.

The first path (always the first vertex of the branch cell) is refined
once: `build` records each of its steps, and `find_one`, which looks for an
automorphism mapping the first path onto a candidate path, reads its side
from that record and refines only the candidate side.  At every candidate
node, before descending, `find_one` tests the positional map that sends the
first path's partition at the same depth onto the candidate's, position by
position, against the colour matrix (as nauty and Traces test a cheap
candidate map; McKay and Piperno 2014).  The two partitions descend from
one first-path node by individualizing at the same cell starts, and
refinement keeps each singleton in its position, so the map fixes the
vertices individualized above that node and sends the first-path vertex
below it to the candidate vertex: a map that passes is all that the orbit
argument below needs.  At the leaf depth this is the leaf test; above it,
it saves one refinement per remaining level whenever it passes.

The search also yields |Aut| and the stabilizer of e, so no Schreier-Sims
chain is needed for them.  The generators found below a node of the first
path, together with those found at it, generate the stabilizer of that
node's fixed points, so the generators form a strong generating set for the
base of first-path vertices, and |Aut| is the product of the final orbit
sizes along the first path (McKay 1981, "Practical graph isomorphism";
McKay and Piperno 2014, "Practical graph isomorphism, II").  The base
starts at e, so every generator beyond the right translations fixes e, and
those generate Aut_e, of order |Aut|/|G|.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import constructions as cons
from . import permaction as pa
from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 500_000


def scheme_matrix(ring):
    """Color matrix: M[a, b] = class index of b * a^-1."""
    g = ring.group
    return ring.class_of[g.mul_table[g.inv_table]].astype(np.int32)


# -- refinement ---------------------------------------------------------------
#
# An ordered partition of the n vertices is a pair of arrays: `lab`, the
# vertices in cell order, each cell ascending; and `start`, for each position,
# the position where its cell begins.  A cell is the slice lab[s:e] on which
# start equals s, so `start` is non-decreasing and start[p] == p marks a cell
# start.  Refinement only ever splits cells, so a cell start stays a cell start.


def _cell_end(start, s):
    return int(start.searchsorted(s, "right"))


def _refine(m, rank, lab, start, queue):
    """Refine an ordered partition to colour-degree stability.

    `queue` lists the starts of the cells to refine against (splitters).
    A cell may be left out when the partition is stable against it, or
    against its union with queued cells: the search individualizes v in a
    stable partition and queues only {v}.  Returns new arrays (lab, start)
    and the trace; the inputs are not modified.

    Splitters are taken first in, first out.  A splitter S at start s is a
    singleton when s is the last position or the next position starts a
    cell of its own.  S gives each position a key: for S = {v}, the colour
    m[x, v]; otherwise x's count of each colour into S, from one bincount.
    When the key is constant on every cell, nothing splits; otherwise one
    stable sort on (cell start, key) splits each cell into fragments
    ordered by key, each still ascending.  Every new fragment is queued.
    The fragment that keeps its parent's start is queued only if the
    parent was, since it already is then (Hopcroft's rule: counts into it
    are the counts into the parent minus those into the other fragments).

    The trace holds, per splitter, its start, a hash of the keys in sorted
    order and a hash of the new cell starts.  All three are read off
    positions and colours, so a colour automorphism that maps one input
    partition onto another maps the refined partitions onto each other
    cell by cell, and their traces are equal (McKay and Piperno 2014).
    """
    n = len(lab)
    trace = []
    queue = deque(queue)
    while queue:
        s = queue.popleft()
        if s + 1 == n or start[s + 1] != s:
            key = m[lab, lab[s]]
            keys = key.tobytes()
            if keys == key[start].tobytes():
                trace.append((s, hash(keys)))
                continue
            order = np.argsort(start * rank + key, kind="stable")
            key = key[order]
            new = key[1:] != key[:-1]
        else:
            e = _cell_end(start, s)
            rows = m[lab[:, None], lab[s:e]] + (np.arange(n) * rank)[:, None]
            key = np.bincount(rows.ravel(), minlength=n * rank).reshape(n, rank)
            keys = key.tobytes()
            if keys == key[start].tobytes():
                trace.append((s, hash(keys)))
                continue
            order = np.lexsort(np.vstack([key.T[::-1], start]))
            key = key[order]
            new = (key[1:] != key[:-1]).any(axis=1)
        new &= start[1:] == start[:-1]
        heads = np.flatnonzero(new) + 1
        lab = lab[order]
        start = start.copy()
        start[heads] = heads
        np.maximum.accumulate(start, out=start)
        trace.append((s, hash(key.tobytes()), hash(heads.tobytes())))
        queue.extend(heads.tolist())
    return lab, start, tuple(trace)


def _individualize(lab, start, s, v):
    """Split v off the front of the cell that starts at s."""
    e = _cell_end(start, s)
    lab, start = lab.copy(), start.copy()
    cell = lab[s:e]
    cell[1:] = cell[cell != v]
    cell[0] = v
    start[s + 1:e] = s + 1
    return lab, start


def _branch_index(start):
    """The start of the first smallest non-singleton cell, or -1 when the
    partition is discrete."""
    sizes = np.bincount(start, minlength=len(start))
    sizes[sizes < 2] = len(start) + 1
    s = int(np.argmin(sizes))
    return -1 if sizes[s] > len(start) else s


def _class_partition(m):
    """The (lab, start) that `_refine` gives for ({e}, G - e): e, then the
    cells of column e in colour order, each ascending.

    The splitter {e} keys x by m[x, e], the class of x^-1, so its cells are
    the classes, and no later splitter splits them, since the class
    partition is equitable (see the module docstring)."""
    n = len(m)
    lab = np.argsort(m[:, 0], kind="stable")
    colour = m[lab, 0]
    start = np.zeros(n, dtype=np.int64)
    heads = np.flatnonzero(colour[1:] != colour[:-1]) + 1
    start[heads] = heads
    np.maximum.accumulate(start, out=start)
    return lab, start


# -- the search ---------------------------------------------------------------


def scheme_automorphisms(ring, stats=None):
    """Generators of the full color-preserving group of the ring's scheme.

    Always contains the right translations.  Rank <= 2 short-circuits to the
    symmetric group, which is returned by generators and never enumerated.
    Either way the returned group already knows its order and its stabilizer
    of e: n! and Sym(n-1), or read off the search (see the module docstring).

    `ring` must be an S-ring, as every `SRing` is.  Then the root needs no
    refinement and no orbit search: the translations make the scheme
    vertex-transitive, so the unit partition is stable and the orbit of e
    is all of G.  The first path starts by individualizing e, and that
    refines to the class partition (`_class_partition`), which the S-ring
    axiom makes equitable.

    The node budget, `DEFAULT_NODE_BUDGET` read at each call, counts
    refinements: each individualized vertex, on the first path or a
    candidate path, is one node, e included, and the first path is refined
    only once.  Candidate paths stop where the positional map already is an
    automorphism (see the module docstring), so the same budget reaches
    further into the search than a leaf-only test would.

    Counters are added into `stats` in place, if given: `nodes`
    (refinements), `generators` (of the returned group, translations
    included) and `depth` (the length of the first path).  When the budget
    runs out, the counters so far are added all the same, and then
    BudgetExceeded is raised with the nodes searched and the generators
    found.
    """
    g = ring.group
    n = g.size
    if ring.rank <= 2:
        aut = pa.symmetric_group(n)
        _add_stats(stats, 0, len(aut.generators), 0)
        return aut
    m = scheme_matrix(ring)
    m_bytes = m.tobytes()
    rank = ring.rank
    translations = [g.mul_table[:, c].copy() for c in g.canonical_generators()]
    # the generators found by the search, each fixing e
    gens = []
    nodes = 0
    node_limit = DEFAULT_NODE_BUDGET
    # first-path steps (branch cell start, vertex, refined lab, trace), by depth
    path = []

    def count_node():
        nonlocal nodes
        if nodes == node_limit:
            raise BudgetExceeded(
                "automorphism search exceeded its node budget after %d nodes, "
                "%d generators found" % (nodes, len(translations) + len(gens))
            )
        nodes += 1

    def ind_ref(lab, start, s, v):
        count_node()
        return _refine(m, rank, *_individualize(lab, start, s, v), [s])

    def positional_aut(lab1, lab2):
        """The map lab1[i] -> lab2[i] if it preserves colours, else None."""
        f = np.empty(n, dtype=np.int64)
        f[lab1] = lab2
        if m[f][:, f].tobytes() == m_bytes:
            return f
        return None

    def find_one(depth, lab2, start2):
        """An automorphism mapping the first path from `depth` on onto a path
        below the candidate partition (lab2, start2), or None.

        The positional map from the first path's partition at this depth
        onto (lab2, start2) is tried first, and is the whole test at the
        leaf depth.  The first-path side is read from `path`, so only the
        candidate side is refined."""
        f = positional_aut(path[depth - 1][2], lab2)
        if f is not None or depth == len(path):
            return f
        s, _, _, f1 = path[depth]
        for w in lab2[s:_cell_end(start2, s)].tolist():
            lab3, start3, f2 = ind_ref(lab2, start2, s, w)
            if f2 != f1:
                continue
            r = find_one(depth + 1, lab3, start3)
            if r is not None:
                return r
        return None

    def build(lab, start):
        """Extend gens to generate the stabilizer of the first-path vertices
        fixed so far; its order.  Records each first-path step in `path`
        before descending, so the first path is refined once."""
        s = _branch_index(start)
        if s < 0:
            return 1
        depth = len(path)
        cell = lab[s:_cell_end(start, s)].tolist()
        v = cell[0]
        labv, startv, fv = ind_ref(lab, start, s, v)
        path.append((s, v, labv, fv))
        below = build(labv, startv)
        # `build` recurses only along the first path, so every generator was
        # found at this depth or deeper and fixes the path prefix
        orb = pa.orbit_of(gens, v)
        for w in cell[1:]:
            if w in orb:
                continue
            labw, startw, fw = ind_ref(lab, start, s, w)
            if fw != fv:
                continue
            r = find_one(depth + 1, labw, startw)
            if r is not None:
                gens.append(r)
                # orb is closed under the old generators: only r's images
                # of it, and what they reach, can be new
                pa.extend_orbit(orb, gens, r[list(orb)].tolist())
        return len(orb) * below

    try:
        # The root: the unit partition is stable and the orbit of e is G.
        # Individualizing e is one node; no sibling of e is ever refined, so
        # its trace is never compared.
        count_node()
        lab1, start1 = _class_partition(m)
        path.append((0, 0, lab1, None))
        order = n * build(lab1, start1)
    finally:
        _add_stats(stats, nodes, len(translations) + len(gens), len(path))
    # The search's generators are distinct and move some point, since each
    # maps its branch vertex outside the orbit found so far; a translation
    # other than the identity fixes no point.
    stab = pa.PermGroup.from_distinct(gens, n)
    stab._order = order // n
    aut = pa.PermGroup.from_distinct(translations + gens, n)
    aut._order = order
    aut._stabilizers[0] = stab
    return aut


def _add_stats(stats, nodes, generators, depth):
    if stats is not None:
        for k, v in (("nodes", nodes), ("generators", generators), ("depth", depth)):
            stats[k] = stats.get(k, 0) + v


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


def is_schurian(ring, stats=None):
    """Compare the e-stabilizer orbits of the full scheme automorphism group
    with the class partition.

    Orbits of the stabilizer are always contained in classes, so the ring is
    schurian iff every class is a single orbit; otherwise the witness names a
    split class.  No stabilizer chain is built.  For rank <= 2, Aut is
    Sym(G), whose order and e-stabilizer `symmetric_group` fills in.  For
    rank > 2, Aut_e and |Aut| come from the automorphism search itself: Aut_e
    is generated by the generators it found beyond the right translations,
    and |Aut| is the product of the orbit sizes along its first path
    (McKay's argument, see the module docstring).  `stats` receives the
    search's counters, as in `scheme_automorphisms`.
    """
    aut = scheme_automorphisms(ring, stats)
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


@dataclass(eq=False)  # the rows are arrays, which have no single truth value
class GeneralizedWreathReport:
    upper: np.ndarray
    lower: np.ndarray
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


def genwr_certificate(ring, upper, lower):
    """Evaluate the faithful-regular-orbit certificate on the section ring
    A_{U/L}, for the rows U and L of A-subgroups with L <= U, and,
    independently, direct schurity of A; report both."""
    is_gw = cons.is_generalized_wreath(ring, upper, lower)
    a_u = ring.restrict(upper)
    a_gl = ring.quotient_ring(np.ones(ring.group.size, dtype=bool), lower)
    a_ul = ring.quotient_ring(upper, lower)
    upper_rep = is_schurian(a_u)
    quot_rep = is_schurian(a_gl)
    aut_ul = scheme_automorphisms(a_ul)
    regorb = aut_ul.point_stabilizer(0).has_faithful_regular_orbit()
    direct = is_schurian(ring)
    return GeneralizedWreathReport(
        upper=upper,
        lower=lower,
        is_generalized_wreath=is_gw,
        upper_schurian=upper_rep.schurian,
        quotient_schurian=quot_rep.schurian,
        section_regular_orbit=regorb,
        schurian=direct.schurian,
    )
