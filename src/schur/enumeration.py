"""Complete enumeration of all S-rings over a small abelian group.

The search assigns the class X of the least unassigned element, the pivot,
choosing it as a subset of the unassigned elements; candidate classes are
tried in size-ascending lexicographic order.  Two rules, always on, steer
the search:

  (a) multipliers -- by Schur's theorem on multipliers, X^(m) is a basic
      set for every m coprime to |G| (inverse closure is the case m = -1).
      Let M be the group of these power maps.  If the pivot lies in a
      power image of a completed class, that image is its class, with no
      branching.  Otherwise the pivot's whole M-orbit is unassigned, so no
      power image of X is a completed class: with K = {m in M : X^(m) = X},
      every m outside K maps X to an unassigned set disjoint from X.  Hence
      X meets each M-orbit in at most one K-orbit y^K, that M-orbit is
      wholly unassigned, and Stab_M(y) <= K; conversely every such union
      passes.  The candidates are, for each subgroup K >= Stab_M(pivot),
      pivot^K plus none or one such K-orbit from each other M-orbit, all
      within the elements the pivot's profile allows: a plain product, and
      distinct K give distinct classes;
  (b) partial module closure: products of completed class sums must be
      constant on every completed class, and every element of a candidate
      class must agree with the pivot on all product coefficients seen so
      far;
  (c) isomorph rejection at the root (McKay 1998, "Isomorph-free
      exhaustive generation") -- every h in H = Stab_Aut(G)(pivot) maps an
      S-ring whose pivot class is X onto an S-ring whose pivot class is
      h(X).  So only the least root candidate of each H-orbit is searched,
      and the rings found are then closed under generators of H.

Candidate classes are sorted index tuples.  A leaf is certified from the
search's own state, with no second pass: the product rows that partial
module closure kept cover every pair of non-identity classes, so the leaf
checks each row constant on every class, and checks inverse closure
(`_Search._leaf`).  These are the axioms `sring.validate` checks, so
pruning soundness affects only completeness.  The brute-force oracle in
`tests/conftest.py`, which filters every set partition through
`sring.validate` and is capped at order 9, cross-checks it.
All S-ring counts produced here are artifact regression constants; they are
not published values.
"""

from __future__ import annotations

import itertools
import random
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import group as grp
from . import sring as sr
from .errors import BudgetExceeded
from .permaction import orbit_labels
from .sring import class_products

DEFAULT_ENUM_CAP = 81


class _Search:
    def __init__(self, group, deadline, stats):
        self.group = group
        self.n = group.size
        self.deadline = deadline
        self.stats = stats
        exp = group.exponent
        mults = group.multiplier_exponents()
        power = {m: group.power_map(m) for m in mults}
        # powers[j] is the power map x -> x^m of the j-th multiplier m != 1,
        # and roots[y, j] the preimage of y under it
        others = [m for m in mults if m != 1]
        self.powers = np.array([power[m] for m in others], dtype=np.int64).reshape(-1, self.n)
        self.roots = np.array(
            [power[pow(m, -1, exp)] for m in others], dtype=np.int64
        ).reshape(-1, self.n).T
        # For the multiplier rule (module docstring), per element y: its orbit
        # under the multiplier group M (sorted, so [0] names it), Stab_M(y),
        # and per subgroup K of M the K-orbit y^K.  M's subgroups are read off
        # its table over the positions of `mults` (mults[0] = 1); residues are
        # taken mod exp, so exp(G) = 1 gives the one-entry table.
        elems = range(self.n)
        self.orbit = [np.array(sorted({int(pm[y]) for pm in power.values()})) for y in elems]
        self.stab = [frozenset(m for m in mults if power[m][y] == y) for y in elems]
        index = {m % exp: i for i, m in enumerate(mults)}
        table = [[index[a * b % exp] for b in mults] for a in mults]
        subgroups = [frozenset(mults[i] for i in s) for s in grp.subgroup_sets(table)]
        self.blocks = [
            (sub, [tuple(sorted({int(power[m][y]) for m in sub})) for y in elems])
            for sub in subgroups
        ]
        self.class_of = np.full(self.n, -1, dtype=np.int64)
        self.class_of[0] = 0
        self.rep = np.zeros(self.n, dtype=np.int64)  # each assigned element's class minimum
        # a stack of the assigned elements, class by class: stack[:top]
        self.stack = np.zeros(self.n, dtype=np.int64)
        self.top = 1
        self.completed = [np.array([0], dtype=np.int64)]  # class arrays, by least element
        # per completed non-identity class X, the product vectors X*C for the
        # non-identity classes C completed up to X, X itself included
        self.rows = []
        self.results = []

    def _tick(self):
        self.stats["nodes"] += 1
        _check_deadline(self.deadline)

    # -- tree ------------------------------------------------------------------

    def _extend(self):
        self._tick()
        pivot = self._least_unassigned()
        if pivot is None:
            self._leaf()
            return
        for cand in self.candidates(pivot):
            if self._assign(cand):
                self._extend()
                self._unassign()
        return

    def _least_unassigned(self):
        free = np.nonzero(self.class_of < 0)[0]
        return int(free[0]) if free.size else None

    def _leaf(self):
        """Certify the completed partition as an S-ring from the search state.

        Every element is assigned, the classes are disjoint and {e} is
        class 0.  `rows` holds X*C for every pair of non-identity classes,
        and X*{e} = X, so module closure is every row being constant on
        every class.  Inverse closure is the class of x^-1 being constant
        on each class.  The key is `completed` as it stands, classes in
        order of their least element, as `SRing.canonical_key` gives it."""
        self.stats["leaves"] += 1
        rows = np.concatenate(self.rows) if self.rows else np.zeros((0, self.n), dtype=np.int64)
        inverse = self.class_of[self.group.inv_table]
        if not ((rows == rows[:, self.rep]).all() and (inverse == inverse[self.rep]).all()):
            self.stats["leaf_rejects"] += 1
            return
        self.results.append(tuple(tuple(arr.tolist()) for arr in self.completed))

    # -- candidate generation ----------------------------------------------------

    def candidates(self, pivot):
        forced = self._forced_candidate(pivot)
        if forced is not None:
            ok, cand = forced
            return [cand] if ok else []
        free = self.class_of < 0
        eligible = [int(i) for i in np.nonzero(free)[0] if i > pivot]
        if self.rows:
            prof = np.concatenate(self.rows)
            keep = np.all(prof[:, eligible] == prof[:, [pivot]], axis=0)
            self.stats["profile_filtered"] += len(eligible) - int(keep.sum())
            eligible = [y for y, k in zip(eligible, keep) if k]
        allowed = set(eligible) | {pivot}
        home = self.orbit[pivot][0]
        others = [
            y for y in eligible if self.orbit[y][0] != home and free[self.orbit[y]].all()
        ]
        found = []
        for sub, block in self.blocks:
            if not (self.stab[pivot] <= sub and allowed.issuperset(block[pivot])):
                continue
            options = {}
            for y in others:
                if self.stab[y] <= sub and allowed.issuperset(block[y]):
                    options.setdefault(self.orbit[y][0], {()}).add(block[y])
                else:
                    self.stats["prune_multiplier"] += 1
            for pick in itertools.product(*options.values()):
                found.append(tuple(sorted(itertools.chain(block[pivot], *pick))))
        found.sort(key=lambda t: (len(t), t))
        self.stats["candidates"] += len(found)
        return found

    def _forced_candidate(self, pivot):
        """Pivot class dictated by a power image of a completed class.

        Returns None when nothing forces, else (ok, candidate), the
        candidate a sorted index tuple."""
        forcing = self.class_of[self.roots[pivot]]
        outcome = None
        for j in np.flatnonzero(forcing >= 0):
            image = np.sort(self.powers[j, self.completed[forcing[j]]])
            if outcome is None:
                outcome = image
            elif not np.array_equal(outcome, image):
                self.stats["prune_forced"] += 1
                return (False, None)
        if outcome is None:
            return None
        if (self.class_of[outcome] >= 0).any():
            self.stats["prune_forced"] += 1
            return (False, None)
        return (True, tuple(outcome.tolist()))

    # -- assignment --------------------------------------------------------------

    def _assign(self, members):
        """Make `members`, a sorted index tuple, the next class if partial
        module closure holds.

        One `class_products` call gives X*C for every assigned class C and
        X*X; each such row must be constant on every assigned class, which
        is one comparison against the class's first member (`rep`).  Rows
        for products of earlier classes were checked when those were
        assigned, and the row X*{e} = X is constant on every class."""
        arr = np.array(members, dtype=np.int64)
        k = len(self.completed)
        self.class_of[arr] = k
        self.rep[arr] = arr[0]
        top = self.top + len(arr)
        self.stack[self.top:top] = arr
        assigned = self.stack[:top]
        rows = class_products(self.group, arr, assigned, self.class_of[assigned], k + 1)[1:]
        if not (rows[:, assigned] == rows[:, self.rep[assigned]]).all():
            self.class_of[arr] = -1
            self.stats["prune_module"] += 1
            return False
        self.top = top
        self.rows.append(rows)
        self.completed.append(arr)
        return True

    def _unassign(self):
        arr = self.completed.pop()
        self.class_of[arr] = -1
        self.top -= len(arr)
        self.rows.pop()


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() >= deadline:
        raise BudgetExceeded("enumeration time limit exceeded")


def _new_stats():
    """Zeroed search counters.  `leaves` counts the leaves searched, which
    lie below root-orbit representatives only, not the rings returned;
    `leaf_rejects` counts the leaves whose certificate (`_Search._leaf`)
    fails, on module or inverse closure.
    `prune_multiplier` counts, per unforced node and subgroup K of the
    multiplier group, the eligible elements of other wholly unassigned
    multiplier orbits that K rejects: y^K leaves the allowed elements, or
    Stab_M(y) is not inside K."""
    return {
        "nodes": 0,
        "leaves": 0,
        "leaf_rejects": 0,
        "candidates": 0,
        "profile_filtered": 0,
        "prune_forced": 0,
        "prune_multiplier": 0,
        "prune_module": 0,
    }


def _run_slice(group, roots, deadline):
    """(keys, stats, timed_out): the S-ring keys below the given root
    classes and the search's stats, partial if the deadline cut it short."""
    s = _Search(group, deadline, _new_stats())
    try:
        for cand in roots:
            if s._assign(cand):
                s._extend()
                s._unassign()
    except BudgetExceeded:
        return s.results, s.stats, True
    return s.results, s.stats, False


def _root_orbit_representatives(cands, tables):
    """The least candidate, in list order, of each orbit of the group that
    `tables` generate; the candidate list must be closed under it.

    A candidate's key is the sum over its members of a fixed random 64-bit
    weight per element, wrapping around.  The keys must be distinct, which
    is checked.  Each table then permutes the keys, so sorting the image
    keys pairs each candidate with its image, and `orbit_labels` over these
    index permutations gives the orbits.
    """
    sizes = np.fromiter(map(len, cands), dtype=np.int64, count=len(cands))
    members = np.fromiter(
        itertools.chain.from_iterable(cands), dtype=np.int64, count=int(sizes.sum())
    )
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    n = tables.shape[1]
    rng = random.Random(n)
    weight = np.array([rng.getrandbits(64) for _ in range(n)], dtype=np.uint64)
    keys = np.add.reduceat(weight[members], starts)
    order = np.argsort(keys)
    if (keys[order[1:]] == keys[order[:-1]]).any():
        raise RuntimeError("root candidate keys collide")
    images = []
    for table in tables:
        moved = np.add.reduceat(weight[table[members]], starts)
        moved_order = np.argsort(moved)
        if not np.array_equal(moved[moved_order], keys[order]):
            raise RuntimeError("root candidates are not closed under the stabilizer")
        image = np.empty_like(order)
        image[moved_order] = order
        images.append(image)
    labels = orbit_labels(images, len(cands))
    return [cands[i] for i in np.flatnonzero(labels == np.arange(len(cands)))]


def enumerate_srings(group, jobs=1, time_limit=None, stats=None):
    """The complete, duplicate-free list of S-rings over G, canonical order.

    The root node's candidate classes for the pivot, the least non-identity
    element, are split into orbits under H = Stab_Aut(G)(pivot), and only
    the least candidate of each orbit is searched (rule (c) of the module
    docstring).  These representatives are split into `jobs` strided
    slices, each searched on its own; with jobs <= 1 the one slice runs in
    this process, otherwise each slice runs in a worker process.  The rings
    found are then closed under generators of H by breadth-first search.
    The result and the stats do not depend on `jobs`.  Orders above
    `DEFAULT_ENUM_CAP`, read at each call, raise BudgetExceeded at once.

    `time_limit` (seconds) is one deadline shared by the root, the
    automorphisms, the orbit split and every slice.  Search counters (see
    `_new_stats`) are added into `stats` in place, if given; when the
    deadline passes, even at the root, the counters so far are added all
    the same, the closure is skipped, and BudgetExceeded is raised with the
    nodes searched and the distinct rings the search found.
    """
    if group.size > DEFAULT_ENUM_CAP:
        raise BudgetExceeded(
            "enumeration over order %d exceeds cap %d" % (group.size, DEFAULT_ENUM_CAP)
        )
    if group.size > 27:
        warnings.warn("enumerating S-rings over order %d may take a long time" % group.size)
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    root = _Search(group, deadline, _new_stats())
    auts = grp.automorphisms(group)  # before the try, so its order cap is no timeout
    roots, gens, timed_out = [], [], False
    try:
        root._tick()
        pivot = root._least_unassigned()
        if pivot is None:  # the trivial group: the root is its only leaf
            root._leaf()
        else:
            gens = grp.generating_subset(auts[auts[:, pivot] == pivot])
            _check_deadline(deadline)
            roots = root.candidates(pivot)
            if len(gens):
                roots = _root_orbit_representatives(roots, gens)
            _check_deadline(deadline)
    except BudgetExceeded:
        roots, timed_out = [], True
    parts = [(root.results, root.stats, timed_out)]
    if roots and jobs <= 1:
        parts.append(_run_slice(group, roots, deadline))
    elif roots:
        slices = [roots[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts += pool.map(_run_slice, [group] * jobs, slices, [deadline] * jobs)
    keys = set()
    merged = _new_stats()
    for part_keys, part_stats, _ in parts:
        keys.update(part_keys)
        for k, v in part_stats.items():
            merged[k] += v
    if stats is not None:
        for k, v in merged.items():
            stats[k] = stats.get(k, 0) + v
    if any(timed_out for _, _, timed_out in parts):
        raise BudgetExceeded(
            "enumeration time limit exceeded after %d nodes, %d rings found"
            % (merged["nodes"], len(keys))
        )
    keys = sr.orbit_keys(keys, gens)
    return [sr.SRing(group, [frozenset(c) for c in key]) for key in sorted(keys)]


def classify_up_to_cayley(rings, maps=None):
    """Orbit representatives and orbit sizes under the group generated by
    `maps`, image tables of automorphisms of G (default: all of Aut(G), the
    rows of `group.automorphisms`).

    Returns [(representative, size)] sorted by representative key; sizes sum
    to the input count.  Each orbit is closed by `sring.orbit_keys` under the
    few rows that `group.generating_subset` keeps, which generate the same
    group as all of them.  Raises ValueError when the rings lie over
    different groups or are not a union of orbits.
    """
    if not rings:
        return []
    group = rings[0].group
    if any(r.group != group for r in rings):
        raise ValueError("rings over groups %s" % sorted({r.group.orders for r in rings}))
    maps = grp.automorphisms(group) if maps is None else maps
    tables = grp.generating_subset(maps)
    keys = {r.canonical_key(): r for r in rings}
    unseen = set(keys)
    out = []
    for key in sorted(keys):
        if key not in unseen:
            continue
        orbit = sr.orbit_keys([key], tables)
        if not orbit <= unseen:
            raise ValueError("ring set is not closed under the automorphism action")
        unseen -= orbit
        out.append((keys[key], len(orbit)))
    return out


FILTERS = {
    "regular": lambda r: r.is_regular(),
    "nonregular": lambda r: not r.is_regular(),
    "trivial-radical": lambda r: r.ring_radical().sum() == 1,
    "nontrivial-radical": lambda r: r.ring_radical().sum() > 1,
    "rational": lambda r: r.is_rational(),
    "quasi-thin": lambda r: r.is_quasi_thin(),
    "primitive": lambda r: r.is_primitive(),
    "has-c1": lambda r: r.is_class_constant(sr.generated(r.group, [sr.canonical_c1(r.group)])),
}


def filter_rings(rings, predicate):
    if callable(predicate):
        return [r for r in rings if predicate(r)]
    return [r for r in rings if FILTERS[predicate](r)]
