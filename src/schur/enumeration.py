"""Complete enumeration of all S-rings over a small abelian group.

The search assigns the class of the least unassigned element, choosing it
as a subset of the unassigned elements; candidate subsets are generated in
size-ascending lexicographic order.  Three pruning rules, always on, steer
the search:

  (a) inverse closure -- the m = -1 power map: a completed class's inverse
      image must be a completed class or stay inside unassigned territory;
  (b) multiplier closure for the other m coprime to |G|: same condition for
      every power image; when the pivot already lies in a power image of a
      completed class, its class is forced outright with no branching;
  (c) partial module closure: products of completed class sums must be
      constant on every completed class, and every element of a candidate
      class must agree with the pivot on all product coefficients seen so
      far.

Leaves always pass full validation, so pruning soundness affects only
completeness.  The brute-force oracle `enumerate_srings_brute`, which
filters every set partition and is capped at order 9, cross-checks it.
All S-ring counts produced here are artifact regression constants; they are
not published values.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import group as grp
from . import sring as sr
from .errors import BudgetExceeded, CapExceeded
from .groupring import set_product_vector

DEFAULT_ENUM_CAP = 81


class _Search:
    def __init__(self, group, deadline, stats):
        self.group = group
        self.n = group.size
        self.deadline = deadline
        self.stats = stats
        exp = group.exponent
        self.mults = [
            (m, group.power_map(m), group.power_map(pow(m, -1, exp)))
            for m in group.multiplier_exponents()
            if m != 1
        ]
        self.class_of = np.full(self.n, -1, dtype=np.int64)
        self.class_of[0] = 0
        self.completed = [(frozenset([0]), np.array([0], dtype=np.int64))]
        self.rows = []  # product vectors of completed non-identity class pairs
        self._rows_added = []
        self.results = []

    def _tick(self):
        self.stats["nodes"] += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("enumeration time limit exceeded")

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
        self.stats["leaves"] += 1
        try:
            ring = sr.validate(self.group, [c for c, _ in self.completed])
        except sr.SRingViolation:
            self.stats["leaf_rejects"] += 1
            return
        self.results.append(ring.canonical_key())

    # -- candidate generation ----------------------------------------------------

    def candidates(self, pivot):
        forced = self._forced_candidate(pivot)
        if forced is not None:
            ok, cand = forced
            return [cand] if ok else []
        eligible = [int(i) for i in np.nonzero(self.class_of < 0)[0] if i > pivot]
        if self.rows:
            prof = np.array(self.rows)
            keep = np.all(prof[:, eligible] == prof[:, [pivot]], axis=0)
            self.stats["profile_filtered"] += len(eligible) - int(keep.sum())
            eligible = [y for y, k in zip(eligible, keep) if k]
        found = []
        status = {m: None for m, _, _ in self.mults}
        self._grow(pivot, eligible, 0, [pivot], set([pivot]), status, found)
        found.sort(key=lambda t: (len(t), t))
        self.stats["candidates"] += len(found)
        return [frozenset(t) for t in found]

    def _forced_candidate(self, pivot):
        """Pivot class dictated by a power image of a completed class.

        Returns None when nothing forces, else (ok, candidate)."""
        outcome = None
        for m, pm, pminv in self.mults:
            x = int(pminv[pivot])
            ci = int(self.class_of[x])
            if ci < 0:
                continue
            cand = frozenset(int(pm[i]) for i in self.completed[ci][1])
            if outcome is None:
                outcome = cand
            elif outcome != cand:
                self.stats["prune_forced"] += 1
                return (False, None)
        if outcome is None:
            return None
        if any(self.class_of[i] >= 0 for i in outcome):
            self.stats["prune_forced"] += 1
            return (False, None)
        return (True, outcome)

    def _grow(self, pivot, eligible, idx, chosen, chosen_set, status, found):
        if idx == len(eligible):
            if self._finalize(chosen_set):
                found.append(tuple(chosen))
            return
        y = eligible[idx]
        # exclude y
        if self._can_exclude(y, chosen_set, status):
            self._grow(pivot, eligible, idx + 1, chosen, chosen_set, status, found)
        # include y
        new_status = dict(status)
        if self._can_include(y, eligible, idx, chosen, chosen_set, new_status):
            chosen.append(y)
            chosen_set.add(y)
            self._grow(pivot, eligible, idx + 1, chosen, chosen_set, new_status, found)
            chosen.pop()
            chosen_set.remove(y)

    def _can_exclude(self, y, chosen_set, status):
        for m, pm, pminv in self.mults:
            if status[m] == "in" and int(pminv[y]) in chosen_set:
                self.stats["prune_multiplier"] += 1
                return False
        return True

    def _can_include(self, y, eligible, idx, chosen, chosen_set, status):
        future = set(eligible[idx + 1:])
        for m, pm, pminv in self.mults:
            z = int(pm[y])
            verdict = self._register(m, z, y, chosen, chosen_set, future, status)
            if not verdict:
                self.stats["prune_multiplier"] += 1
                return False
            w = int(pminv[y])
            if w in chosen_set or w == y:
                if not self._set_status(m, "in", chosen + [y], chosen_set | {y}, future, status):
                    self.stats["prune_multiplier"] += 1
                    return False
        return True

    def _register(self, m, z, y, chosen, chosen_set, future, status):
        if z in chosen_set or z == y:
            return self._set_status(m, "in", chosen + [y], chosen_set | {y}, future, status)
        ci = int(self.class_of[z])
        if ci >= 0:
            return self._set_status(m, ci, chosen + [y], chosen_set | {y}, future, status)
        if z not in future:
            # z can no longer join the class
            if status[m] == "in":
                return False
        return True

    def _set_status(self, m, new, members, member_set, future, status):
        if status[m] == new:
            return True
        if status[m] is not None:
            return False
        pm = next(p for mm, p, _ in self.mults if mm == m)
        if new == "in":
            for x in members:
                z = int(pm[x])
                if z not in member_set and z not in future:
                    return False
        else:
            for x in members:
                if int(self.class_of[pm[x]]) != new:
                    return False
        status[m] = new
        return True

    def _finalize(self, chosen_set):
        arr = np.array(sorted(chosen_set), dtype=np.int64)
        for m, pm, _ in self.mults:
            img = frozenset(int(v) for v in pm[arr])
            if img == chosen_set:
                continue
            hit = {int(self.class_of[i]) for i in img}
            if hit == {-1}:
                if img & chosen_set:
                    self.stats["prune_multiplier"] += 1
                    return False
                continue
            if len(hit) == 1:
                ci = hit.pop()
                if ci >= 0 and img == self.completed[ci][0]:
                    continue
            self.stats["prune_multiplier"] += 1
            return False
        return True

    # -- assignment --------------------------------------------------------------

    def _assign(self, members):
        arr = np.array(sorted(members), dtype=np.int64)
        new_rows = []
        for c, carr in self.completed[1:]:
            new_rows.append(set_product_vector(self.group, carr, arr))
        new_rows.append(set_product_vector(self.group, arr, arr))
        for row in new_rows:
            for c, carr in self.completed[1:]:
                vals = row[carr]
                if int(vals.max()) != int(vals.min()):
                    self.stats["prune_module"] += 1
                    return False
            vals = row[arr]
            if int(vals.max()) != int(vals.min()):
                self.stats["prune_module"] += 1
                return False
        self.rows.extend(new_rows)
        self._rows_added.append(len(new_rows))
        self.class_of[arr] = len(self.completed)
        self.completed.append((frozenset(int(i) for i in arr), arr))
        return True

    def _unassign(self):
        members, arr = self.completed.pop()
        self.class_of[arr] = -1
        del self.rows[-self._rows_added.pop():]


def _new_stats():
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
    """The S-ring keys below the given root classes, and the search's stats."""
    s = _Search(group, deadline, _new_stats())
    for cand in roots:
        if s._assign(cand):
            s._extend()
            s._unassign()
    return s.results, s.stats


def enumerate_srings(group, cap=DEFAULT_ENUM_CAP, jobs=1, time_limit=None, stats=None):
    """The complete, duplicate-free list of S-rings over G, canonical order.

    The root node's candidate classes for the least non-identity element
    are split into `jobs` strided slices, each searched on its own; with
    jobs <= 1 the one slice runs in this process, otherwise each slice runs
    in a worker process.  The result and the stats do not depend on `jobs`.
    `time_limit` (seconds) is one deadline shared by every slice; once it
    passes, BudgetExceeded is raised.  Search counters are added into
    `stats` in place, if given, when the search completes.
    """
    if group.size > cap:
        raise CapExceeded("enumeration over order %d exceeds cap %d" % (group.size, cap))
    if group.size > 27:
        warnings.warn("enumerating S-rings over order %d may take a long time" % group.size)
    deadline = time.monotonic() + time_limit if time_limit else None
    root = _Search(group, deadline, _new_stats())
    root._tick()
    pivot = root._least_unassigned()
    parts = [(root.results, root.stats)]
    if pivot is None:  # the trivial group: the root is its only leaf
        root._leaf()
    else:
        roots = root.candidates(pivot)
        if jobs <= 1:
            parts.append(_run_slice(group, roots, deadline))
        else:
            slices = [roots[i::jobs] for i in range(jobs)]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts += pool.map(_run_slice, [group] * jobs, slices, [deadline] * jobs)
    keys = set()
    for part_keys, part_stats in parts:
        keys.update(part_keys)
        if stats is not None:
            for k, v in part_stats.items():
                stats[k] = stats.get(k, 0) + v
    return [sr.SRing(group, [frozenset(c) for c in key]) for key in sorted(keys)]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def enumerate_srings_brute(group):
    """Oracle: filter every set partition of G \\ {e} through validation."""
    if group.size > 9:
        raise CapExceeded("brute-force oracle is limited to order 9")
    rest = list(range(1, group.size))
    out = []
    for part in _set_partitions(rest):
        try:
            ring = sr.validate(group, [[0]] + part)
        except sr.SRingViolation:
            continue
        out.append(ring)
    out.sort(key=lambda r: r.canonical_key())
    return out


def classify_up_to_cayley(rings, maps=None):
    """Orbit representatives and orbit sizes under the automorphism action.

    Returns [(representative, size)] sorted by representative key; sizes sum
    to the input count.
    """
    if not rings:
        return []
    group = rings[0].group
    if maps is None:
        maps = grp.automorphisms(group)
    keys = {r.canonical_key(): r for r in rings}
    unseen = set(keys)
    out = []
    for key in sorted(keys):
        if key not in unseen:
            continue
        orbit = set()
        frontier = [key]
        while frontier:
            k = frontier.pop()
            if k in orbit:
                continue
            orbit.add(k)
            ring = keys.get(k)
            if ring is None:
                raise ValueError("ring set is not closed under the automorphism action")
            for f in maps:
                moved = tuple(sorted(tuple(sorted(f.apply_index(i) for i in c)) for c in k))
                if moved not in orbit:
                    frontier.append(moved)
        unseen -= orbit
        out.append((keys[min(orbit)], len(orbit)))
    return out


FILTERS = {
    "regular": lambda r: r.is_regular(),
    "nonregular": lambda r: not r.is_regular(),
    "trivial-radical": lambda r: r.ring_radical().order == 1,
    "nontrivial-radical": lambda r: r.ring_radical().order > 1,
    "rational": lambda r: r.is_rational(),
    "quasi-thin": lambda r: r.is_quasi_thin(),
    "primitive": lambda r: r.is_primitive(),
    "has-c1": lambda r: r.is_a_set(
        sr.generated(r.group, [sr.canonical_c1(r.group)]).members
    ),
}


def filter_rings(rings, predicate):
    if callable(predicate):
        return [r for r in rings if predicate(r)]
    return [r for r in rings if FILTERS[predicate](r)]
