import functools
import itertools
import math
import random

import numpy as np
import pytest

from schur import permaction, schurity
from schur import (
    AbelianGroup,
    BudgetExceeded,
    PermGroup,
    automorphisms,
    cyclotomic,
    generated,
    genwr_certificate,
    is_schurian,
    right_translations,
    scheme_automorphisms,
    validate,
    wreath,
)
from schur.schurity import scheme_matrix
from schur.verify import cyclotomic_partition_orbits, labels_to_classes

from conftest import rings_over


def test_scheme_matrix_definition():
    g = AbelianGroup([3])
    zg = validate(g, [[t] for t in g.elements])
    m = scheme_matrix(zg)
    for a in range(3):
        for b in range(3):
            assert m[a, b] == zg.class_of[g.mul_table[b, g.inv_table[a]]]
    assert all(m[a, a] == 0 for a in range(3))


def test_rank2_scheme_two_colors():
    g = AbelianGroup([3, 3])
    rank2 = validate(g, [[g.elements[0]], [t for t in g.elements if t != (0, 0)]])
    assert set(np.unique(scheme_matrix(rank2))) == {0, 1}


def intermediate_count(m, f, g, r, s):
    """|{h : color(f,h)=r and color(h,g)=s}| counted directly."""
    return int(np.sum((m[f] == r) & (m[:, g] == s)))


def test_scheme_axioms_and_intermediate_counts(rings_z9):
    for ring in rings_z9:
        m = scheme_matrix(ring)
        # the diagonal carries the identity colour, and transposing a pair
        # inverts its colour
        assert (np.diag(m) == 0).all()
        assert np.array_equal(ring.inverse_classes[m], m.T)
        # condition (4) directly, against the structure constants
        blocks = [ring.products(s_c) for s_c in range(ring.rank)]
        for t in range(ring.rank):
            pairs = np.argwhere(m == t)[:5]
            for r_c in range(ring.rank):
                for s_c in range(ring.rank):
                    counts = {
                        intermediate_count(m, int(f), int(g2), r_c, s_c)
                        for f, g2 in pairs
                    }
                    assert counts == {int(blocks[s_c][r_c, ring.class_arrays[t][0]])}


def test_aut_of_full_group_ring_is_translations():
    for orders in ([3], [9], [3, 3]):
        g = AbelianGroup(orders)
        zg = validate(g, [[t] for t in g.elements])
        aut = scheme_automorphisms(zg)
        assert aut.order() == g.size
        t = right_translations(g)
        for gen in t.generators:
            assert aut.contains(gen)


def test_aut_of_rank2_is_symmetric():
    g = AbelianGroup([3, 3])
    rank2 = validate(g, [[g.elements[0]], [t for t in g.elements if t != (0, 0)]])
    aut = scheme_automorphisms(rank2)
    assert aut.order() == math.factorial(9)
    assert aut.point_stabilizer(0).order() == math.factorial(8)


def test_aut_contains_translations_always(rings_z3z3):
    random.seed(0)
    for ring in random.sample(rings_z3z3, 8):
        aut = scheme_automorphisms(ring)
        for gen in right_translations(ring.group).generators:
            assert aut.contains(gen)


def test_aut_contains_defining_automorphisms():
    g = AbelianGroup([3, 9])
    auts = automorphisms(g)
    random.seed(1)
    for f in random.sample(list(auts), 6):
        ring = cyclotomic(g, [f])
        aut = scheme_automorphisms(ring)
        assert aut.contains(f)


def test_aut_order_matches_brute_force_over_z9(rings_z9):
    # independent oracle: filter all 9! permutations by color preservation
    perms = np.array(list(itertools.permutations(range(9))), dtype=np.int8)
    assert len(perms) == math.factorial(9)
    for ring in rings_z9:
        m = scheme_matrix(ring)
        count = 0
        for chunk in np.array_split(perms, 16):
            images = m[chunk[:, :, None], chunk[:, None, :]]
            count += int((images == m).all(axis=(1, 2)).sum())
        assert scheme_automorphisms(ring).order() == count


@functools.cache
def _z3z27_cyclotomic_reps():
    g81 = AbelianGroup([3, 27])
    reps, _ = cyclotomic_partition_orbits(g81)
    return g81, reps


def test_search_order_and_stabilizer_match_schreier_sims(rings_z3z9):
    # independent check: a fresh group on the same generators gets its order
    # and e-stabilizer from an unseeded Schreier-Sims chain, not the search
    g81, reps = _z3z27_cyclotomic_reps()
    rings = list(rings_z3z9)
    rings += [validate(g81, labels_to_classes(lbl)) for lbl in reps[:10]]
    rings += rings_over(5, 5)
    nonschurian = 0
    for ring in rings:
        rep = is_schurian(ring)
        if ring.group.size == 25 and rep.schurian:
            continue
        nonschurian += not rep.schurian
        fresh = PermGroup(rep.aut.generators, ring.group.size)
        assert rep.aut_order == fresh.order()
        assert rep.stabilizer_orbits == fresh.point_stabilizer(0).orbits()
        assert rep.aut.point_stabilizer(0).order() == fresh.point_stabilizer(0).order()
    assert nonschurian == 125


# (index among the Z3xZ27 cyclotomic representatives, rank, |Aut|, nodes,
# generators): three of the widest automorphism groups there.
WIDEST_Z3Z27 = [
    (0, 6, 286511799958070431838109696, 111, 59),
    (4, 7, 35813974994758803979763712, 112, 56),
    (7, 7, 7958661109946400884391936, 121, 57),
]


def test_search_counts_regression(rings_z3z9):
    stats = {}
    for ring in rings_z3z9:
        is_schurian(ring, stats=stats)
    assert stats == {"nodes": 6699, "generators": 3767, "depth": 3145}
    g81, reps = _z3z27_cyclotomic_reps()
    for idx, rank, order, nodes, generators in WIDEST_Z3Z27:
        ring = validate(g81, labels_to_classes(reps[idx]))
        stats = {}
        rep = is_schurian(ring, stats=stats)
        assert (ring.rank, rep.aut_order) == (rank, order)
        assert (stats["nodes"], stats["generators"]) == (nodes, generators)
        assert stats["generators"] == len(rep.aut.generators)
        assert stats["depth"] == 54


def test_search_counts_regression_z5z5():
    # Z5xZ5 is 458 of the 535 rings of the schurity-81 benchmark
    stats = {}
    nonschurian = sum(not is_schurian(ring, stats=stats) for ring in rings_over(5, 5))
    assert stats == {"nodes": 4173, "generators": 2446, "depth": 1915}
    assert nonschurian == 125


def test_every_generator_is_a_colour_automorphism(rings_z3z9):
    # the search may return a map found above a leaf; check each generator
    # against a colour matrix built after the search, and check that every
    # generator beyond the translations fixes e
    g81, reps = _z3z27_cyclotomic_reps()
    rings = list(rings_z3z9)
    rings += [validate(g81, labels_to_classes(reps[row[0]])) for row in WIDEST_Z3Z27]
    checked = 0
    for ring in rings:
        gens = [np.asarray(f) for f in scheme_automorphisms(ring).generators]
        translations = len(right_translations(ring.group).generators)
        m = scheme_matrix(ring)
        n = len(m)
        for i, f in enumerate(gens):
            assert np.array_equal(np.sort(f), np.arange(n))
            assert np.array_equal(m[np.ix_(f, f)], m)
            assert i < translations or f[0] == 0
            checked += i >= translations
    # the pinned generator counts, less two translations per ring
    assert checked == 3767 + 59 + 56 + 57 - 2 * 391 - 3 * 2


def _round_refine(m, rank, cells):
    """Reference refinement, sharing no code with `schurity._refine`: every
    round splits each cell by its rows' colour counts into every cell, until
    a round splits nothing.  Returns each vertex's final cell index."""
    n = m.shape[0]
    while True:
        k = len(cells)
        cell_id = np.empty(n, dtype=np.int64)
        for idx, c in enumerate(cells):
            cell_id[c] = idx
        if k == n:
            return cell_id
        rows = np.concatenate([c for c in cells if len(c) > 1])
        codes = m[rows].astype(np.int64) * k + cell_id[None, :]
        width = rank * k
        flat = codes + (np.arange(len(rows), dtype=np.int64) * width)[:, None]
        counts = np.bincount(flat.ravel(), minlength=len(rows) * width)
        counts = counts.reshape(len(rows), width)
        sig_of = dict(zip(rows.tolist(), map(bytes, counts)))
        new_cells = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c.tolist():
                groups.setdefault(sig_of[v], []).append(v)
            new_cells += [np.array(groups[sig]) for sig in sorted(groups)]
        if len(new_cells) == k:
            return cell_id
        cells = new_cells


def _cells(lab, start):
    heads = np.flatnonzero(start == np.arange(len(start))).tolist()
    return [lab[a:b] for a, b in zip(heads, heads[1:] + [len(lab)])]


def _same_partition(lab, start, cell_id):
    """Whether the cells of (lab, start) are, as sets, those that the cell
    indices `cell_id` give."""
    ids = cell_id[lab]
    cells = np.count_nonzero(start == np.arange(len(lab)))
    return bool((ids == ids[start]).all()) and cells == cell_id.max() + 1


def _refinements(ring):
    """(m, rank, lab, start, queue, result) of every `_refine` call made by
    `is_schurian(ring)`; (m, result) of each `_class_partition` call, which
    stands for refining the partition with e individualized; and the
    report."""
    calls = []
    first = []
    refine = schurity._refine
    class_partition = schurity._class_partition

    def recorder(m, rank, lab, start, queue):
        out = refine(m, rank, lab, start, queue)
        calls.append((m, rank, lab, start, list(queue), out))
        return out

    def first_recorder(m):
        out = class_partition(m)
        first.append((m, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schurity, "_refine", recorder)
        mp.setattr(schurity, "_class_partition", first_recorder)
        rep = is_schurian(ring)
    return calls, first, rep


def test_refinement_matches_round_based_oracle(rings_z3z9):
    # the splitter queue must reach the coarsest equitable refinement, as
    # the round-based oracle does, on every partition the search refines;
    # so must the class partition that stands for refining ({e}, G - e),
    # and it must equal that refinement, cell order included
    g81, reps = _z3z27_cyclotomic_reps()
    rings = list(rings_z3z9)
    rings += [validate(g81, labels_to_classes(lbl)) for lbl in reps]
    rings += rings_over(5, 5) + rings_over(4, 4) + rings_over(2, 8)
    nonschurian = {}
    checked = 0
    for ring in rings:
        calls, first, rep = _refinements(ring)
        orders = ring.group.orders
        nonschurian[orders] = nonschurian.get(orders, 0) + (not rep.schurian)
        for m, rank, lab, start, _, (lab2, start2, _) in calls:
            assert _same_partition(lab2, start2, _round_refine(m, rank, _cells(lab, start)))
            checked += 1
        for m, (lab, start) in first:
            n = len(m)
            cell_id = _round_refine(m, ring.rank, [np.array([0]), np.arange(1, n)])
            assert _same_partition(lab, start, cell_id)
            unit = np.arange(n), np.zeros(n, dtype=np.int64)
            lab1, start1, _ = schurity._refine(
                m, ring.rank, *schurity._individualize(*unit, 0, 0), [0]
            )
            assert np.array_equal(lab, lab1) and np.array_equal(start, start1)
            checked += 1
    assert nonschurian == {(3, 9): 0, (3, 27): 0, (5, 5): 125, (4, 4): 84, (2, 8): 0}
    assert checked > 20000


def test_refinement_is_equivariant():
    # for a colour automorphism g fixing e, refining g(pi) gives g applied
    # to refine(pi), cell by cell in the same order, with the same trace
    g81, reps = _z3z27_cyclotomic_reps()
    rings = [validate(g81, labels_to_classes(reps[7]))]
    rings += [r for r in rings_over(5, 5) if r.rank > 2][::40]
    rng = random.Random(5)
    checked = 0
    for ring in rings:
        calls, _, rep = _refinements(ring)
        stab = [np.asarray(p) for p in rep.aut.point_stabilizer(0).generators]
        if not stab:
            continue
        for g in (stab[0], rng.choice(stab)[rng.choice(stab)]):
            if (g == np.arange(len(g))).all():
                continue
            checked += 1
            for m, rank, lab, start, queue, (lab1, start1, trace1) in calls:
                glab = g[lab][np.lexsort((g[lab], start))]
                lab2, start2, trace2 = schurity._refine(m, rank, glab, start, queue)
                assert np.array_equal(start2, start1)
                assert np.array_equal(lab2, g[lab1][np.lexsort((g[lab1], start1))])
                assert trace2 == trace1
    assert checked == 23


def test_search_stats_without_a_search():
    g = AbelianGroup([3, 3])
    stats = {"nodes": 7}
    scheme_automorphisms(validate(g, [[0], range(1, 9)]), stats=stats)
    assert stats == {"nodes": 7, "generators": 2, "depth": 0}


def test_node_budget_names_the_progress_made(rings_z3z9, monkeypatch):
    for ring in rings_z3z9:
        full = {}
        is_schurian(ring, stats=full)
        if full["nodes"] > 20:
            break
    verdict = is_schurian(ring).schurian
    stats = {}
    monkeypatch.setattr(schurity, "DEFAULT_NODE_BUDGET", 20)
    with pytest.raises(BudgetExceeded, match=r"after 20 nodes, \d+ generators found"):
        is_schurian(ring, stats=stats)
    assert stats["nodes"] == 20
    assert 2 <= stats["generators"] <= full["generators"]
    # the budget counts refinements, so the full node count is just enough
    monkeypatch.setattr(schurity, "DEFAULT_NODE_BUDGET", full["nodes"])
    assert is_schurian(ring).schurian == verdict
    monkeypatch.setattr(schurity, "DEFAULT_NODE_BUDGET", full["nodes"] - 1)
    with pytest.raises(BudgetExceeded):
        is_schurian(ring)


def test_schurity_invariant_under_group_automorphisms(rings_z3z9):
    # metamorphic check: a group automorphism f maps each ring onto an
    # isomorphic one, so the image ring has the same verdict, |Aut| and
    # stabilizer orbit sizes; f comes from `automorphisms`, not the search
    g81, reps = _z3z27_cyclotomic_reps()
    cases = [(r, False) for r in rings_z3z9]
    cases += [(r, True) for r in rings_over(5, 5)]
    cases += [(validate(g81, labels_to_classes(lbl)), False) for lbl in reps[:10]]
    rng = random.Random(11)
    auts = {}
    checked = 0
    for ring, nonschurian_only in cases:
        rep = is_schurian(ring)
        if nonschurian_only and rep.schurian:
            continue
        g = ring.group
        if g.orders not in auts:
            every = automorphisms(g)
            auts[g.orders] = list(every[(every != np.arange(g.size)).any(axis=1)])
        f = rng.choice(auts[g.orders])
        image = validate(g, [f[sorted(c)].tolist() for c in ring.classes])
        img = is_schurian(image)
        assert img.schurian == rep.schurian
        assert img.aut_order == rep.aut_order
        assert sorted(map(len, img.stabilizer_orbits)) == sorted(map(len, rep.stabilizer_orbits))
        checked += 1
    assert checked == 391 + 125 + 10


def test_schurity_builds_no_chain_above_rank_2(rings_z3z3, monkeypatch):
    def no_chain(*args):
        raise AssertionError("stabilizer chain built")

    monkeypatch.setattr(permaction, "_build_chain", no_chain)
    rings = [r for r in rings_z3z3 if r.rank > 2]
    rings += [r for r in rings_over(5, 5) if r.rank > 2][:20]
    for ring in rings:
        rep = is_schurian(ring)
        # reads the memoized stabilizer's order, so it builds no chain either
        rep.aut.point_stabilizer(0).has_faithful_regular_orbit()


@pytest.mark.parametrize("orders", [[5, 5], [3, 9]])
def test_rank_2_schurity_builds_no_chain(orders, monkeypatch):
    def no_chain(*args):
        raise AssertionError("stabilizer chain built")

    monkeypatch.setattr(permaction, "_build_chain", no_chain)
    g = AbelianGroup(orders)
    n = g.size
    rep = is_schurian(validate(g, [[0], range(1, n)]))
    assert rep.schurian
    assert rep.aut_order == math.factorial(n)
    assert rep.stabilizer_orbits == [(0,), tuple(range(1, n))]


def test_schurity_builds_no_chain_on_any_ring(rings_z3z3, rings_z3z9, monkeypatch):
    # the trivial group, and every ring over Z3xZ3 and Z3xZ9, rank 2 included
    def no_chain(*args):
        raise AssertionError("stabilizer chain built")

    monkeypatch.setattr(permaction, "_build_chain", no_chain)
    rep = is_schurian(validate(AbelianGroup([]), [[0]]))
    assert rep.schurian and rep.aut_order == 1 and rep.stabilizer_orbits == [(0,)]
    rings = rings_z3z3 + rings_z3z9
    assert min(r.rank for r in rings) == 2
    for ring in rings:
        assert is_schurian(ring).schurian


def test_stabilizer_orbits_within_classes(rings_z3z3):
    for ring in rings_z3z3:
        rep = is_schurian(ring)
        for orbit in rep.stabilizer_orbits:
            assert len({int(ring.class_of[i]) for i in orbit}) == 1


def test_full_group_ring_schurian():
    g = AbelianGroup([3, 3])
    zg = validate(g, [[t] for t in g.elements])
    rep = is_schurian(zg)
    assert rep.schurian
    assert rep.aut_order == 9
    assert len(rep.stabilizer_orbits) == 9


def test_cyclotomic_rings_schurian_small():
    for orders in ([9], [3, 3]):
        g = AbelianGroup(orders)
        for f in automorphisms(g):
            assert is_schurian(cyclotomic(g, [f])).schurian


def test_genwr_certificate_wreath_case():
    z3 = AbelianGroup([3])
    zg3 = validate(z3, [[t] for t in z3.elements])
    w = wreath(zg3, zg3)
    g = w.group
    bottom = generated(g, [(1, 0)])
    rep = genwr_certificate(w, bottom, bottom)  # |U/L| = 1
    assert rep.upper is bottom and rep.lower is bottom
    assert rep.is_generalized_wreath
    assert rep.upper_schurian and rep.quotient_schurian
    assert rep.section_regular_orbit  # trivial section
    assert rep.schurian
    assert rep.consistent


def test_genwr_certificate_order3_sections(rings_z3z9):
    from schur import gw_sections

    random.seed(3)
    wild = [r for r in rings_z3z9 if r.ring_radical().sum() > 1]
    for ring in random.sample(wild, 6):
        for upper, lower in gw_sections(ring)[:2]:
            if upper.sum() // lower.sum() not in (1, 3):
                continue
            rep = genwr_certificate(ring, upper, lower)
            assert rep.is_generalized_wreath
            assert rep.section_regular_orbit
            assert rep.schurian
            assert rep.consistent


def test_quasi_thin_schurian_with_orthogonals():
    # over all enumerated quasi-thin rings of order <= 27:
    # quasi-thin => schurian; >= 2 orthogonals => faithful regular stabilizer orbit
    for key in [(2,), (3,), (4,), (2, 2), (9,), (3, 3), (27,), (3, 9)]:
        for ring in rings_over(*key):
            if not ring.is_quasi_thin():
                continue
            rep = is_schurian(ring)
            assert rep.schurian
            if len(ring.orthogonals()) >= 2:
                stab = rep.aut.point_stabilizer(0)
                assert stab.has_faithful_regular_orbit()


@pytest.mark.parametrize("orders, nonschurian", [((3, 9), 0), ((5, 5), 125)], ids=["3x9", "5x5"])
def test_orbitals_of_aut_are_the_colour_classes_iff_schurian(orders, nonschurian):
    found = 0
    for ring in rings_over(*orders):
        rep = is_schurian(ring)
        m = scheme_matrix(ring)
        n = ring.group.size
        # the orbitals: orbits on pair codes a * n + b, g mapping a code to
        # g[a] * n + g[b]
        codes = [(g[:, None] * n + g).ravel() for g in rep.aut.generators]
        orbitals = permaction.blocks(permaction.orbit_labels(codes, n * n))
        colours = sorted(tuple(np.flatnonzero(m.ravel() == c).tolist()) for c in range(ring.rank))
        assert (orbitals == colours) == rep.schurian
        found += not rep.schurian
    assert found == nonschurian
