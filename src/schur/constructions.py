"""Builders: cyclotomic rings, tensor/wreath products, generalized wreath
detection, and the catalog of trivial-radical cyclotomic rings over
Z3 x Z3^n."""

from __future__ import annotations

import numpy as np

from . import group as grp
from . import permaction as pa
from . import sring as sr


class CatalogSizeMismatch(Exception):
    """A catalog row generated a group of unexpected order.

    Raised as a diagnostic; the builder never patches generators silently.
    """


def cyclotomic(group, maps):
    """Cyc(K, G): the orbit partition of the group generated by the maps."""
    for f in maps:
        if f.src != group or f.dst != group or not f.bijective or not f.is_homomorphism():
            raise ValueError("cyclotomic construction requires automorphisms of G")
    return sr.validate(group, pa.PermGroup([f.table for f in maps], group.size).orbits())


def map_group_closure(maps):
    """All elements of the group generated by the given bijective maps."""
    if not maps:
        return []
    g = maps[0].src
    ident = grp.identity_map(g)
    seen = {ident.table: ident}
    frontier = [ident]
    while frontier:
        f = frontier.pop()
        for m in maps:
            c = f.compose(m)
            if c.table not in seen:
                seen[c.table] = c
                frontier.append(c)
    return list(seen.values())


def tensor(a, b):
    """Classes X1 x X2 over G1 x G2; rank multiplies."""
    g = grp.AbelianGroup(a.group.orders + b.group.orders)
    nb = b.group.size
    classes = [
        frozenset(i1 * nb + i2 for i1 in c1 for i2 in c2)
        for c1 in a.classes
        for c2 in b.classes
    ]
    return sr.validate(g, classes)


def wreath(a, b):
    """Classes X1 x {e2} and G1 x X2 (X2 != {e2}); rank adds minus one."""
    g = grp.AbelianGroup(a.group.orders + b.group.orders)
    nb = b.group.size
    classes = [frozenset(i1 * nb for i1 in c1) for c1 in a.classes]
    for c2 in b.classes[1:]:
        classes.append(
            frozenset(i1 * nb + i2 for i1 in range(a.group.size) for i2 in c2)
        )
    return sr.validate(g, classes)


def is_generalized_wreath(ring, upper, lower):
    """True iff every basic set X outside U is a union of L-cosets, i.e.
    L <= rad(X)."""
    if not (ring.is_a_set(upper.members) and ring.is_a_set(lower.members)):
        raise ValueError("U and L must be A-subgroups")
    if not lower.members <= upper.members:
        raise ValueError("need L <= U")
    # U is an A-set, so a class lies outside U iff its least member does
    g = ring.group
    inside = sr.indicator(g, upper.members)
    larr = np.array(lower.sorted_members(), dtype=np.int64)
    return all(
        sr.radical_row(g, row)[larr].all()
        for row, arr in zip(ring.class_rows, ring.class_arrays)
        if not inside[arr[0]]
    )


def gw_sections(ring):
    """All proper U/L-wreath decompositions (L != 1, U != G)."""
    subs = ring.a_subgroups()
    out = []
    for lower in subs:
        if lower.order == 1:
            continue
        for upper in subs:
            if upper.order == ring.group.size:
                continue
            if not lower.members <= upper.members:
                continue
            if is_generalized_wreath(ring, upper, lower):
                out.append(sr.SectionRef(upper, lower))
    return out


# -- catalog of trivial-radical cyclotomic rings over Z3 x Z3^n ---------------
#
# Rows are symbolic generator words over (s, x, c1) with s the order-3 factor
# generator, x the order-3^n factor generator and c1 = x^(3^(n-1)); a word
# (a, b, d) means s^a * x^b * c1^d.  Each row entry gives the images of
# (x, s), in that order, for one generating automorphism.

CATALOG_ROWS = (
    (((0, 1, 0), (1, 0, 0)),),
    (((0, 1, 0), (2, 0, 0)),),
    (((0, -1, 0), (1, 0, 0)),),
    (((0, -1, 0), (1, 0, 0)), ((0, 1, 0), (2, 0, 0))),
    (((0, -1, 0), (2, 0, 0)),),
    (((1, -1, 0), (1, 0, 0)),),
    (((1, 1, 0), (1, 0, 1)),),
    (((1, 1, 0), (1, 0, 1)), ((0, 1, 0), (2, 0, 1))),
    (((1, 1, 0), (1, 0, 2)), ((0, -1, 0), (1, 0, 1))),
    (((1, 1, 0), (1, 0, 2)), ((0, -1, 0), (2, 0, 0))),
)

CATALOG_SIZES = (1, 2, 2, 4, 2, 2, 3, 6, 6, 6)


def _compile_word(group, n, word, mirror):
    a, b, d = word
    if mirror:
        d = -d
    return group.element((a, b + d * 3 ** (n - 1)))


def catalog_maps(row, n, mirror=False):
    """The generating automorphisms of catalog row `row` over Z3 x Z3^n.

    The symbol c1 in the generator words names one of the two order-3
    elements of the top cyclic factor; the two resolutions give rings that
    are not Cayley isomorphic for rows 6..9.  `mirror` picks the
    non-canonical resolution.
    """
    if not (0 <= row < len(CATALOG_ROWS)):
        raise IndexError("catalog row out of range")
    if n < 1:
        raise ValueError("n must be >= 1")
    d = grp.AbelianGroup([3, 3 ** n])
    maps = []
    for x_word, s_word in CATALOG_ROWS[row]:
        x_img = _compile_word(d, n, x_word, mirror)
        s_img = _compile_word(d, n, s_word, mirror)
        f = grp.map_from_generator_images(d, [s_img, x_img])
        if not f.bijective:
            raise CatalogSizeMismatch("row %d generator is not bijective at n=%d" % (row, n))
        maps.append(f)
    return d, maps


def table1(row, n, mirror=False):
    """The cyclotomic ring of catalog row `row` over Z3 x Z3^n.

    Verifies that the generated automorphism group has the catalogued order
    and raises CatalogSizeMismatch otherwise.
    """
    d, maps = catalog_maps(row, n, mirror)
    generated = map_group_closure(maps)
    if len(generated) != CATALOG_SIZES[row]:
        raise CatalogSizeMismatch(
            "row %d generates order %d, catalog says %d"
            % (row, len(generated), CATALOG_SIZES[row])
        )
    return cyclotomic(d, maps)
