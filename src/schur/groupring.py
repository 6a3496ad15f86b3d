"""Exact arithmetic in the integer group ring ZG.

Coefficient vectors are dense int64 arrays indexed by canonical element
index.  Everything stays exact: inputs are bounds-checked so that a single
convolution cannot overflow 64 bits.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupMismatch

# |G| <= 243 < 2^8 and 2*26 + 8 < 63, so convolving two vectors with entries
# below this bound cannot overflow int64.
_COEFF_BOUND = 1 << 26


class GroupRingElement:
    def __init__(self, group, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != (group.size,):
            raise ValueError("coefficient vector must have length %d" % group.size)
        self.group = group
        self.coeffs = coeffs.copy()
        self.coeffs.setflags(write=False)

    def coefficient(self, g):
        return int(self.coeffs[self.group.index[self.group.element(g)]])

    def support(self):
        return {self.group.elements[int(i)] for i in np.nonzero(self.coeffs)[0]}

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.coeffs - other.coeffs)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return GroupRingElement(self.group, self.coeffs * k)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, self.coeffs * other)
        return multiply(self, other)

    def _check(self, other):
        if self.group != other.group:
            raise GroupMismatch("group ring elements over different groups")

    def __repr__(self):
        terms = [
            "%d*%s" % (int(c), self.group.elements[i])
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def zero(group):
    return GroupRingElement(group, np.zeros(group.size, dtype=np.int64))


def sum_of_set(group, elements):
    """The simple sum of a subset of G: coefficient 1 on it, 0 elsewhere."""
    v = np.zeros(group.size, dtype=np.int64)
    for i in group.indices(elements):
        if v[i]:
            raise ValueError("duplicate element in set")
        v[i] = 1
    return GroupRingElement(group, v)


def multiply(u, v):
    """Convolution (u*v)(g) = sum_h u(h) v(h^-1 g); commutative here."""
    if u.group != v.group:
        raise GroupMismatch("group ring elements over different groups")
    g = u.group
    if np.abs(u.coeffs).max(initial=0) >= _COEFF_BOUND or np.abs(v.coeffs).max(initial=0) >= _COEFF_BOUND:
        raise OverflowError("coefficients too large for exact 64-bit convolution")
    out = np.zeros(g.size, dtype=np.int64)
    for i in np.nonzero(u.coeffs)[0]:
        # mul_table[i] is a permutation of indices, so no in-row collisions
        out[g.mul_table[int(i)]] += int(u.coeffs[i]) * v.coeffs
    return GroupRingElement(g, out)


def class_products(group, xs, members, labels, k):
    """The k x |G| matrix whose row c is the coefficient vector of
    underline(X)*underline(C_c), C_c = {members[j] : labels[j] == c}.

    One bincount over label * |G| + (x * member) for x in X and every
    labelled member; the counts are exact int64.  X is an index array;
    members and labels are index arrays of equal length, labels in [0, k).
    """
    n = group.size
    idx = group.mul_table[xs[:, None], members] + labels * n
    return np.bincount(idx.ravel(), minlength=k * n).reshape(k, n)
