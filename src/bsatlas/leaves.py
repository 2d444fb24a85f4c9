"""Torus-leaf classification on G/B(v) and G/N(v).

A leaf is labelled by a pair (w, y): the point's Bruhat cell BwB and the
mixed cell B^- y B containing g vbar.  Admissibility y <= w * v (Bruhat
order against the Demazure product) is asserted on every classification.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import SingularInput


# A leaf label: the pair (w, y), with y <= w * v.
TLeafLabel = namedtuple("TLeafLabel", "w y")


def pivot_permutation_upper(mat):
    """Permutation sigma with mat in B sigma B (B upper): column -> pivot row.

    Left multiplication by B adds lower rows to upper ones and scales rows,
    right multiplication adds earlier columns to later ones and scales
    columns; neither moves a matrix out of its cell B sigma B.  The invariant
    pivot of each column is its bottom-most surviving nonzero row.  Each step
    stays fraction-free: a row above the pivot becomes piv * row - f * (pivot
    row), a scaling by piv times a row addition.  On an int matrix every
    row, as given and as eliminated, is divided by its content
    (``_primitive``); other rings, such as Fraction or RatFunc, skip that.
    The pivot is then the only nonzero entry of its column, so clearing the
    rest of the pivot row by column additions only zeroes those entries.
    Every step is invertible, so a column with no nonzero entry left means
    mat is singular: SingularInput.
    """
    ints = all(type(x) is int for row in mat for x in row)
    m = [_primitive(list(row)) if ints else list(row) for row in mat]
    n = len(m)
    sigma = [0] * (n + 1)
    for j in range(n):
        i = max((r for r in range(n) if m[r][j] != 0), default=-1)
        if i < 0:
            raise SingularInput("matrix is singular")
        sigma[j + 1] = i + 1
        piv, ri = m[i][j], m[i]
        for r in range(i):
            f = m[r][j]
            if f != 0:
                row = [piv * x - f * y for x, y in zip(m[r], ri)]
                m[r] = _primitive(row) if ints else row
        m[i] = ri[: j + 1] + [ri[j] * 0] * (n - j - 1)
    return tuple(sigma[1:])


def _primitive(row):
    """An int row divided by its content, the gcd of its entries, which keeps the elimination's ints short."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _element_from_pattern(model, sigma):
    """The Weyl element whose representative has internal pattern (sigma(j), j).

    The representative carries slot j to slot rows[j], so it sends the slot
    character x_j to x_{rows[j]}; with rho = sum_{j <= rank} (rank + 1 - j) x_j
    that gives w(rho) directly.
    """
    rs = model.rs
    p = model._perm
    rows = [0] * model.dim
    for j, s in enumerate(sigma):
        rows[p[j]] = p[s - 1]
    rho = [0] * rs.rank
    for j in range(rs.rank):
        for k, c in enumerate(model.slot_weights[rows[j]]):
            rho[k] += (rs.rank - j) * c
    el = rs.element_from_rho(tuple(rho))
    if _pattern_of(model, el) != tuple(sigma):
        raise AssertionError("pivot pattern is not a Weyl-group pattern for this model")
    return el


def _pattern_of(model, el):
    """Internal pattern of el's representative: internal column j -> row sigma(j).

    Read off the signed permutation; ``to_internal`` puts slot p[j] at j.
    """
    rows = model.signed_perm(el.canonical).rows
    p = model._perm
    return tuple(p.index(rows[p[j]]) + 1 for j in range(model.dim))


def t_leaf_classify(space, point) -> TLeafLabel:
    """Leaf label of a scaled point (m, d), the group element (or coset representative) m/d in any ring.

    Both pivot patterns are read on m, since the scalar d does not move m/d
    out of its cell B sigma B; a singular m raises SingularInput.  They are
    read in the model's internal basis order, where the Borel pair is
    genuinely triangular (this matters for Sp(4)).
    """
    model, mat = space.model, point[0]
    rs = model.rs
    sigma_w = pivot_permutation_upper(model.to_internal(mat))
    w = _element_from_pattern(model, sigma_w)
    gv = model.to_internal(model.signed_perm(space.v.canonical).right(mat))
    # the row reversal P has P B^- P = B, so gv lies in B^- y B exactly when
    # P gv lies in B (P y) B
    n = len(gv)
    sigma_y = tuple(n + 1 - s for s in pivot_permutation_upper(gv[::-1]))
    y = _element_from_pattern(model, sigma_y)
    target = rs.star_product(w, space.v)
    if not rs.bruhat_leq(y, target):
        raise AssertionError(f"leaf label violates y <= w * v: {y!r} vs {target!r}")
    return TLeafLabel(w, y)
