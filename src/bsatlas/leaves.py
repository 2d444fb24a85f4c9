"""Torus-leaf classification on G/B(v) and G/N(v).

A leaf is labelled by a pair (w, y): the point's Bruhat cell BwB and the
mixed cell B^- y B containing g vbar.  Admissibility y <= w * v (Bruhat
order against the Demazure product) is asserted on every classification.
"""

from __future__ import annotations

from .errors import SingularInput
from .groups import GroupElement
from .linalg import det, exact_div


class TLeafLabel:
    """Pair (w, y) with y <= w * v."""

    __slots__ = ("w", "y")

    def __init__(self, w, y):
        self.w = w
        self.y = y

    def __eq__(self, other):
        return isinstance(other, TLeafLabel) and self.w == other.w and self.y == other.y

    def __repr__(self):
        return f"TLeafLabel(w={self.w!r}, y={self.y!r})"


def pivot_permutation_upper(mat):
    """Permutation sigma with mat in B sigma B (B upper): column -> pivot row.

    Left multiplication by B adds lower rows to upper ones, right
    multiplication adds earlier columns to later ones; the invariant pivot of
    each column is its bottom-most surviving nonzero row.
    """
    m = [list(row) for row in mat]
    n = len(m)
    sigma = [0] * (n + 1)
    for j in range(n):
        i = max(r for r in range(n) if m[r][j] != 0)
        sigma[j + 1] = i + 1
        piv = m[i][j]
        for r in range(i):
            if m[r][j] != 0:
                f = exact_div(m[r][j], piv)
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
        for c in range(j + 1, n):
            if m[i][c] != 0:
                f = exact_div(m[i][c], piv)
                for r in range(n):
                    m[r][c] = m[r][c] - f * m[r][j]
    return tuple(sigma[1:])


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


def t_leaf_classify(space, g) -> TLeafLabel:
    """Leaf label of an exact-rational group element (or coset representative).

    Pivot patterns are read in the model's internal basis order, where the
    Borel pair is genuinely triangular (this matters for Sp(4)).
    """
    model = space.model
    mat = g.entries if isinstance(g, GroupElement) else g
    if det(mat) == 0:
        raise SingularInput("group element is singular")
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
