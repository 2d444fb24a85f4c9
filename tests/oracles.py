"""Reference constructions that only the tests use, as oracles for the library's fast paths."""

from fractions import Fraction

from bsatlas.groups import GroupElement
from bsatlas.linalg import _is_zero, mat_mul
from bsatlas.poisson import build_lambda
from bsatlas.symbolic import MultiPoly, RatFunc, VarName


def exp_nilpotent(model, x, c):
    """exp(c x) for any nilpotent x, as a dense series; entries have the type of c (an int c gives Fractions)."""
    n = model.dim
    out = term = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while True:
        term = [[v * (c * Fraction(1, k)) for v in row] for row in mat_mul(term, x)]
        if all(_is_zero(v) for row in term for v in row):
            return GroupElement(model, out)
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, term)]
        k += 1


def entry_var(i, j):
    """Variable name of the (i, j) entry of a generic matrix (1-based)."""
    return VarName("a", 10 * i + j)


def generic_element(model):
    """Matrix of free entry variables (no group constraint imposed)."""
    n = model.dim
    return GroupElement(
        model,
        [
            [RatFunc.from_poly(MultiPoly.variable(entry_var(i + 1, j + 1))) for j in range(n)]
            for i in range(n)
        ],
    )


def _directional(model, f, direction_entries):
    """Derivative of f(entries) along the field whose value at g is ``direction``.

    ``direction_entries`` is an n x n matrix of polynomials in the entry
    variables (g X for the left field, X g for the right one).
    """
    n = model.dim
    out = RatFunc.zero()
    for i in range(n):
        for j in range(n):
            d = direction_entries[i][j]
            if _is_zero(d):
                continue
            part = f.differentiate(entry_var(i + 1, j + 1))
            if part.is_zero():
                continue
            out = out + part * d
    return out


def entry_bracket(model, f1, f2, lam=None):
    """Poisson bracket {f1, f2} of two functions of the n^2 entry variables.

    The four-term sum over the terms of the skew r-matrix, each a product of
    directional derivatives along left and right root-vector fields: the
    reference engine that chart brackets are checked against.
    """
    if lam is None:
        lam = build_lambda(model)
    g = generic_element(model).entries
    total = RatFunc.zero()
    for _, e_minus, e_plus, coeff in lam.terms:
        gl_minus = mat_mul(g, e_minus)
        gl_plus = mat_mul(g, e_plus)
        gr_minus = mat_mul(e_minus, g)
        gr_plus = mat_mul(e_plus, g)
        lterm = _directional(model, f1, gl_minus) * _directional(model, f2, gl_plus) - _directional(
            model, f1, gl_plus
        ) * _directional(model, f2, gl_minus)
        rterm = _directional(model, f1, gr_minus) * _directional(model, f2, gr_plus) - _directional(
            model, f1, gr_plus
        ) * _directional(model, f2, gr_minus)
        total = total + coeff * (lterm - rterm)
    return total
