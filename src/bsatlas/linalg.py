"""Generic exact matrix helpers.

Matrices are lists of lists (or tuples) whose entries live in any
commutative ring that coerces Python ints through its arithmetic operators:
``fractions.Fraction``, ``RatFunc``, or ``Dual`` (a vector tangent: one
factorization of a Dual matrix differentiates along every tangent slot at
once).  Determinants use
division-free cofactor expansion so polynomial matrices stay polynomial.
The Gauss factorization returns the big-cell normal form a = L*N*T
(lower unitriangular, upper unitriangular, diagonal) in product order.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInBigCell


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def exact_div(x, y):
    """Division that never goes through floats (int/int -> Fraction)."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [
        [sum_entries([a[i][r] * bt[j][r] for r in range(k)]) for j in range(m)]
        for i in range(n)
    ]


def sum_entries(entries):
    it = iter(entries)
    tot = next(it)
    for e in it:
        tot = tot + e
    return tot


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def det(a):
    """Division-free determinant by cofactor expansion (sizes <= 4 here)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = None
    for j in range(n):
        if _is_zero(a[0][j]):
            continue
        sub = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * det(sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return a[0][0] * 0
    return total


def minor(a, rows, cols):
    """Determinant of the submatrix with the given row/column index lists (0-based)."""
    sub = [[a[r][c] for c in cols] for r in rows]
    return det(sub)


def adjugate_inverse(a, d=None):
    """Inverse via adjugate/determinant; raises on singular input."""
    n = len(a)
    if d is None:
        d = det(a)
    if _is_zero(d):
        raise ZeroDivisionError("singular matrix")
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [a[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            cof = det(sub) if n > 1 else 1
            if (i + j) % 2:
                cof = -cof
            out[i][j] = exact_div(cof, d)
    return out


def gauss_ltu(a):
    """Factor a = L*N*T with L lower-, N upper-unitriangular and T diagonal.

    This is the normal form m*n*t of the big cell.  After elimination row i
    holds t_i times row i of the upper factor U of a = L*T*U, so
    N = T*U*T^{-1} has the entries m_ij / t_j: one division per nonzero
    entry.  Returns (L, N, T) in product order.  Exists iff all leading
    principal minors are nonzero; on failure raises NotInBigCell carrying
    the 1-based index of the first vanishing minor.
    """
    n = len(a)
    m = [list(row) for row in a]
    # the unitriangular and diagonal fill has the entries' own type, so no int leaks out
    zero = a[0][0] * 0
    one = zero + 1
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = m[k][k]
        if _is_zero(piv):
            raise NotInBigCell(k + 1)
        for i in range(k + 1, n):
            if _is_zero(m[i][k]):
                continue
            f = exact_div(m[i][k], piv)
            lower[i][k] = f
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    t = [row[i] for i, row in enumerate(m)]
    upper = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not _is_zero(m[i][j]):
                upper[i][j] = exact_div(m[i][j], t[j])
    tmat = [[t[i] if i == j else zero for j in range(n)] for i in range(n)]
    return lower, upper, tmat


def rational_inverse(m):
    """Inverse of a square rational matrix by Gauss-Jordan; raises on singular input."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]

