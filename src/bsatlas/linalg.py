"""Generic exact matrix helpers.

Matrices are lists of lists (or tuples) whose entries live in any
commutative ring that coerces Python ints through its arithmetic operators:
``fractions.Fraction`` or ``RatFunc``.  Determinants use division-free
cofactor expansion so polynomial matrices stay polynomial.  The Gauss
factorization returns the big-cell normal form a = L*N*T (lower
unitriangular, upper unitriangular, diagonal) in product order.  It is
fraction-free: each column is written as numerators over a denominator c_j
and Bareiss elimination runs on the numerators with exact divisions only,
so every intermediate entry is a minor of the input.  One elimination reads
three inputs (``_ring_of``).  A chart's representative is stored as Laurent
values over the chart's frame, each monomial one packed int key (``laurent``),
and goes in as it is, with c_j = 1.  A scaled point m/d of ints goes in as
it is, each column over d, and Fraction rows as ints over the lcm of each
column's denominators.  Any other matrix is converted once, as a front end,
to Laurent values over the frame of its entries (c_j = 1, or c_j = d over
the same frame for a scaled point); a denominator that is not a monomial
raises NonPolynomialBracket, naming the entry.  With p_k the leading
principal minors of the numerators and M the entries before their
elimination step, each factor entry is one quotient of two such minors:
L_ik = M_ik/p_{k+1}, N_kj = M_kj p_j/(p_k p_{j+1}), T_k = p_{k+1}/(p_k c_k).
``ltu_minors`` reads any minor of a factor as one quotient straight from the
pass, so a chart's coordinates need no factor.  On Laurent values a quotient
first divides out each pivot's non-monomial factor that divides it exactly;
a factor left below that is certified prime (``_pivot_split``) proves the
quotient coprime without a gcd, and on every change of each space of SL(3)
and Sp(4) and of seeded SL(4) pairs every factor is, so those take none.
The formulas live in ``_normal_form``: ``gauss_ltu`` builds each quotient
in the entry type of the input, and ``gauss_ltu_lift`` as an exact Laurent
division, since on a Bott-Samelson chart the factors are Laurent and every
pivot is a monomial, so each division is an exponent shift.  The lift then
forms, in closed form, the tangents of the factors along left and right
fields a*x and x*a, each x given by its nonzero entries: one entry makes a
rank-one update of each factor, with running partial sums, and the
tangents come back as one list per factor entry of the fields that move it;
``minor_tangents`` reads a minor of a factor and carries the tangents to it
by Jacobi's formula, from one set of cofactors, each run over the list of
its entry.  The lift takes no gcd.  A chart's representative is
built on Laurent values too: ``laurent_lower_factor`` eliminates with
monomial pivots and ``laurent_lower_inverse`` inverts by forward
substitution, with no gcd either; each product in that build is a column
update by one letter of a word (``GroupModel.mul_word``), so no two
Laurent matrices are multiplied.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm as _int_lcm
from operator import mul

from .errors import NonPolynomialBracket, NotInBigCell
from .laurent import laurent_divide, laurent_fma, laurent_frame, laurent_shift, pack_exponent, to_laurent, unpack_columns
from .symbolic import RatFunc, from_laurent


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def mat_mul(a, b):
    """The product of two matrices, each entry summed left to right from its first product."""
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row[1:], col[1:])), row[0] * col[0]) for col in bt] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def minor_tangents(a, da, rows, cols, fields, sign):
    """(sign * det S, [sign * d det S along each of ``fields`` fields]) for the minor S = a[rows, cols].

    a holds Laurent values and da[r][c] the nonzero (field, tangent) pairs of
    entry (r, c), as ``gauss_ltu_lift`` returns them.  One set of cofactors C
    of S, each computed where the first row of S or some tangent is nonzero,
    gives det S = sum_q S_0q C_0q and each tangent by Jacobi's formula
    d det S = sum_pq C_pq dS_pq, each cofactor run over the list of its entry;
    ``sign`` (+-1) rides on the cofactor signs, so no tangent is negated after.
    """
    one, value, tangents = {0: 1}, {}, [{} for _ in range(fields)]
    for p, r in enumerate(rows):
        for q, c in enumerate(cols):
            first = not p and a[r][c]
            if first or da[r][c]:
                cof = _laurent_det([[a[i][j] for j in cols if j != c] for i in rows if i != r], one)
                if cof:
                    s = -sign if (p + q) % 2 else sign
                    if first:
                        laurent_fma(value, s, a[r][c], cof)
                    for k, t in da[r][c]:
                        laurent_fma(tangents[k], s, cof, t)
    return value, tangents


def _laurent_det(a, one):
    """Determinant of a square matrix of Laurent values, by cofactor expansion along its first row."""
    if not a:
        return one
    minors = ((j, x, [row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0]) if x)
    return _dot({}, ((-1 if j % 2 else 1, x, _laurent_det(sub, one)) for j, x, sub in minors))


def gauss_ltu(a):
    """Factor a = L*N*T with L lower-, N upper-unitriangular and T diagonal, in product order.

    This is the normal form m*n*t of the big cell: the quotients of
    ``_normal_form`` off one ``_bareiss`` pass, each built once by
    ``ring.make`` in the entry type of a.  Exists iff all leading principal
    minors are nonzero; on failure raises NotInBigCell carrying the 1-based
    index of the first vanishing minor.
    """
    ring, m, p, c = _bareiss(a)
    return _normal_form(ring, m, p, c, ring.make)


def _normal_form(ring, m, p, c, make):
    """(L, N, T) of the ``_bareiss`` pass (ring, m, p, c), each entry make(num, den).

    With c_j the lcm of the denominators of column j, p_k the k-th leading
    principal minor of the column numerators (p_0 = 1) and M_ij the
    numerator entry (i, j) as it stands before step min(i, j),

        L_ik = M_ik / p_{k+1},   N_kj = M_kj p_j / (p_k p_{j+1}),   T_k = p_{k+1} / (p_k c_k).
    """
    n, zero, one = len(m), make(ring.zero, ring.one), make(ring.one, ring.one)
    lower, upper, tmat = ([[one if i == j and f < 2 else zero for j in range(n)] for i in range(n)] for f in range(3))
    for k in range(n):
        tmat[k][k] = make(p[k + 1], ring.mul(p[k], c[k]))
        for i in range(k + 1, n):
            if m[i][k]:
                lower[i][k] = make(m[i][k], p[k + 1])
            if m[k][i]:
                upper[k][i] = make(ring.mul(m[k][i], p[i]), ring.mul(p[k], p[i + 1]))
    return lower, upper, tmat


def ltu_minors(a, minors, frame=None, den=None):
    """sign * det F[rows, cols] for each (f, rows, cols, sign) of minors, F = gauss_ltu(a)[f], off one pass.

    a is read as ``_ring_of`` reads it: Laurent values over ``frame``, the
    scaled point a/den in any ring, or Fraction or RatFunc entries.
    Each Laurent pivot is split once, p_k = z^e_k q_k (``_pivot_split``), for
    the divisions of ``_factor_minor``.
    """
    ring, m, p, c = _bareiss(a, frame, den)
    split = [_pivot_split(x, ring.frame) for x in p]
    values = [(_factor_minor(ring, m, p, c, split, f, rows, cols), sign) for f, rows, cols, sign in minors]
    return [x if sign == 1 else -x for x, sign in values]


def _pivot_split(piv, frame):
    """(z^e, q, prime) with piv = z^e q for a Laurent pivot, q with no monomial factor; (piv, None, True) for a monomial
    or an int.

    prime certifies q irreducible: some variable z occurs in exactly one term of q, to the first power.  Then
    q = c m z + b with z in neither m nor b, and a factor of q free of z divides c m, so it is a monomial, of
    which q has none.
    """
    if frame is None or len(piv) == 1:
        return piv, None, True
    cols = unpack_columns(piv, len(frame))
    e = pack_exponent([min(col) for col in cols], len(frame))
    return {e: 1}, laurent_shift(piv, -e), any(sum(col) - len(col) * min(col) == 1 for col in cols)


def _int_divide(x, y):
    q, r = divmod(x, y)
    return None if r else q


def _rational_column(col):
    c = _int_lcm(*(x.denominator for x in col))
    return [x.numerator * (c // x.denominator) for x in col], c


# The ring of one elimination: exact division (None if it is not exact), x*piv - f*y, determinant, product,
# ``make`` (a numerator over a denominator as an entry; on Laurent values, a third argument True tells it the two are
# coprime past their monomials), Laurent frame.
_Ring = namedtuple("_Ring", "zero one divide cross det mul make frame")
_RATIONALS = _Ring(0, 1, _int_divide, lambda x, piv, f, y: x * piv - f * y, det, mul, Fraction, None)


def _ring_of(a, frame=None, den=None):
    """(ring, columns): the ring of one elimination of a, and each column j of a as (numerators, c_j) in it.

    With ``frame``, the entries are Laurent values over it and stay as they
    are (c_j = 1).  Else an int matrix a with an int ``den`` is the scaled
    point a/den, each column over den, and without ``den``, int and Fraction
    entries are ints over the lcm c_j of each column's denominators.  Any
    other entries coerce to RatFuncs whose denominators are monomials, read
    once as Laurent values over the frame of the entries (``laurent_matrix``),
    with c_j = 1, or c_j = den over the same frame for a scaled point.
    laurent_divide is looked up per call, so a test can replace it.
    """
    one = c = {0: 1}
    if frame is None:
        if type(den) is int and all(type(x) is int for row in a for x in row):
            return _RATIONALS, [(list(col), den) for col in zip(*a)]
        if den is None and all(type(x) in (int, Fraction) for row in a for x in row):
            return _RATIONALS, [_rational_column(col) for col in zip(*a)]
        frame, a = laurent_matrix(a if den is None else [*a, [den]])
        c = one if den is None else a.pop()[0]
    ring = _Ring(
        {},
        one,
        laurent_divide,
        lambda x, piv, f, y: _dot({}, ((1, x, piv), (-1, f, y))),
        lambda sub: _laurent_det(sub, one),
        lambda x, y: _dot({}, ((1, x, y),)),
        lambda num, d, coprime=False: from_laurent(num, frame, d, coprime),
        frame,
    )
    return ring, [(list(col), c) for col in zip(*a)]


def laurent_matrix(a):
    """(frame, rep): the RatFunc matrix a as Laurent values over the frame of its entries, each converted once.

    This is ``_ring_of``'s conversion of a matrix whose denominators are
    monomials; any other denominator raises NonPolynomialBracket.
    """
    frame = laurent_frame(RatFunc.coerce(x) for row in a for x in row)
    return frame, [[to_laurent(RatFunc.coerce(x), frame) for x in row] for row in a]


def _quotient(divide, x, y, where):
    """x / y, which the elimination knows to be exact; a remainder is an internal fault."""
    q = divide(x, y)
    if q is None:
        raise AssertionError(f"fraction-free elimination: {where} is not an exact division")
    return q


def _bareiss(a, frame=None, den=None):
    """Fraction-free elimination without pivoting: (ring, M, p, c) for ``_factor_minor``.

    Column j of a becomes numerators over c_j (``_ring_of``).  Step k sets
    M_ij = (p_{k+1} M_ij - M_ik M_kj) / p_k for i, j > k with p_{k+1} = M_kk;
    by Sylvester's identity M_ij is then the minor of the numerators on rows
    0..k, i and columns 0..k, j, so the division is exact (Bareiss 1968).
    Row k and the column below the pivot are never written again: M keeps
    each entry as it stood before step min(i, j).
    """
    ring, columns = _ring_of(a, frame, den)
    m = [list(row) for row in zip(*(nums for nums, _ in columns))]
    p = [ring.one]
    for k, rk in enumerate(m):
        piv = rk[k]
        if not piv:
            raise NotInBigCell(k + 1)
        for i in range(k + 1, len(m)):
            ri = m[i]
            for j in range(k + 1, len(m)):
                x = ring.cross(ri[j], piv, ri[k], rk[j])
                ri[j] = _quotient(ring.divide, x, p[k], f"step {k + 1} at entry ({i + 1}, {j + 1})") if k and x else x
        p.append(piv)
    return ring, m, p, [cj for _, cj in columns]


def _factor_minor(ring, m, p, c, split, f, rows, cols):
    """det F[rows, cols] for F = (L, N, T)[f] of the ``_bareiss`` pass (ring, m, p, c), as one quotient.

    Let M^L hold M below the diagonal, p_{k+1} on it and 0 above, and M^U
    be its mirror image.  Then L = M^L diag(1/p_{k+1}) and
    N = diag(1/p_k) M^U diag(p_j/p_{j+1}), so

        L[R,C] = det M^L[R,C] / prod_{k in C} p_{k+1},
        N[R,C] = det M^U[R,C] prod_{j in C} p_j / (prod_{k in R} p_k prod_{j in C} p_{j+1}),

    and the principal minor of T on R is prod_{i in R} p_{i+1} / (p_i c_i).
    A pivot index on both sides cancels before any product is formed.  A
    Laurent p_k = z^e_k q_k (split[k]) left below goes out as z^e_k where q_k
    divides the numerator exactly, which keeps the quotient; else p_k stays.
    A q_k that stays divides neither that numerator nor any exact quotient
    of it, so where every such q_k is certified prime the quotient is
    coprime past its monomials, and ``ring.make`` is told so and takes no
    gcd; else its gcd cancels only what those divisions left.
    """
    if f == 2:
        num, up, down = ring.one, [i + 1 for i in rows], list(rows)
    else:
        sub = [[p[k + 1] if r == k else m[r][k] if (r > k) == (f == 0) else ring.zero for k in cols] for r in rows]
        num, up, down = ring.det(sub), list(cols if f else ()), [k + 1 for k in cols] + list(rows if f else ())
        if not num:
            return ring.make(num, ring.one)
    for k in list(up):
        if k in down:
            up.remove(k)
            down.remove(k)
    for k in up:
        num = ring.mul(num, p[k]) if k else num
    den, coprime = ring.one, True
    for k in down:
        mono, q, prime = split[k]
        if q is not None and (quo := ring.divide(num, q)) is not None:
            num, den = quo, ring.mul(den, mono)
        elif k:
            den, coprime = ring.mul(den, p[k]), coprime and prime
    for x in [c[i] for i in rows] if f == 2 else []:
        den = ring.mul(den, x)
    return ring.make(num, den) if ring.frame is None else ring.make(num, den, coprime)


def gauss_ltu_lift(a, fields, frame=None):
    """The factors of ``gauss_ltu(a)`` on Laurent values, with their tangents: (frame, ((L, dL), (N, dN), (T, dT))).

    a holds Laurent values over ``frame``, or RatFuncs, read over the frame
    of their entries (``_ring_of``), which is the frame returned.  Each
    quotient of ``_normal_form`` is an exact Laurent division, a shift on a
    chart; any other raises NonPolynomialBracket.  A field is (side, entries),
    x = sum c*E_kl over its nonzero entries (k, l, c): ("left", x) moves a
    along a*x, ("right", x) along x*a.  dL[r][c] lists the nonzero (field
    index, tangent) pairs of L_rc in field order, and so do dN and dT.  With
    a = L*U, U = N*T, dL = L*sl(Y) and dU = up(Y)*U for Y = L^{-1} da U^{-1},
    sl and up the strictly lower and the upper parts (Giles, *Collected
    matrix derivative results for forward and reverse mode AD*, 2008), so
    dT = diag(Y)*T, dN = up(Y)*N - N*diag(Y), and Y = P*x*Q with
    (P, Q) = (U, U^{-1}) (left) or (L^{-1}, L) (right): no tangent is
    eliminated.  Each entry adds Y = c*u*v^T of rank one, u column k of P and
    v row l of Q, so Y is never formed; each inner sum is a running sum:

        dL_ij += c v_j sum_{j<k'<=i} L_ik' u_k',
        dN_ij += c (u_i sum_{i<=k'<=j} v_k' N_k'j - N_ij u_j v_j),
        dT_ii += c u_i v_i T_ii.
    """
    n = len(a)
    ring, m, p, c = _bareiss(a, frame)
    lo, up, tm = _normal_form(ring, m, p, c, _laurent_quotient)
    # U = N*T and U^{-1} = T^{-1}*N^{-1}, with N^{-1} the transpose of (N^T)^{-1}
    u = [[_dot({}, ((1, x, tm[j][j]),)) for j, x in enumerate(row)] for row in up]
    n_inv = mat_transpose(laurent_lower_inverse(mat_transpose(up), ring.one))
    u_inv = [[_laurent_quotient(x, tm[i][i]) for x in row] for i, row in enumerate(n_inv)]
    lo_inv = laurent_lower_inverse(lo, ring.one)
    sides = {"left": (u, u_inv), "right": (lo_inv, lo)}
    lists = [[[[] for _ in range(n)] for _ in range(n)] for _ in range(3)]
    for index, (side, entries) in enumerate(fields):
        if side not in sides:
            raise ValueError(f"unknown field side {side!r}")
        p, q = sides[side]
        # acc[(f, i, j)]: the tangent of entry (i, j) of factor f along this field
        acc = {}
        for k, l, c in entries:
            col, row = [r[k] for r in p], q[l]
            uv = [_dot({}, ((1, x, y),)) for x, y in zip(col, row)]
            # a running sum is read only down to the first nonzero v_j (for dL) or u_j (for dN)
            first_v, first_u = (next((j for j, x in enumerate(w) if x), n) for w in (row, col))
            for i in range(n):
                if uv[i]:
                    laurent_fma(acc.setdefault((2, i, i), {}), c, uv[i], tm[i][i])
                # part = sum_{j<k'<=i} L_ik' u_k', from u_i down
                part = dict(col[i])
                for j in range(i - 1, first_v - 1, -1):
                    if part and row[j]:
                        laurent_fma(acc.setdefault((0, i, j), {}), c, row[j], part)
                    if j > first_v and lo[i][j] and col[j]:
                        laurent_fma(part, 1, lo[i][j], col[j])
                # part = sum_{j<=k'<=i} v_k' N_k'i, from v_i up, for dN_ji
                part = dict(row[i])
                for j in range(i - 1, -1, -1):
                    if j >= first_u:
                        if up[j][i] and row[j]:
                            laurent_fma(part, 1, row[j], up[j][i])
                        if part and col[j]:
                            laurent_fma(acc.setdefault((1, j, i), {}), c, col[j], part)
                    if up[j][i] and uv[i]:
                        laurent_fma(acc.setdefault((1, j, i), {}), -c, up[j][i], uv[i])
        for (f, i, j), t in acc.items():
            if t:
                lists[f][i][j].append((index, t))
    return ring.frame, ((lo, lists[0]), (up, lists[1]), (tm, lists[2]))


def _laurent_quotient(num, den):
    """num/den for Laurent values over one frame; a quotient that is not Laurent raises NonPolynomialBracket."""
    q = laurent_divide(num, den)
    if q is None:
        raise NonPolynomialBracket("a factor of the normal form is not a Laurent polynomial on the chart")
    return q


def _dot(start, terms):
    """start + sum of s*x*y over the (s, x, y) of terms, Laurent values over one frame; empty factors add nothing."""
    acc = dict(start)
    for s, x, y in terms:
        if x and y:
            laurent_fma(acc, s, x, y)
    return acc


def laurent_lower_factor(a, one):
    """The lower unitriangular L of a = L*N*T, for a matrix of Laurent values whose pivots are monomials.

    Gaussian elimination without pivoting.  Pivot k is p_{k+1}/p_k, p_k the
    leading principal minors of a; on a Bott-Samelson chart every p_k is a
    monomial, so each pivot step is an exponent shift and one rational
    division, and L_ik is the entry below pivot k shifted by it.  A zero
    pivot raises NotInBigCell(k + 1); a pivot of more than one term is an
    internal fault.
    """
    n = len(a)
    m = [list(row) for row in a]
    for k in range(n):
        piv = m[k][k]
        if not piv:
            raise NotInBigCell(k + 1)
        if len(piv) != 1:
            raise AssertionError(f"Laurent elimination: pivot {k + 1} has {len(piv)} terms, not one")
        ((e, c),) = piv.items()
        inv_c = c if c in (1, -1) else Fraction(1) / c
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            if not ri[k]:
                continue
            ri[k] = lik = laurent_shift(ri[k], -e, inv_c)
            for j in range(k + 1, n):
                if rk[j]:
                    ri[j] = _dot(ri[j], ((-1, lik, rk[j]),))
    return [[one if i == j else m[i][j] if j < i else {} for j in range(n)] for i in range(n)]


def laurent_lower_inverse(a, one):
    """Inverse of a lower unitriangular matrix of Laurent values, by forward substitution."""
    n = len(a)
    inv = [[one if i == j else {} for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = _dot({}, ((-1, a[i][k], inv[k][j]) for k in range(j, i)))
    return inv


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

