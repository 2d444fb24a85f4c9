"""Matrix models of SL(n) and Sp(4) with a fixed pinning.

Only the pinning is written per series: the simple root vectors e_i, f_i
(elementary matrices for SL; the 4x4 pair printed below for Sp(4)) and the
symplectic form J.  The rest is read off it: diagonal slot p carries the
weight with coefficient h_j[p][p] on omega_j, h_j = [e_j, f_j] the coroot
matrices; the internal basis order, where the unipotent radical is upper
triangular, lists the slots by decreasing height of their weight; and the
trace form is scaled to the invariant form on alpha_1.  Root vectors for
non-simple positive roots are generated by height-increasing left-bracketing
with the smallest-index simple root and normalized so [e_b, e_{-b}] = h_b
with b(h_b) = 2.  All constructions downstream (representatives, minors,
brackets) are canonical given this data.  The root vectors form a Chevalley
basis (Humphreys, Introduction to Lie Algebras and Representation Theory,
25), so they and the coroot matrices are ``int`` matrices, with a Fraction
only where an entry is not integral.

The pinned constants act by index, never through a dense matrix product.
A representative wbar is a signed permutation matrix, read once per word
into a ``SignedPerm`` (the row and the sign of each column's one nonzero
entry), the one memo of representatives, so wbar^{-1} g, g wbar and the
minor Delta^{omega_i}(ubar^{-1} g vbar) = +- det g[ubar rows, vbar cols]
only reorder and negate entries, wbar^{-1} g in the internal basis in one
reindex.  A simple root vector e has e^2 = 0, so right multiplication by
x_{+-i}(c) = 1 + c e is one column update.  Two functions run it, and only
they read the updates: ``word_point`` builds every numeric point on integers,
as a scaled point (m, d) = m/d with one denominator, so it takes no gcd, and
runs the same update for a ring-element parameter; ``mul_word`` updates a
chart's partial product by the chain of a word on Laurent values, each a
monomial shift, and ``SignedPerm`` reorders and negates dicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import NormalizationMismatch, UnsupportedSeries, ZeroTorusValue
from .laurent import _exact, laurent_fma, unit_keys
from .linalg import (
    _is_zero,
    det,
    gauss_ltu,
    mat_mul,
    mat_sub,
    mat_transpose,
    minor,
)
from .rootdata import Coweight, RootSystem, Weight, build_root_system


class MinorSpec:
    """Data of a generalized minor: weyl pair (u, v) and a simple-root index."""

    __slots__ = ("u", "v", "alpha")

    def __init__(self, u, v, alpha):
        self.u = u
        self.v = v
        self.alpha = alpha

    def __repr__(self):
        return f"MinorSpec(u={self.u!r}, v={self.v!r}, alpha={self.alpha})"

    def label(self):
        uw = ".".join(f"s{i}" for i in self.u.canonical) or "e"
        vw = ".".join(f"s{i}" for i in self.v.canonical) or "e"
        return f"D[{uw} w{self.alpha}, {vw} w{self.alpha}]"


class GroupElement:
    """Square matrix of exact entries carrying its group model."""

    __slots__ = ("model", "entries")

    def __init__(self, model, entries):
        self.model = model
        self.entries = [list(row) for row in entries]

    def satisfies_group_constraint(self):
        """det = 1 for series A; additionally g^T J g = J for series C."""
        if not _is_zero(det(self.entries) - 1):
            return False
        if self.model.symplectic_form is not None:
            j = self.model.symplectic_form
            lhs = mat_mul(mat_mul(mat_transpose(self.entries), j), self.entries)
            return all(_is_zero(x - y) for ra, rb in zip(lhs, j) for x, y in zip(ra, rb))
        return True

    def __repr__(self):
        return f"GroupElement({self.model.name}, {len(self.entries)}x{len(self.entries)})"

    def pretty(self):
        rows = []
        for row in self.entries:
            rows.append([x.text() if hasattr(x, "text") else str(x) for x in row])
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
        return "\n".join(
            "[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]" for r in rows
        )


class SignedPerm:
    """A signed permutation matrix W: column j is signs[j] times basis vector rows[j].

    ``cols`` is the inverse permutation: row r is nonzero in column cols[r].
    W^{-1} = W^T, so the products with W only reorder and negate.  Row i of
    W^{-1} a in the basis ``order`` is s times row r of a, (r, s) = internal[i].
    """

    __slots__ = ("rows", "signs", "cols", "_prefix_signs", "internal")

    def __init__(self, entries, order):
        n = len(entries)
        rows, signs = [], []
        for j in range(n):
            nonzero = [i for i in range(n) if not _is_zero(entries[i][j])]
            if len(nonzero) != 1 or entries[nonzero[0]][j] not in (1, -1):
                raise AssertionError("representative is not a signed permutation matrix")
            rows.append(nonzero[0])
            signs.append(int(entries[nonzero[0]][j]))
        if sorted(rows) != list(range(n)):
            raise AssertionError("representative is not a signed permutation matrix")
        self.rows = tuple(rows)
        self.signs = tuple(signs)
        cols = [0] * n
        for j, r in enumerate(rows):
            cols[r] = j
        self.cols = tuple(cols)
        prefix = [1]
        for sg in signs:
            prefix.append(prefix[-1] * sg)
        self._prefix_signs = tuple(prefix)
        self.internal = tuple((rows[q], signs[q]) for q in order)

    def right(self, a):
        """a W: column j is signs[j] times column rows[j] of a."""
        return [[_signed(row[r], sg) for r, sg in zip(self.rows, self.signs)] for row in a]

    def right_inv(self, a):
        """a W^{-1} = a W^T: column rows[j] is signs[j] times column j of a."""
        return [[_signed(row[j], self.signs[j]) for j in self.cols] for row in a]


def _signed(x, sign):
    """sign * x, for a ring element or a Laurent value (a dict from packed exponent keys)."""
    if sign == 1:
        return x
    return {e: -c for e, c in x.items()} if type(x) is dict else -x


def _bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


class GroupModel:
    """SL(rank+1) or Sp(4) with root vectors for every positive root.

    Only the pinning is written per series (``_pinning``); the slot weights,
    the internal basis order and the trace scale are read off it.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.name, simple_e, simple_f, self.symplectic_form = _pinning(rs)
        self.dim = len(simple_e[1])
        self._coroot_mats = [
            _bracket(simple_e[i], simple_f[i]) for i in range(1, rs.rank + 1)
        ]
        # diagonal slot p carries the weight x_p with x_p(h_j) = h_j[p][p], its coefficient on omega_j
        self.slot_weights = tuple(tuple(h[p][p] for h in self._coroot_mats) for p in range(self.dim))
        # partial sums of slot weights must telescope to the fundamental weights,
        # so the principal minor of size k computes Delta^{omega_k}
        for k in range(1, rs.rank + 1):
            acc = tuple(map(sum, zip(*self.slot_weights[:k])))
            assert acc == tuple(int(j == k - 1) for j in range(rs.rank)), "slot weights do not telescope"
        # basis order in which the unipotent radical is upper triangular: slots by decreasing height
        height = Coweight((1,) * rs.rank)
        self._perm = tuple(sorted(range(self.dim), key=lambda p: -rs.evaluate(Weight(self.slot_weights[p]), height)))
        self._pos = tuple(self._perm.index(p) for p in range(self.dim))
        # tr(e_1 f_1) times this scale is 2/<alpha_1, alpha_1>
        a1 = rs.simple_root(1)
        self._trace_scale = Fraction(2) / (rs.pairing(a1, a1) * _trace(mat_mul(simple_e[1], simple_f[1])))
        self.pos_root_vectors = self._build_root_vectors(simple_e, simple_f)
        # g x_{+-i}(c) = g + c g e: the (source column, target column, coefficient) of e
        self._column_updates = {}
        for i in range(1, rs.rank + 1):
            for signed, x in ((i, simple_e[i]), (-i, simple_f[i])):
                self._column_updates[signed] = tuple(
                    (p, q, x[p][q]) for p in range(self.dim) for q in range(self.dim) if x[p][q] != 0
                )
        self._perm_cache = {}
        # (labels, read) of the flag minors, filled by positivity._flag_minors on first use
        self._flag_minor_table = None
        self._validate()

    # -- construction ---------------------------------------------------------

    def _build_root_vectors(self, simple_e, simple_f):
        rs = self.rs
        vectors = {}
        # positive_roots come in order of height, so beta - alpha_i is built before beta
        for beta in rs.positive_roots:
            if beta in rs.simple_roots:
                i = rs.simple_roots.index(beta) + 1
                vectors[beta] = (simple_e[i], simple_f[i])
                continue
            for i in range(1, rs.rank + 1):
                gamma = beta - rs.simple_root(i)
                if gamma in vectors:
                    e_i, f_i = simple_e[i], simple_f[i]
                    e_g, f_g = vectors[gamma]
                    e_b = _bracket(e_i, e_g)
                    if all(x == 0 for row in e_b for x in row):
                        continue
                    f_b = _bracket(f_i, f_g)
                    h = _bracket(e_b, f_b)
                    lam = self._eval_weight_on_cartan(beta, h)
                    if lam == 0:
                        continue
                    f_b = [[_exact(2 * x / Fraction(lam)) for x in row] for row in f_b]
                    vectors[beta] = (e_b, f_b)
                    break
            else:
                raise AssertionError(f"could not build root vector for {beta}")
        return vectors

    def _eval_weight_on_cartan(self, lam, h):
        """lam(h) for h a diagonal matrix in the Cartan subalgebra: omega_k(h) is the sum of its first k slots."""
        return sum(c * sum(h[p][p] for p in range(k)) for k, c in enumerate(lam.coeffs, start=1))

    def _validate(self):
        rs = self.rs
        for i in range(1, rs.rank + 1):
            for sign in (1, -1):
                x = self.root_vector(i, sign)
                if any(v != 0 for row in mat_mul(x, x) for v in row):
                    raise AssertionError(f"simple root vector {sign * i} does not square to zero")
        for beta, (e_b, f_b) in self.pos_root_vectors.items():
            x = self.to_internal(e_b)
            if any(x[p][q] != 0 for p in range(self.dim) for q in range(p + 1)):
                raise AssertionError(f"root vector {beta} is not strictly upper triangular in the internal order")
            h = _bracket(e_b, f_b)
            if self._eval_weight_on_cartan(beta, h) != 2:
                raise NormalizationMismatch(f"[e,f] fails beta(h)=2 for root {beta}")
            tr = _trace(mat_mul(e_b, f_b)) * self._trace_scale
            expect = Fraction(2) / rs.pairing(beta, beta)
            if tr != expect:
                raise NormalizationMismatch(
                    f"trace pairing {tr} != 2/<b,b> = {expect} for root {beta}"
                )

    # -- basic elements ---------------------------------------------------------

    def root_vector(self, i, sign):
        e, f = self.pos_root_vectors[self.rs.simple_root(i)]
        return e if sign > 0 else f

    def signed_perm(self, word):
        """wbar for a reduced ``word`` as a SignedPerm, read once per word: letter i off the int matrix
        sbar_i = x_i(-1) x_{-i}(1) x_i(-1), any other word by its letters applied to the int identity."""
        word = tuple(word)
        got = self._perm_cache.get(word)
        if got is None:
            if len(word) == 1:
                entries = self.word_point((word[0], -word[0], word[0]), (-1, 1, -1))[0]
            else:
                self.rs.assert_reduced(word)
                entries = self.word_point([(i,) for i in word])[0]
            got = self._perm_cache[word] = SignedPerm(entries, self._perm)
        return got

    def word_point(self, letters, params=(), torus=None, point=None):
        """(m', d') with m'/d' = (m/d) x t for point = (m, d) (None is the identity), x the word of ``letters``.

        A letter is +-i, x_{+-i}(c) at the next c of ``params``, or a reduced
        word as a tuple, whose wbar reorders and negates columns.  With c = a/b
        (``_num_den``), x_{+-i}(c) sets m <- b m + a m e (b = 1 scales
        nothing) and d <- b d.  t^{omega_i} = torus[i]; slot p of t is
        prod_i c_i^{k_i}, k = slot_weights[p].  With c_i = a_i/b_i and u_i,
        l_i >= 0 the largest positive and negative k_i over the slots, D =
        prod_i a_i^{l_i} b_i^{u_i} clears every slot: column p of m takes D t_p
        and d takes D.  Nothing is divided, so m and d stay ints for rational
        parameters, or ring elements for ring elements c = c/1; d > 0 when
        every torus value is positive.
        """
        m, d = point or ([[int(i == j) for j in range(self.dim)] for i in range(self.dim)], 1)
        params = iter(params)
        for letter in letters:
            if type(letter) is tuple:
                m = self.signed_perm(letter).right(m)
                continue
            a, b = _num_den(next(params))
            out = [[b * x for x in row] for row in m] if b != 1 else [list(row) for row in m]
            for p, q, coef in self._column_updates[letter]:
                for row, src in zip(out, m):
                    if src[p]:
                        row[q] = row[q] + a * coef * src[p]
            m, d = out, b * d
        if torus is None:
            return m, d
        parts = [_num_den(c) for c in torus]
        if len(parts) != self.rs.rank or any(_is_zero(a) for a, _ in parts):
            raise ZeroTorusValue("need one nonzero value per fundamental weight")
        ks = self.slot_weights + ((0,) * len(parts),)
        up, low = [max(*col) for col in zip(*ks)], [-min(*col) for col in zip(*ks)]
        # one factor per slot, then D itself at the zero weight that closes ks
        scale = [prod(a ** (lo + k) * b ** (u - k) for (a, b), k, u, lo in zip(parts, kp, up, low)) for kp in ks]
        return [[x * s for x, s in zip(row, scale)] for row in m], d * scale[-1]

    def mul_word(self, g, word, start, width):
        """g x_{a1}(z) sbar_{a1} ... x_{ak}(z) sbar_{ak} for g of Laurent values over a frame of ``width`` slots.

        None is the identity.  Letter j takes the variable at slot start + j;
        a chart's spec has checked the word.  Each x_{a}(z) is one column
        update g + z g e, a monomial shift of the source column, and each sbar
        only reorders and negates columns.  g is left as it is: its rows are
        copied and every updated entry is a new dict.
        """
        if start + len(word) > width:
            raise ValueError("need one frame slot per letter")
        units = unit_keys(width)
        if g is None:
            out = [[{0: 1} if i == j else {} for j in range(self.dim)] for i in range(self.dim)]
        else:
            out = [list(row) for row in g]
        for slot, i in enumerate(word, start):
            z = {units[slot]: 1}
            updates = self._column_updates[i]
            for row in out:
                src = tuple(row)
                for p, q, coef in updates:
                    if src[p]:
                        acc = dict(row[q])
                        laurent_fma(acc, coef, z, src[p])
                        row[q] = acc
            out = self.signed_perm((i,)).right(out)
        return out

    # -- factorizations -----------------------------------------------------------

    def to_internal(self, entries):
        """Reindex into the basis order where the unipotent radical is upper."""
        p = self._perm
        return [[entries[p[i]][p[j]] for j in range(self.dim)] for i in range(self.dim)]

    def internal_left_inv(self, word, entries):
        """wbar^{-1} entries in the internal basis, for the element of ``word``, in one reindex (``SignedPerm.internal``)."""
        p, out = self._perm, []
        for r, sg in self.signed_perm(word).internal:
            row = entries[r]
            out.append([row[c] for c in p] if sg == 1 else [_signed(row[c], -1) for c in p])
        return out

    def from_internal(self, entries):
        pos = self._pos
        return [[entries[pos[i]][pos[j]] for j in range(self.dim)] for i in range(self.dim)]

    def triangular_factor(self, entries):
        """Group Gauss factorization a = lower * upper * torus, in the model's own basis.

        Factors live in N^-, N and T and come back in that product order (for
        Sp(4) the unipotent radicals are not matrix-triangular; the
        factorization is carried out in the internally permuted basis where
        they are).  Raises NotInBigCell naming the vanishing principal minor
        (indexed in the internal basis order).
        """
        return tuple(self.from_internal(f) for f in gauss_ltu(self.to_internal(entries)))

    # -- generalized minors ---------------------------------------------------------

    def minor_indices(self, spec: MinorSpec):
        """(rows, cols, sign) with Delta_{u omega_a, v omega_a}(g) = sign * det g[rows, cols].

        The leading k x k minor of ubar^{-1} g vbar is +- det g[ubar rows[:k], vbar rows[:k]].
        """
        up, vp = self.signed_perm(spec.u.canonical), self.signed_perm(spec.v.canonical)
        k = spec.alpha
        return up.rows[:k], vp.rows[:k], up._prefix_signs[k] * vp._prefix_signs[k]

    def generalized_minor(self, g, spec: MinorSpec):
        """Delta_{u omega_a, v omega_a}(g) = Delta^{omega_a}(ubar^{-1} g vbar), a signed minor of the matrix g."""
        rows, cols, sign = self.minor_indices(spec)
        return _signed(minor(g, rows, cols), sign)


def _num_den(c):
    """c as (a, b) with c = a/b: lowest terms for an int or Fraction, (c, 1) for any other ring element."""
    return (c.numerator, c.denominator) if isinstance(c, (int, Fraction)) else (c, 1)


def _pinning(rs):
    """(name, e, f, J): the simple root vectors e_i and f_i by index and the symplectic form J (None for SL)."""
    if rs.series == "A":
        n = rs.rank + 1
        e = {i: _elem(n, i, i + 1) for i in range(1, n)}
        f = {i: _elem(n, i + 1, i) for i in range(1, n)}
        return f"SL({n})", e, f, None
    if rs.series == "C":
        j = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        e = {1: mat_sub(_elem(4, 1, 2), _elem(4, 4, 3)), 2: _elem(4, 2, 4)}
        f = {1: mat_sub(_elem(4, 2, 1), _elem(4, 3, 4)), 2: _elem(4, 4, 2)}
        return "Sp(4)", e, f, [[Fraction(x) for x in row] for row in j]
    raise UnsupportedSeries(f"series {rs.series!r} has no matrix model here")


def _trace(a):
    return sum(a[p][p] for p in range(len(a)))


def _elem(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    return m


def build_model(rs: RootSystem) -> GroupModel:
    """Matrix model with validated root vectors for all positive roots."""
    return GroupModel(rs)


_MODELS = {}


def cached_model(series, rank) -> GroupModel:
    """The model of (series, rank), built once per process."""
    got = _MODELS.get((series, rank))
    if got is None:
        got = build_model(build_root_system(series, rank))
        _MODELS[(series, rank)] = got
    return got
