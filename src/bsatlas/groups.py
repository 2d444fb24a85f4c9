"""Matrix models of SL(n) and Sp(4) with a fixed pinning.

The pinning fixes simple root vectors (elementary matrices for SL; the
4x4 pair printed below for Sp(4)); root vectors for non-simple positive
roots are generated by height-increasing left-bracketing with the
smallest-index simple root and normalized so [e_b, e_{-b}] = h_b with
b(h_b) = 2.  All constructions downstream (representatives, minors,
brackets) are canonical given this data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NormalizationMismatch, UnsupportedSeries, ZeroTorusValue
from .linalg import (
    _is_zero,
    adjugate_inverse,
    det,
    gauss_ltu,
    gauss_utl,
    leading_minor,
    mat_add,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    rational_inverse,
)
from .rootdata import RootSystem, Weight, build_root_system

_QH = Fraction(1, 2)


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

    def __mul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement(self.model, mat_mul(self.entries, other.entries))
        return NotImplemented

    def inverse(self):
        return GroupElement(self.model, adjugate_inverse(self.entries, det(self.entries)))

    def transpose(self):
        return GroupElement(self.model, mat_transpose(self.entries))

    def det(self):
        return det(self.entries)

    def satisfies_group_constraint(self):
        """det = 1 for series A; additionally g^T J g = J for series C."""
        if not _is_zero(self.det() - 1):
            return False
        if self.model.symplectic_form is not None:
            j = self.model.symplectic_form
            lhs = mat_mul(mat_mul(mat_transpose(self.entries), j), self.entries)
            return _mat_eq(lhs, j)
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


def _mat_eq(a, b):
    return all(_is_zero(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


class GroupModel:
    """SL(rank+1) or Sp(4) with root vectors for every positive root."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        if rs.series == "A":
            self.dim = rs.rank + 1
            self.name = f"SL({self.dim})"
            self.symplectic_form = None
            self._trace_scale = Fraction(1)
            simple_e = {}
            simple_f = {}
            for i in range(1, rs.rank + 1):
                simple_e[i] = _elem(self.dim, i, i + 1)
                simple_f[i] = _elem(self.dim, i + 1, i)
            # diagonal slot p carries character x_p = omega_p - omega_{p-1}
            tw = []
            for p in range(1, self.dim + 1):
                c = [0] * rs.rank
                if p <= rs.rank:
                    c[p - 1] += 1
                if p - 2 >= 0 and p - 1 <= rs.rank:
                    c[p - 2] -= 1
                tw.append(Weight(c))
            self.torus_weights = tuple(tw)
        elif rs.series == "C":
            self.dim = 4
            self.name = "Sp(4)"
            j = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
            self.symplectic_form = [[Fraction(x) for x in row] for row in j]
            self._trace_scale = _QH
            simple_e = {
                1: mat_sub(_elem(4, 1, 2), _elem(4, 4, 3)),
                2: _elem(4, 2, 4),
            }
            simple_f = {
                1: mat_sub(_elem(4, 2, 1), _elem(4, 3, 4)),
                2: _elem(4, 4, 2),
            }
            # slots carry (x1, x2, -x1, -x2) with omega_1 = x1, omega_2 = x1 + x2
            self.torus_weights = (
                Weight((1, 0)),
                Weight((-1, 1)),
                Weight((-1, 0)),
                Weight((1, -1)),
            )
        else:
            raise UnsupportedSeries(f"series {rs.series!r} has no matrix model here")
        # partial sums of slot weights must telescope to the fundamental weights,
        # so the principal minor of size k computes Delta^{omega_k}
        acc = Weight([0] * rs.rank)
        for k in range(1, rs.rank + 1):
            acc = acc + self.torus_weights[k - 1]
            assert acc == rs.fundamental_weight(k), "slot weights do not telescope"
        # basis order in which the unipotent radical is upper triangular;
        # the Sp(4) pinning ties slots 3 and 4 the other way around
        self._perm = tuple(range(self.dim)) if rs.series == "A" else (0, 1, 3, 2)
        self._coroot_mats = [
            _bracket(simple_e[i], simple_f[i]) for i in range(1, rs.rank + 1)
        ]
        self._cartan_slots, self._cartan_slots_inv = self._independent_slots()
        self.pos_root_vectors = self._build_root_vectors(simple_e, simple_f)
        self._sbar_cache = {}
        self._wbar_cache = {}
        self._wbar_inv_cache = {}
        self._validate()

    # -- construction ---------------------------------------------------------

    def _root_coords_int(self, beta):
        return tuple(int(c) for c in self.rs._root_coords(beta))

    def _build_root_vectors(self, simple_e, simple_f):
        rs = self.rs
        by_height = sorted(
            rs.positive_roots, key=lambda b: (sum(self._root_coords_int(b)), self._root_coords_int(b))
        )
        vectors = {}
        for beta in by_height:
            coords = self._root_coords_int(beta)
            if sum(coords) == 1:
                i = coords.index(1) + 1
                vectors[beta.coeffs] = (simple_e[i], simple_f[i])
                continue
            for i in range(1, rs.rank + 1):
                gamma = beta - rs.simple_root(i)
                if gamma.coeffs in vectors:
                    e_i, f_i = simple_e[i], simple_f[i]
                    e_g, f_g = vectors[gamma.coeffs]
                    e_b = _bracket(e_i, e_g)
                    if all(x == 0 for row in e_b for x in row):
                        continue
                    f_b = _bracket(f_i, f_g)
                    h = _bracket(e_b, f_b)
                    lam = self._eval_weight_on_cartan(beta, h)
                    if lam == 0:
                        continue
                    f_b = mat_scale(f_b, Fraction(2) / lam)
                    vectors[beta.coeffs] = (e_b, f_b)
                    break
            else:
                raise AssertionError(f"could not build root vector for {beta}")
        return {Weight(k): v for k, v in vectors.items()}

    def _independent_slots(self):
        """First rank diagonal slots on which the coroots are independent, and
        the inverse of the coroots' values there."""
        rank = self.rs.rank
        for combo in combinations(range(self.dim), rank):
            a = [[self._coroot_mats[i][p][p] for i in range(rank)] for p in combo]
            try:
                return combo, rational_inverse(a)
            except ZeroDivisionError:
                continue
        raise AssertionError("coroots do not span the diagonal")

    def _eval_weight_on_cartan(self, lam, h):
        """lam(h) for h a diagonal matrix in the Cartan subalgebra."""
        # h = sum t_i coroot_i, solved on the independent slots
        rhs = [h[p][p] for p in self._cartan_slots]
        ts = [sum(c * r for c, r in zip(row, rhs)) for row in self._cartan_slots_inv]
        return sum(t * lam.coeffs[i] for i, t in enumerate(ts))

    def _validate(self):
        rs = self.rs
        for beta, (e_b, f_b) in self.pos_root_vectors.items():
            h = _bracket(e_b, f_b)
            if self._eval_weight_on_cartan(beta, h) != 2:
                raise NormalizationMismatch(f"[e,f] fails beta(h)=2 for root {beta}")
            tr = sum(mat_mul(e_b, f_b)[i][i] for i in range(self.dim)) * self._trace_scale
            expect = Fraction(2) / rs.pairing(beta, beta)
            if tr != expect:
                raise NormalizationMismatch(
                    f"trace pairing {tr} != 2/<b,b> = {expect} for root {beta}"
                )

    # -- basic elements ---------------------------------------------------------

    def identity(self):
        return GroupElement(self, [[Fraction(int(i == j)) for j in range(self.dim)] for i in range(self.dim)])

    def root_vector(self, i, sign):
        e, f = self.pos_root_vectors[self.rs.simple_root(i)]
        return e if sign > 0 else f

    def root_vector_for(self, beta, sign):
        e, f = self.pos_root_vectors[beta]
        return e if sign > 0 else f

    def one_param(self, signed_index, c):
        """x_{alpha_i}(c) = exp(c e_{alpha_i}); negative index uses e_{-alpha_i}."""
        i = abs(signed_index)
        x = self.root_vector(i, 1 if signed_index > 0 else -1)
        return self._exp_nilpotent(x, c)

    def _exp_nilpotent(self, x, c):
        """exp(c x); entries have the type of c (an int c gives Fractions)."""
        n = self.dim
        out = mat_identity(n)
        term = mat_identity(n)
        k = 1
        while True:
            term = mat_scale(mat_mul(term, x), c * Fraction(1, k))
            if all(_is_zero(v) for row in term for v in row):
                break
            out = mat_add(out, term)
            k += 1
        return GroupElement(self, out)

    def sbar(self, i):
        got = self._sbar_cache.get(i)
        if got is None:
            got = (
                self.one_param(i, Fraction(-1))
                * self.one_param(-i, Fraction(1))
                * self.one_param(i, Fraction(-1))
            )
            self._sbar_cache[i] = got
        return got

    def wbar(self, word):
        """Representative of the element of ``word``; the word must be reduced."""
        word = tuple(word)
        got = self._wbar_cache.get(word)
        if got is not None:
            return got
        if len(word) > 1:
            self.rs.assert_reduced(word)
        out = self.identity()
        for i in word:
            out = out * self.sbar(i)
        self._wbar_cache[word] = out
        return out

    def wbar_inverse(self, word):
        """Inverse of ``wbar(word)``, computed once per word."""
        word = tuple(word)
        got = self._wbar_inv_cache.get(word)
        if got is None:
            got = self.wbar(word).inverse()
            self._wbar_inv_cache[word] = got
        return got

    def wbar_element(self, w):
        return self.wbar(w.canonical)

    def torus_element(self, values):
        """Diagonal t with t^{omega_i} = values[i]; entries have the values' type."""
        rs = self.rs
        if len(values) != rs.rank:
            raise ValueError("need one value per fundamental weight")
        if any(_is_zero(v) for v in values):
            raise ZeroTorusValue("torus coordinates must be nonzero")
        n = self.dim
        entries = [[Fraction(0)] * n for _ in range(n)]
        for p in range(n):
            d = Fraction(1)
            for v, c in zip(values, self.torus_weights[p].coeffs):
                # dividing keeps an int value exact; int ** -1 is a float
                if c > 0:
                    d = d * v ** int(c)
                elif c < 0:
                    d = d / v ** int(-c)
            entries[p][p] = d
        return GroupElement(self, entries)

    def torus_value(self, tdiag, i):
        """t^{omega_i} of a diagonal matrix: the product of its first minor_size(i) slots."""
        slots = self._perm[: self.minor_size(i)]
        out = tdiag[slots[0]][slots[0]]
        for p in slots[1:]:
            out = out * tdiag[p][p]
        return out

    def g_word(self, word, vars):
        """Product x_{a1}(z1) sbar_{a1} ... x_{ak}(zk) sbar_{ak} (word reduced)."""
        word = tuple(word)
        if len(word) != len(vars):
            raise ValueError("need one variable per letter")
        if word:
            self.rs.assert_reduced(word)
        out = self.identity()
        for i, z in zip(word, vars):
            out = out * self.one_param(i, z) * self.sbar(i)
        return out

    # -- factorizations -----------------------------------------------------------

    def to_internal(self, entries):
        """Reindex into the basis order where the unipotent radical is upper."""
        p = self._perm
        return [[entries[p[i]][p[j]] for j in range(self.dim)] for i in range(self.dim)]

    def from_internal(self, entries):
        p = self._perm
        out = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                out[p[i]][p[j]] = entries[i][j]
        return out

    def triangular_factor(self, entries, order="LTU"):
        """Group Gauss factorization, returned in the model's own basis.

        Factors live in the unipotent radicals of the Borel pair (for Sp(4)
        these are not matrix-triangular; the factorization is carried out in
        the internally permuted basis where they are).
        """
        internal = self.to_internal(entries)
        if order == "LTU":
            a, t, b = gauss_ltu(internal)
        elif order == "UTL":
            a, t, b = gauss_utl(internal)
        else:
            raise ValueError("order must be 'LTU' or 'UTL'")
        return self.from_internal(a), self.from_internal(t), self.from_internal(b)

    def gauss_factor(self, g, order="LTU"):
        """g = first * torus * last, factors in N^- , T, N (or N, T, N^- for UTL).

        Raises NotInBigCell naming the vanishing principal minor (indexed in
        the internal basis order).
        """
        entries = g.entries if isinstance(g, GroupElement) else g
        a, t, b = self.triangular_factor(entries, order)
        return (
            GroupElement(self, a),
            GroupElement(self, t),
            GroupElement(self, b),
        )

    def split_unipotent_by_v(self, n_el, v):
        """n = n1 * n2 with vbar^{-1} n1 vbar in N^- and vbar^{-1} n2 vbar in N."""
        vb = self.wbar_element(v)
        vb_inv = self.wbar_inverse(v.canonical)
        x = vb_inv * n_el * vb
        lo, t, up = self.triangular_factor(x.entries, "LTU")
        for i in range(self.dim):
            if not _is_zero(t[i][i] - 1):
                raise AssertionError("unipotent split produced a torus part")
        n1 = vb * GroupElement(self, lo) * vb_inv
        n2 = vb * GroupElement(self, up) * vb_inv
        return n1, n2

    # -- generalized minors ---------------------------------------------------------

    def minor_size(self, alpha):
        """Delta^{omega_alpha} is the leading principal minor of this size."""
        return alpha

    def generalized_minor(self, g, spec: MinorSpec):
        """Delta_{u omega_a, v omega_a}(g) = Delta^{omega_a}(ubar^{-1} g vbar)."""
        ub_inv = self.wbar_inverse(spec.u.canonical)
        vb = self.wbar_element(spec.v)
        entries = g.entries if isinstance(g, GroupElement) else g
        shifted = mat_mul(mat_mul(ub_inv.entries, entries), vb.entries)
        return leading_minor(shifted, self.minor_size(spec.alpha))


def _elem(n, i, j):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[i - 1][j - 1] = Fraction(1)
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
