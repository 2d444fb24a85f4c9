"""Root systems of series A_n and C_2, weights, and Weyl-group combinatorics.

Conventions.  Weights live in the fundamental-weight basis, so the j-th
coefficient of a weight is its pairing with the j-th simple coroot.  The
Cartan matrix is stored with ``cartan[i][j] = alpha_j(alpha_i^vee)``, which
makes the simple roots its columns.  Coweights live in the basis dual to the
simple roots.  The invariant form is normalized so short roots have squared
length 2 (series A: all roots; series C_2: alpha_1).

Roots, fundamental weights, their Weyl images and the coweights a# of roots
and weights are integral in these bases (Humphreys, Introduction to Lie
Algebras and Representation Theory, 13), so Weight and Coweight keep each
integral coefficient as an ``int`` and only a genuinely rational one, such
as that of a coweight's preimage under #, as a ``Fraction``.

There is one Weyl action, on weights.  # is W-equivariant, w(lam#) = (w lam)#,
so a coweight is acted on through the weight it is the # of
(``act_coweight``), and the simple coroot alpha_i^vee is ``omega_dual(i)``.

A Weyl element w is stored as the integer tuple w(rho), the coefficients of
w applied to rho = omega_1 + ... + omega_r.  rho is regular, so w(rho)
determines w, and s_i w is shorter than w exactly when coefficient i of
w(rho) is negative (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2005).
Peeling the first negative coefficient, letter by letter, reads off the
lexicographically least reduced word.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .errors import NonReducedWord, UnsupportedSeries
from .laurent import _exact
from .linalg import rational_inverse

_Q0 = Fraction(0)


def _ratio(num, den):
    """num/den for ints, as an int when den divides num and a Fraction otherwise."""
    return num // den if num % den == 0 else Fraction(num, den)


class _Lattice:
    """A coefficient tuple with the arithmetic that weights and coweights share.

    Each coefficient is stored as ``laurent._exact`` stores one: an ``int``
    where it is integral and a ``Fraction`` only where it is not.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(c if type(c) is int else _exact(Fraction(c)) for c in coeffs)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return type(self)(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return type(self)(map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return type(self)(-a for a in self.coeffs)

    def __mul__(self, c):
        return type(self)(a * c for a in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"


class Weight(_Lattice):
    """Element of the rational span of the weight lattice, fundamental-weight basis."""

    __slots__ = ()


class Coweight(_Lattice):
    """Element of the rational Cartan subalgebra, fundamental-coweight basis."""

    __slots__ = ()


class WeylElement:
    """Weyl group element: its weight w(rho) as an integer tuple, and its
    lexicographically least reduced word.

    ``rho`` is the equality and hash key; coefficient i of it is negative
    exactly when s_i w is shorter than w.
    """

    __slots__ = ("rs", "canonical", "rho", "_len")

    def __init__(self, rs, canonical, rho):
        self.rs = rs
        self.canonical = canonical
        self.rho = rho
        self._len = len(canonical)

    def length(self):
        return self._len

    def is_identity(self):
        return self._len == 0

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.rho == other.rho and self.rs is other.rs

    def __hash__(self):
        return hash(self.rho)

    def inverse(self):
        return self.rs.inverse(self)

    def __repr__(self):
        return f"W[{'.'.join('s%d' % i for i in self.canonical) or 'e'}]"


class RootSystem:
    """Cartan data for series A (any rank >= 1) and C (rank 2)."""

    def __init__(self, series, rank):
        if series == "A" and rank >= 1:
            cartan = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                cartan[i][i] = 2
                if i + 1 < rank:
                    cartan[i][i + 1] = -1
                    cartan[i + 1][i] = -1
            norms2 = [2] * rank
        elif series == "C" and rank == 2:
            # cartan[i][j] = alpha_j(alpha_i^vee); alpha_1 short, alpha_2 long
            cartan = [[2, -2], [-1, 2]]
            norms2 = [2, 4]
        else:
            raise UnsupportedSeries(f"series {series!r} rank {rank} not supported")
        self.series = series
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in cartan)
        self._half_norms2 = tuple(n // 2 for n in norms2)
        self._cartan_inv = rational_inverse(self.cartan)
        # simple-root coordinates of a weight: an integer matrix times its
        # fundamental-weight coefficients, over one common denominator
        self._root_den = lcm(*(x.denominator for row in self._cartan_inv for x in row))
        self._root_num = tuple(
            tuple(int(x * self._root_den) for x in row) for row in self._cartan_inv
        )
        self._root_coords_cache = {}
        # form[i][j] = <alpha_i, alpha_j> = cartan[i][j] * norms2[i] / 2
        d = self._half_norms2
        self.form = tuple(tuple(self.cartan[i][j] * d[i] for j in range(rank)) for i in range(rank))
        # Gram matrix of fundamental weights: G = D * M^{-1} with D = diag(norms2/2),
        # M the matrix whose columns are the simple roots.
        self._gram_fw = tuple(
            tuple(d[i] * self._cartan_inv[i][j] for j in range(rank)) for i in range(rank)
        )
        self.simple_roots = tuple(
            Weight(self.cartan[i][j] for i in range(rank)) for j in range(rank)
        )
        # alpha_i as an integer tuple, for reflecting weights and w(rho)
        self._alpha_int = tuple(tuple(self.cartan[j][i] for j in range(rank)) for i in range(rank))
        rho = (1,) * rank
        self.identity = WeylElement(self, (), rho)
        self._element_cache = {rho: self.identity}
        self._rw_cache = {}
        self._word_cache = {}
        self.positive_roots = self._positive_roots()
        self.l0 = len(self.positive_roots)
        self.w0 = self.element_from_rho(tuple(-c for c in rho))
        self.w0_word = self.w0.canonical
        self._star = tuple(self._compute_star(i) for i in range(1, rank + 1))

    # -- construction helpers ------------------------------------------------

    def _positive_roots(self):
        found = {}
        frontier = list(self.simple_roots)
        for r in frontier:
            found[r.coeffs] = r
        while frontier:
            new = []
            for r in frontier:
                for j in range(self.rank):
                    img = self.reflect(j + 1, r)
                    if img.coeffs not in found and self._is_positive_root_vec(img):
                        found[img.coeffs] = img
                        new.append(img)
            frontier = new
        roots = list(found.values())
        roots.sort(key=lambda r: (sum(self._root_coords(r)), self._root_coords(r)))
        return tuple(roots)

    def _root_coords(self, w):
        """Coefficients of a weight in the simple-root basis, in integer arithmetic (memoized)."""
        got = self._root_coords_cache.get(w.coeffs)
        if got is None:
            d = lcm(*(c.denominator for c in w.coeffs))
            ints = [c.numerator * (d // c.denominator) for c in w.coeffs]
            den = self._root_den * d
            got = tuple(Fraction(sum(a * c for a, c in zip(row, ints)), den) for row in self._root_num)
            self._root_coords_cache[w.coeffs] = got
        return got

    def _is_positive_root_vec(self, w):
        return all(c >= 0 for c in self._root_coords(w))

    # -- weight calculus -----------------------------------------------------

    def fundamental_weight(self, i):
        return Weight(int(j == i - 1) for j in range(self.rank))

    def simple_root(self, i):
        return self.simple_roots[i - 1]

    def pairing(self, lam, mu):
        """Invariant symmetric bilinear form on weights."""
        return sum(
            a * b * self._gram_fw[i][j]
            for i, a in enumerate(lam.coeffs)
            for j, b in enumerate(mu.coeffs)
            if a and b
        ) or _Q0

    def sharp(self, lam):
        """The coweight lam# with mu(lam#) = <lam, mu> for all weights mu."""
        return Coweight(map(mul, lam.coeffs, self._half_norms2))

    def evaluate(self, lam, h):
        """Pairing lam(h) of a weight with a coweight."""
        return sum(c * x for c, x in zip(self._root_coords(lam), h.coeffs)) or _Q0

    def evaluate_tuples(self, lams, hs):
        """Pairing of a tuple of weights with a tuple of coweights, factor by factor."""
        return sum(self.evaluate(lam, h) for lam, h in zip(lams, hs)) or _Q0

    def evaluate_table(self, lam_tuples, h_tuples):
        """[[evaluate_tuples(lams, hs) for hs in h_tuples] for lams in lam_tuples], in integers.

        The simple-root coordinates of the weights and the coefficients of
        the coweights are each brought over the lcm of their denominators
        once, so every entry is one integer dot product over d1 * d2, kept
        as an int when d1 * d2 divides it.
        """
        roots = [[c for lam in lams for c in self._root_coords(lam)] for lams in lam_tuples]
        cows = [[c for h in hs for c in h.coeffs] for hs in h_tuples]
        d1 = lcm(*(c.denominator for row in roots for c in row))
        d2 = lcm(*(c.denominator for row in cows for c in row))
        a = [[c.numerator * (d1 // c.denominator) for c in row] for row in roots]
        b = [[c.numerator * (d2 // c.denominator) for c in row] for row in cows]
        den = d1 * d2
        return [[_ratio(sum(map(mul, x, y)), den) for y in b] for x in a]

    def fundamental_coweight(self, i):
        """Dual basis to the simple roots: alpha_j(f_i) = delta_ij."""
        return Coweight(int(j == i - 1) for j in range(self.rank))

    def omega_dual(self, i):
        """Dual basis to the fundamental weights, omega_j(omega_i*) = delta_ij: the simple coroot alpha_i^vee."""
        return Coweight(self.cartan[i - 1][j] for j in range(self.rank))

    def inv_gram_pairs(self):
        """The form tensor sum_q H_q (x) H_q as exact (Coweight, Coweight) pairs.

        The fundamental coweights f_a are the basis dual to the simple roots,
        so alpha_a# = sum_b <alpha_a, alpha_b> f_b and the tensor
        sum_a f_a (x) alpha_a# is sum_ab form[a][b] f_a (x) f_b.
        """
        f = [self.fundamental_coweight(a + 1) for a in range(self.rank)]
        return [(f[a] * x, f[b]) for a, row in enumerate(self.form) for b, x in enumerate(row) if x]

    # -- Weyl action ---------------------------------------------------------

    def _reflect_coeffs(self, i, coeffs):
        """s_i on a weight's coefficient tuple; integers stay integers."""
        c = coeffs[i - 1]
        return tuple(x - c * a for x, a in zip(coeffs, self._alpha_int[i - 1]))

    def reflect(self, i, lam):
        """Simple reflection s_i on a weight: lam - lam(alpha_i^vee) alpha_i."""
        if lam.coeffs[i - 1] == 0:
            return lam
        return Weight(self._reflect_coeffs(i, lam.coeffs))

    def act_word(self, word, lam):
        """Apply a word right-to-left: act((i,j), lam) = s_i(s_j(lam)), on the coefficient tuple; lam itself if no
        letter moves it."""
        coeffs = lam.coeffs
        for i in reversed(word):
            if coeffs[i - 1]:
                coeffs = self._reflect_coeffs(i, coeffs)
        return lam if coeffs is lam.coeffs else Weight(coeffs)

    def act(self, w, lam):
        """Apply a WeylElement through its canonical word."""
        return self.act_word(w.canonical, lam)

    def act_coweight(self, w, h):
        """w on a coweight, through the weight action: w(lam#) = (w lam)#, since # is W-equivariant."""
        return self.sharp(self.act(w, Weight(map(Fraction, h.coeffs, self._half_norms2))))

    # -- elements ------------------------------------------------------------

    def element_from_rho(self, rho):
        """The element w with weight w(rho) = ``rho``, an integer tuple.

        Its canonical word peels the first negative coefficient, the smallest
        left descent, until it reaches an element already known.  A tuple
        outside the orbit of rho raises AssertionError.
        """
        got = self._element_cache.get(rho)
        if got is not None:
            return got
        word = []
        lam = rho
        while lam not in self._element_cache:
            i = next((k for k, c in enumerate(lam, start=1) if c < 0), None)
            if i is None:
                raise AssertionError(f"{rho} is not the weight w(rho) of a Weyl element")
            word.append(i)
            lam = self._reflect_coeffs(i, lam)
        el = WeylElement(self, tuple(word) + self._element_cache[lam].canonical, rho)
        self._element_cache[rho] = el
        return el

    def _act_rho(self, word, rho):
        """Apply a word right-to-left to an integer weight tuple."""
        for i in reversed(word):
            rho = self._reflect_coeffs(i, rho)
        return rho

    def element_from_word(self, word):
        """The element of a sequence of letters, memoized by its tuple; a letter that is not an int in range is refused every time.

        The type test comes before the memo, where (1.0,) and (True,) would find the entry of (1,).
        """
        word = tuple(word)
        if set(map(type, word)) - {int}:
            raise TypeError(f"letters of {word} must be ints")
        got = self._word_cache.get(word)
        if got is None:
            for i in word:
                if not 1 <= i <= self.rank:
                    raise ValueError(f"letter {i} out of range")
            got = self.element_from_rho(self._act_rho(word, self.identity.rho))
            self._word_cache[word] = got
        return got

    def is_reduced(self, word):
        return self.element_from_word(word).length() == len(word)

    def assert_reduced(self, word):
        if not self.is_reduced(word):
            raise NonReducedWord(f"word {word} is not reduced")

    def multiply(self, w1, w2):
        return self.element_from_rho(self._act_rho(w1.canonical, w2.rho))

    def inverse(self, w):
        return self.element_from_word(tuple(reversed(w.canonical)))

    def simple(self, i):
        return self.element_from_word((i,))

    # -- enumeration ----------------------------------------------------------

    def reduced_word_counts(self):
        """Number of reduced words of every w in W, keyed by the weight w(rho).

        s_i w is longer than w exactly when coefficient i of w(rho) is
        positive, so one pass over the lengths pushes each count up to the
        elements one letter longer; no word is listed.  Keys come in order of
        length.
        """
        layer = {self.identity.rho: 1}
        counts = dict(layer)
        while layer:
            longer = {}
            for lam, c in layer.items():
                for i, x in enumerate(lam, start=1):
                    if x > 0:
                        mu = self._reflect_coeffs(i, lam)
                        longer[mu] = longer.get(mu, 0) + c
            counts.update(longer)
            layer = longer
        return counts

    def has_one_reduced_word(self, w):
        """Whether w has a single reduced word, by walking its left descents (the negative coefficients of
        w(rho)): two at any step start two words, and one is peeled, since every word of w starts with it."""
        lam = w.rho
        while True:
            descents = [i for i, c in enumerate(lam, start=1) if c < 0]
            if len(descents) != 1:
                return not descents
            lam = self._reflect_coeffs(descents[0], lam)

    def all_elements(self):
        """All Weyl group elements, sorted by (length, canonical word)."""
        elements = [self.element_from_rho(rho) for rho in self.reduced_word_counts()]
        return sorted(elements, key=lambda w: (w.length(), w.canonical))

    def reduced_words(self, w):
        """All reduced words of w; the empty collection for the identity."""
        if w.is_identity():
            return []
        return list(self._reduced_words_memo(w))

    def _reduced_words_memo(self, w):
        got = self._rw_cache.get(w.rho)
        if got is not None:
            return got
        if w.is_identity():
            out = ((),)
        else:
            acc = []
            for i, c in enumerate(w.rho, start=1):
                if c < 0:
                    sw = self.element_from_rho(self._reflect_coeffs(i, w.rho))
                    acc.extend((i,) + rest for rest in self._reduced_words_memo(sw))
            out = tuple(acc)
        self._rw_cache[w.rho] = out
        return out

    # -- orders and the Demazure product --------------------------------------

    def bruhat_leq(self, y, w):
        """Bruhat order via the subword property on one reduced word of w."""
        if y.length() > w.length():
            return False
        reachable = {self.identity.rho: self.identity}
        for i in w.canonical:
            si = self.simple(i)
            additions = {}
            for el in reachable.values():
                nxt = self.multiply(el, si)
                if nxt.length() > el.length() and nxt.rho not in reachable:
                    additions[nxt.rho] = nxt
            reachable.update(additions)
        return y.rho in reachable

    def weak_leq(self, w1, w):
        """w1 precedes w in the weak order: w = w1 w2 with lengths adding."""
        w2 = self.multiply(w1.inverse(), w)
        return w1.length() + w2.length() == w.length()

    def star_product(self, w, v):
        """Demazure (monoidal) product."""
        out = w
        for i in v.canonical:
            nxt = self.multiply(out, self.simple(i))
            if nxt.length() > out.length():
                out = nxt
        return out

    # -- starred letters -------------------------------------------------------

    def _compute_star(self, i):
        img = -self.act(self.w0, self.simple_root(i))
        for j in range(1, self.rank + 1):
            if img == self.simple_root(j):
                return j
        raise AssertionError("w0 does not permute the simple roots")

    def alpha_star(self, i):
        """The index i* with alpha_{i*} = -w0(alpha_i)."""
        return self._star[i - 1]


def build_root_system(series, rank):
    """Construct Cartan data for series 'A' (rank >= 1) or 'C' (rank 2)."""
    return RootSystem(series, rank)
