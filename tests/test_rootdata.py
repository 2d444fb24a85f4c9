"""Root systems and Weyl combinatorics, checked against permutation oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from bsatlas.errors import UnsupportedSeries
from bsatlas.rootdata import Weight, build_root_system
from oracles import bruhat_leq_by_interval


def _perm_mul(p, q):
    return tuple(p[q[i] - 1] for i in range(len(q)))


def _sym_oracle_reduced_words(n, target):
    """All reduced words of a permutation in S_n by BFS over lengths."""
    simple = []
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        simple.append(tuple(p))
    ident = tuple(range(1, n + 1))
    level = {ident: [()]}
    seen = {ident: 0}
    depth = 0
    while target not in seen:
        depth += 1
        nxt = {}
        for p, words in level.items():
            for i, s in enumerate(simple, start=1):
                q = _perm_mul(p, s)
                if seen.get(q, depth) == depth:
                    seen[q] = depth
                    nxt.setdefault(q, [])
                    nxt[q].extend(w + (i,) for w in words)
        level = nxt
    return sorted(set(level[target]))


def _perm_of_word(n, word):
    p = tuple(range(1, n + 1))
    for i in word:
        s = list(range(1, n + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        p = _perm_mul(p, tuple(s))
    return p


def _mat_mul_int(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _reflection_matrix(rs, i):
    """Reference: s_i on the weight lattice as an integer matrix, fundamental-weight basis."""
    n = rs.rank
    return tuple(
        tuple(int(r == c) - (rs.cartan[r][i - 1] if c == i - 1 else 0) for c in range(n)) for r in range(n)
    )


def _action(rs, word):
    """Reference: the integer action matrix of a word, a product of reflection matrices."""
    m = tuple(tuple(int(r == c) for c in range(rs.rank)) for r in range(rs.rank))
    for i in word:
        m = _mat_mul_int(m, _reflection_matrix(rs, i))
    return m


def _apply(m, lam):
    return Weight(sum(x * c for x, c in zip(row, lam.coeffs)) for row in m)


def _canonical(rs, m):
    """Reference: the lexicographically least reduced word of an action matrix.

    Row i sums to coefficient i of w(rho), negative exactly when s_i w is
    shorter; peel the first such i until the identity is reached.
    """
    ident = _action(rs, ())
    word = []
    while m != ident:
        i = next(r for r, row in enumerate(m, start=1) if sum(row) < 0)
        word.append(i)
        m = _mat_mul_int(_reflection_matrix(rs, i), m)
    return tuple(word)


def _reference_elements(rs):
    """Reference: every action matrix by a walk over right multiplication, as
    canonical words sorted by (length, word)."""
    seen = {_action(rs, ())}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for i in range(1, rs.rank + 1):
                nxt = _mat_mul_int(m, _reflection_matrix(rs, i))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return sorted((_canonical(rs, m) for m in seen), key=lambda w: (len(w), w))


SMALL = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2))


@pytest.mark.parametrize("series,rank", SMALL)
def test_weyl_elements_match_the_matrix_reference(series, rank):
    """Canonical words, w0, the order of all_elements and act agree with the
    integer reflection-matrix product."""
    rs = build_root_system(series, rank)
    elements = rs.all_elements()
    ref = _reference_elements(rs)
    assert [w.canonical for w in elements] == ref
    assert rs.w0.canonical == ref[-1] and len(ref[-1]) == rs.l0
    weights = [rs.simple_root(i) for i in range(1, rank + 1)]
    weights += [rs.fundamental_weight(i) for i in range(1, rank + 1)]
    for w in elements:
        m = _action(rs, w.canonical)
        assert _canonical(rs, m) == w.canonical
        assert w.rho == tuple(sum(row) for row in m)
        for lam in weights:
            assert rs.act(w, lam) == _apply(m, lam)


@pytest.mark.parametrize("series,rank", (("A", 3), ("C", 2)))
def test_multiply_matches_the_matrix_reference(series, rank):
    rs = build_root_system(series, rank)
    elements = rs.all_elements()
    for a, b in itertools.product(elements, repeat=2):
        got = rs.multiply(a, b)
        assert _action(rs, got.canonical) == _mat_mul_int(_action(rs, a.canonical), _action(rs, b.canonical))
        assert got == rs.element_from_word(a.canonical + b.canonical)


@pytest.mark.parametrize("series,rank", (("A", 3), ("C", 2)))
def test_reduced_word_counts(series, rank):
    rs = build_root_system(series, rank)
    counts = rs.reduced_word_counts()
    elements = rs.all_elements()
    assert len(counts) == len(elements)
    for w in elements:
        assert counts[w.rho] == len(rs.reduced_words(w) or [()])


@pytest.mark.parametrize("series,rank", [("A", k) for k in range(1, 6)] + [("C", 2)])
def test_one_reduced_word_by_descents_matches_the_counts(series, rank):
    rs = build_root_system(series, rank)
    counts = rs.reduced_word_counts()
    assert [rs.has_one_reduced_word(w) for w in rs.all_elements()] == [counts[w.rho] == 1 for w in rs.all_elements()]


def test_build_root_system_examples():
    rs = build_root_system("A", 2)
    assert rs.cartan == ((2, -1), (-1, 2))
    assert rs.l0 == 3
    assert build_root_system("A", 3).l0 == 6
    c2 = build_root_system("C", 2)
    assert c2.pairing(c2.simple_root(1), c2.simple_root(1)) == 2
    assert c2.pairing(c2.simple_root(2), c2.simple_root(2)) == 4
    assert c2.pairing(c2.simple_root(1), c2.simple_root(2)) == -2
    with pytest.raises(UnsupportedSeries):
        build_root_system("C", 3)
    with pytest.raises(UnsupportedSeries):
        build_root_system("B", 2)


def test_act():
    rs = build_root_system("A", 2)
    w1 = rs.fundamental_weight(1)
    assert rs.act_word((1,), w1) == w1 - rs.simple_root(1)
    assert rs.act_word((1, 2, 1), w1) == -rs.fundamental_weight(2)
    assert rs.act_word((), w1) == w1


def test_reduce():
    rs = build_root_system("A", 2)

    def reduce(rs, word):
        el = rs.element_from_word(word)
        return el.canonical, el.length()

    assert reduce(rs, (1, 1)) == ((), 0)
    # brute force in the 6-element group: s1 s2 s1 s2 = s2 s1
    assert _perm_of_word(3, (1, 2, 1, 2)) == _perm_of_word(3, (2, 1))
    assert reduce(rs, (1, 2, 1, 2)) == ((2, 1), 2)
    rs3 = build_root_system("A", 3)
    assert reduce(rs3, (1, 2, 3)) == ((1, 2, 3), 3)


def test_enumerate_reduced_words():
    rs = build_root_system("A", 2)
    assert sorted(rs.reduced_words(rs.w0)) == [(1, 2, 1), (2, 1, 2)]
    rs3 = build_root_system("A", 3)
    words = sorted(rs3.reduced_words(rs3.w0))
    oracle = _sym_oracle_reduced_words(4, tuple(reversed(range(1, 5))))
    assert len(words) == 16 and words == oracle
    rs1 = build_root_system("A", 1)
    assert rs1.reduced_words(rs1.w0) == [(1,)]
    assert rs1.reduced_words(rs1.identity) == []


def test_longest_element():
    assert build_root_system("A", 1).w0.canonical == (1,)
    rs3 = build_root_system("A", 3)
    assert rs3.w0.length() == 6
    # w0 reverses (1,2,3,4)
    assert _perm_of_word(4, rs3.w0.canonical) == (4, 3, 2, 1)
    c2 = build_root_system("C", 2)
    # brute force over the order-8 group: max length is 4
    lengths = {w.length() for w in c2.all_elements()}
    assert max(lengths) == 4 and c2.w0.length() == 4
    assert c2.w0.canonical == (1, 2, 1, 2)


def test_orders():
    rs = build_root_system("A", 2)
    s1, s2 = rs.simple(1), rs.simple(2)
    s12 = rs.multiply(s1, s2)
    for w in rs.all_elements():
        assert rs.bruhat_leq(rs.identity, w)
        assert rs.bruhat_leq(w, w)
    assert rs.weak_leq(s1, s12)
    assert not rs.weak_leq(s2, s12)
    assert rs.bruhat_leq(s2, s12)


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("C", 2)], ids=["A1", "A2", "A3", "C2"])
def test_bruhat_leq_matches_the_lower_interval(series, rank):
    rs = build_root_system(series, rank)
    elements = rs.all_elements()
    for y, w in itertools.product(elements, repeat=2):
        assert rs.bruhat_leq(y, w) == bruhat_leq_by_interval(rs, y, w), (y, w)


def test_star_product():
    rs = build_root_system("A", 2)
    s1 = rs.simple(1)
    for w in rs.all_elements():
        assert rs.star_product(w, rs.identity) == w
        assert rs.star_product(w, rs.w0) == rs.w0
    assert rs.star_product(s1, s1) == s1


def test_star_product_associative_exhaustive():
    for series, rank in (("A", 2), ("A", 3), ("C", 2)):
        rs = build_root_system(series, rank)
        els = rs.all_elements()
        for a, b, c in itertools.product(els, repeat=3):
            assert rs.star_product(rs.star_product(a, b), c) == rs.star_product(
                a, rs.star_product(b, c)
            )


def test_weight_calculus():
    rs = build_root_system("A", 2)
    assert rs.alpha_star(1) == 2 and rs.alpha_star(2) == 1
    a1 = rs.simple_root(1)
    assert rs.pairing(a1, a1) == 2
    assert rs.evaluate(a1, rs.sharp(a1)) == 2
    assert rs.evaluate(a1, rs.omega_dual(1)) == 2
    # sharp defining identity on all basis weights
    for i in range(1, 3):
        for j in range(1, 3):
            lam, mu = rs.fundamental_weight(i), rs.fundamental_weight(j)
            assert rs.evaluate(mu, rs.sharp(lam)) == rs.pairing(lam, mu)
    c2 = build_root_system("C", 2)
    assert c2.alpha_star(1) == 1 and c2.alpha_star(2) == 2


def test_reduced_word_consistency():
    for series, rank in (("A", 2), ("A", 3), ("C", 2)):
        rs = build_root_system(series, rank)
        for w in rs.all_elements():
            if w.is_identity():
                continue
            words = rs.reduced_words(w)
            assert len(set(words)) == len(words)
            for word in words:
                assert rs.element_from_word(word) == w
                assert len(word) == w.length()


def test_length_is_number_of_inversions():
    """l(w) = #{beta > 0 : w(beta) < 0}, and the word acts like the reference matrix."""
    for series, rank in (("A", 4), ("C", 2)):
        rs = build_root_system(series, rank)
        rho = rs.fundamental_weight(1)
        for i in range(2, rank + 1):
            rho = rho + rs.fundamental_weight(i)
        elements = rs.all_elements()
        assert len(elements) == {"A": 120, "C": 8}[series]
        negatives = {(-b).coeffs for b in rs.positive_roots}
        for w in elements:
            inversions = sum(rs.act(w, b).coeffs in negatives for b in rs.positive_roots)
            assert len(w.canonical) == inversions
            assert rs.act_word(w.canonical, rho) == _apply(_action(rs, w.canonical), rho)


def test_w0_involution_and_star_roots():
    for series, rank in (("A", 2), ("A", 3), ("C", 2)):
        rs = build_root_system(series, rank)
        for i in range(1, rank + 1):
            lam = rs.fundamental_weight(i)
            assert rs.act(rs.w0, rs.act(rs.w0, lam)) == lam
            assert rs.act(rs.w0, rs.simple_root(i)) == -rs.simple_root(rs.alpha_star(i))


def test_pairing_invariance_exhaustive():
    for series, rank in (("A", 2), ("A", 3), ("C", 2)):
        rs = build_root_system(series, rank)
        roots = [rs.simple_root(i) for i in range(1, rank + 1)]
        for w in rs.all_elements():
            for a in roots:
                for b in roots:
                    assert rs.pairing(rs.act(w, a), rs.act(w, b)) == rs.pairing(a, b)


def test_coweight_action_duality():
    rs = build_root_system("C", 2)
    h = rs.sharp(rs.fundamental_weight(1)) + rs.omega_dual(2) * Fraction(1, 3)
    for w in rs.all_elements():
        for i in range(1, 3):
            lam = rs.fundamental_weight(i)
            lhs = rs.evaluate(lam, rs.act_coweight(w, h))
            rhs = rs.evaluate(rs.act(w.inverse(), lam), h)
            assert lhs == rhs


_SERIES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2)]


@pytest.mark.parametrize("series, rank", _SERIES)
def test_coweight_action_is_the_sharp_of_the_weight_action(series, rank):
    """w(lam#) = (w lam)# for every w and every positive root and fundamental weight lam: # is W-equivariant,
    which is what lets RootSystem keep one Weyl action."""
    rs = build_root_system(series, rank)
    weights = list(rs.positive_roots) + [rs.fundamental_weight(i) for i in range(1, rank + 1)]
    for w in rs.all_elements():
        for lam in weights:
            assert rs.act_coweight(w, rs.sharp(lam)) == rs.sharp(rs.act(w, lam)), (w, lam)


@pytest.mark.parametrize("series, rank", _SERIES)
def test_omega_dual_is_the_simple_coroot(series, rank):
    """omega_dual(i) takes alpha_i to 2 and omega_j to delta_ij, so it is the simple coroot alpha_i^vee."""
    rs = build_root_system(series, rank)
    for i in range(1, rank + 1):
        h = rs.omega_dual(i)
        assert rs.evaluate(rs.simple_root(i), h) == 2
        for j in range(1, rank + 1):
            assert rs.evaluate(rs.fundamental_weight(j), h) == int(i == j)


def _fraction_inverse(m):
    """Inverse of a square matrix by Gauss-Jordan elimination in Fractions."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@pytest.mark.parametrize("series, rank", _SERIES + [("A", 6)])
def test_inv_gram_pairs_inverts_the_coweight_gram_matrix(series, rank):
    """inv_gram_pairs is sum_ab (Gram^-1)_ab f_a (x) f_b for the Gram matrix of the fundamental coweights f_a,
    pair for pair.  f_a = (omega_a / d_a)# with d_a = <alpha_a, alpha_a> / 2, so
    <f_a, f_b> = <omega_a, omega_b> / (d_a d_b)."""
    rs = build_root_system(series, rank)
    omega = [rs.fundamental_weight(a) for a in range(1, rank + 1)]
    f = [rs.fundamental_coweight(a) for a in range(1, rank + 1)]
    d = [rs.pairing(rs.simple_root(a), rs.simple_root(a)) / 2 for a in range(1, rank + 1)]
    assert all(rs.sharp(om) * (1 / da) == fa for om, da, fa in zip(omega, d, f))
    gram = [[rs.pairing(omega[a], omega[b]) / (d[a] * d[b]) for b in range(rank)] for a in range(rank)]
    inv = _fraction_inverse(gram)
    want = [(f[a] * inv[a][b], f[b]) for a in range(rank) for b in range(rank) if inv[a][b]]
    assert rs.inv_gram_pairs() == want


def test_root_coords_solve_the_cartan_system():
    rng = random.Random(11)
    for series, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 5), ("C", 2)):
        rs = build_root_system(series, rank)
        weights = list(rs.positive_roots) + [rs.fundamental_weight(i) for i in range(1, rank + 1)]
        weights += [Weight(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)) for _ in range(5)]
        for lam in weights:
            coords = rs._root_coords(lam)
            assert all(type(c) is Fraction for c in coords)
            total = Weight([0] * rank)
            for i, c in enumerate(coords, start=1):
                total = total + Weight(c * x for x in rs.simple_root(i).coeffs)
            assert total == lam


def _fraction_reflect(alpha, i, coeffs):
    """s_i on a coefficient tuple in Fraction arithmetic: lam - lam(alpha_i^vee) alpha_i."""
    c = Fraction(coeffs[i - 1])
    return tuple(Fraction(x) - c * a for x, a in zip(coeffs, alpha[i - 1]))


def _assert_int_coeffs(got, want):
    assert all(type(c) is int for c in got.coeffs), got
    assert got.coeffs == tuple(want), (got, want)


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2)])
def test_root_and_coweight_coefficients_are_ints(series, rank):
    """Roots, their reflections and the coweights of roots and fundamental weights store int coefficients.

    Each equals the value the same formula gives in Fraction arithmetic,
    with the Cartan columns as simple roots and half squared lengths 1
    (series A) or 1, 2 (series C).
    """
    rs = build_root_system(series, rank)
    alpha = [tuple(Fraction(rs.cartan[k][i]) for k in range(rank)) for i in range(rank)]
    half = [Fraction(1)] * rank if series == "A" else [Fraction(1), Fraction(2)]
    coroot = [[a * d / half[i] for a, d in zip(alpha[i], half)] for i in range(rank)]
    roots = set(alpha)
    frontier = list(alpha)
    while frontier:
        images = {_fraction_reflect(alpha, i, b) for b in frontier for i in range(1, rank + 1)}
        frontier = [r for r in images if r not in roots]
        roots.update(frontier)
    assert len(rs.positive_roots) == len(roots) // 2
    for i in range(1, rank + 1):
        _assert_int_coeffs(rs.simple_root(i), alpha[i - 1])
        _assert_int_coeffs(rs.omega_dual(i), coroot[i - 1])
        _assert_int_coeffs(rs.omega_dual(i), [Fraction(x) for x in rs.cartan[i - 1]])
        _assert_int_coeffs(rs.fundamental_coweight(i), [Fraction(int(j == i - 1)) for j in range(rank)])
    for beta in rs.positive_roots:
        assert beta.coeffs in roots
        _assert_int_coeffs(beta, beta.coeffs)
        sharp = [Fraction(b) * d for b, d in zip(beta.coeffs, half)]
        _assert_int_coeffs(rs.sharp(beta), sharp)
        for i in range(1, rank + 1):
            _assert_int_coeffs(rs.reflect(i, beta), _fraction_reflect(alpha, i, beta.coeffs))
            _assert_int_coeffs(
                rs.act_coweight(rs.simple(i), rs.sharp(beta)),
                [h - sharp[i - 1] * c for h, c in zip(sharp, coroot[i - 1])],
            )
