"""Polynomial gcds modulo a word-size prime: the modular layer of ``symbolic.poly_gcd``.

Polynomials here are plain data, with integer residues mod a prime p: a
dict from exponent tuples to residues, or, one variable at a time (the
``at`` form), a dict from the exponents of x_1..x_{k-1} to the coefficient
list (lowest degree first) in x_k.  Nothing here knows ``MultiPoly``:
``symbolic`` picks the primes and points, lifts the images to the integers
by CRT and proves each candidate gcd by exact division.
"""

import random
from functools import reduce

PRIMES = [2**31 - 1]  # word-size primes, descending, found as the modular gcd needs them


def new_rng():
    """The generator of one gcd's evaluation points: a fixed seed, so that each call repeats its work."""
    return random.Random(0)


def prime(i):
    """PRIMES[i]; past the end, the next number down that passes the strong tests to bases 2, 3, 5 and 7."""
    while len(PRIMES) <= i:
        p = PRIMES[-1] - 2
        while not all(_strong_test(p, a) for a in (2, 3, 5, 7)):
            p -= 2
        PRIMES.append(p)
    return PRIMES[i]


def _strong_test(n, a):
    """Whether odd n passes the strong (Miller-Rabin) test to base a; to bases 2, 3, 5, 7 no composite below 3.2e9 does."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    return pow(a, (n - 1) >> s, n) == 1 or n - 1 in {pow(a, (n - 1) >> r, n) for r in range(1, s + 1)}


def degree_bounds(terms, degs, shared, p, rng):
    """Bounds on the degree of the gcd of the terms in each shared slot, from images mod p at a random point.

    The image in a variable bounds its degree when both leading coefficients
    survive; None if one vanishes.  Each variable is scaled by its coordinate,
    which moves no degree of a gcd, so one value per term serves every slot.
    """
    point = [rng.randrange(1, p) for _ in degs[0]]
    images = [[[0] * (d[i] + 1) for i in shared] for d in degs]
    for t, xs in zip(terms, images):
        for e, c in image(t, point, p, tuple).items():
            for x, i in zip(xs, shared):
                x[e[i]] += c
    if not all(x[-1] % p for xs in images for x in xs):
        return None
    return {i: len(gcd_mod_1([c % p for c in a], [c % p for c in b], p)) - 1 for i, a, b in zip(shared, *images)}


def image(terms, point, p, key):
    """terms with every variable at point, mod p, summed by key(exponent)."""
    out = {}
    for e, c in terms.items():
        for a, d in zip(point, e):
            if d and a != 1:
                c = c * pow(a, d, p) % p
        e = key(e)
        out[e] = (out.get(e, 0) + c) % p
    return out


def gcd_mod(fs, gs, p, bounds, rng):
    """A gcd mod p of fs and gs in the ``at`` form over x_1..x_k: exponents to residues, or None if unlucky.

    bounds are its degrees, and rng draws the points.  Brown's recursion:
    with c the gcd of the contents in x_k and gamma that of the leading
    coefficients, each image at a random x_k = a, scaled to lead with
    gamma(a), is one Newton step towards gamma/lc * gcd, whose primitive part
    times c is the gcd.  An image of the wrong degree means an unlucky point.
    Past the first image in three or more variables, ``_sparse_mod`` takes
    the support of the first (Zippel 1979), so the work grows with its terms
    rather than exponentially in k; the recursion runs only where that does
    not fix the image.
    """
    if not fs or not gs:
        return None
    if len(bounds) == 1:
        h = gcd_mod_1(fs[()], gs[()], p)
        return {(i,): c for i, c in enumerate(h) if c} if len(h) == bounds[0] + 1 else None
    content = lambda xs: [1] if any(len(x) == 1 for x in xs) else reduce(lambda a, b: gcd_mod_1(a, b, p), xs)
    cont, gamma = content([*fs.values(), *gs.values()]), gcd_mod_1(fs[max(fs)], gs[max(gs)], p)
    acc, q = {}, [1]
    while len(q) < len(gamma) + bounds[-1] - len(cont) + 2:
        a = rng.randrange(p)
        ga, qa = _horner(gamma, a, p), _horner(q, a, p)
        if ga and qa:
            images = at(fs, a, p), at(gs, a, p)
            h = (len(bounds) > 3 and acc and _sparse_mod(*images, p, list(acc), rng)) or gcd_mod(*images, p, bounds[:-1], rng)
            if h is None:
                return None
            lc = h[max(h)]
            inv = pow(lc * qa, -1, p)
            for e in h.keys() | acc.keys():
                x = acc.get(e, [])
                u = (ga * h.get(e, 0) - lc * _horner(x, a, p)) * inv % p
                if u:
                    acc[e] = [(y + u * z) % p for y, z in zip(x + [0] * (len(q) - len(x)), q)]
            q = [(y - a * z) % p for y, z in zip([0] + q, q + [0])]
    # a constant gamma leaves the gcd's own content, c
    unit, rem = _divmod_mod(content(list(acc.values())), cont, p) if len(gamma) > 1 else ([1], [])
    if len(unit) > 1:
        acc = {e: _divmod_mod(x, unit, p)[0] for e, x in acc.items()}
    out = {e + (i,): y for e, x in acc.items() for i, y in enumerate(x) if y}
    return out if not rem and max(e[-1] for e in out) == bounds[-1] else None


def _sparse_mod(fs, gs, p, support, rng):
    """A gcd mod p of fs and gs in the ``at`` form with the given support, lex-leading with 1, or None.

    For i = 1..t, t the size of the support, set x_j = b_j^i for j > 1 at a
    random point b: each monomial s takes the value mu_s^i, and the monic gcd
    in x_1 of the two images holds the gcd's coefficient of each power of
    x_1 over that of the highest.  The equations are linear in the t
    coefficients, the lex-leading one is 1, and there are at least t of
    them; None if they leave more than one solution (a content in x_2.., or
    an unlucky point) or none (a wrong support).
    """
    support = sorted(support, reverse=True)
    d, b = support[0][0], [rng.randrange(1, p) for _ in support[0][1:]]
    mono = lambda e: reduce(lambda x, y: x * y % p, map(pow, b, e[1:], [p] * len(b)), 1)
    terms = [[(e[0], c, mono((*e, j))) for e, x in t.items() for j, c in enumerate(x) if c] for t in (fs, gs)]
    mus, rows = [mono(s) for s in support], []
    for i in range(1, len(support) + 1):
        images = [[0] * (1 + max(t, default=(0,))[0]) for t in terms]
        for t, x in zip(terms, images):
            for e, c, m in t:
                x[e] += c * pow(m, i, p)
            x[:] = [c % p for c in x]
            while x and not x[-1]:
                x.pop()
        h = gcd_mod_1(*images, p) if all(images) else []
        if len(h) != d + 1:
            return None
        w = [pow(m, i, p) for m in mus]
        rows += [[(x * (s[0] == j) - h[j] * x * (s[0] == d)) % p for s, x in zip(support, w)] for j in range(d)]
    c = _solve_mod(rows, p)
    return None if c is None else {s: x for s, x in zip(support, c) if x}


def _solve_mod(rows, p):
    """The one c with c[0] = 1 and rows . c = 0 mod p, by Gauss-Jordan elimination; None if none or many."""
    a, n = [r[1:] + [-r[0] % p] for r in rows], len(rows[0]) - 1
    for i in range(n):
        j = next((j for j in range(i, len(a)) if a[j][i]), None)
        if j is None:
            return None
        a[i], a[j] = a[j], a[i]
        inv = pow(a[i][i], -1, p)
        a[i] = [x * inv % p for x in a[i]]
        for j, r in enumerate(a):
            if j != i and r[i]:
                a[j] = [(x - r[i] * y) % p for x, y in zip(r, a[i])]
    return None if any(r[-1] for r in a[n:]) else [1] + [r[-1] for r in a[:n]]


def at(fs, a, p):
    """fs, from exponents in x_1..x_{k-1} to coefficient lists in x_k, at x_k = a, in the same form one level down."""
    out = {}
    for e, x in fs.items():
        if c := _horner(x, a, p):
            y = out.setdefault(e[:-1], [])
            y.extend([0] * (e[-1] + 1 - len(y)))
            y[e[-1]] = c
    return out


def _horner(a, x, p):
    """The coefficient list a (lowest degree first) at x, mod p."""
    v = a[-1] if a else 0
    for c in a[-2::-1]:
        v = (v * x + c) % p
    return v


def _divmod_mod(a, b, p):
    """Quotient and remainder of coefficient lists (lowest degree first, b[-1] nonzero) mod p."""
    r, n = list(a), len(b) - 1
    q = [0] * max(len(r) - n, 0)
    inv = pow(b[-1], -1, p) if q else 0
    for i in reversed(range(len(q))):
        q[i] = t = r[i + n] * inv % p
        for j, x in enumerate(b):
            r[i + j] = (r[i + j] - t * x) % p
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r


def gcd_mod_1(a, b, p):
    """The monic gcd of nonzero coefficient lists (lowest degree first) mod p."""
    while len(b) > 1:
        a, b = b, _divmod_mod(a, b, p)[1]
    if b:
        return [1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]
