"""Bott-Samelson atlases on G/B(v) and G/N(v).

A chart is indexed by w in W together with a triple of reduced words
r = (w0_word, w_word, v_word) for (w0 w^{-1}, w, v).  The chart covers the
shifted big cell w B^- B / Q.  Its representative is built on Laurent
values, each monomial packed in one int key, when first read: column
updates of a partial product by the letters of each word, a Gauss
elimination whose pivots are monomials, and a torus scaling.  Charts are
values, never cached; a space keeps the heads its charts share.  The
RatFunc form (``Chart.param``) is formed only when it is read.  Its
coordinates are generalized minors of the three factors of the normal form
wbar * m * n * t, each one signed minor of one factor (``Chart.minors``),
read as one quotient straight off one fraction-free elimination without
forming the factors; a coordinate change feeds the stored Laurent
representative to that elimination, and the bracket engine reads the
coordinates with their tangents off its Laurent factors
(``coordinate_jets``).
"""

from __future__ import annotations

from .errors import NotInBigCell, NotInChartDomain
from .groups import GroupElement, GroupModel, MinorSpec
from .laurent import laurent_shift, pack_exponent
from .linalg import laurent_lower_factor, laurent_lower_inverse, ltu_minors, minor_tangents
from .symbolic import VarName, from_laurent


class SpaceSpec:
    """A homogeneous space G/B(v) or G/N(v).

    ``heads`` keeps L(x)^{-1} g2 by (w0_word, w_word) for the charts of every v word (``_head``), or is None
    where v has one reduced word; that is read off v's left descents, and no word is listed or counted
    (w0 of SL(7) has over 10^9)."""

    __slots__ = ("model", "qkind", "v", "heads")

    def __init__(self, model: GroupModel, qkind, v):
        if qkind not in ("Bv", "Nv"):
            raise ValueError("qkind must be 'Bv' or 'Nv'")
        self.model = model
        self.qkind = qkind
        self.v = v
        self.heads = None if model.rs.has_one_reduced_word(v) else {}

    def dims(self):
        rs = self.model.rs
        l = rs.l0 + self.v.length()
        return l + (rs.rank if self.qkind == "Nv" else 0)

    def key(self):
        return (self.model.name, self.qkind, self.v.canonical)

    def same_space(self, other):
        return self.key() == other.key()

    def __repr__(self):
        vw = ".".join(f"s{i}" for i in self.v.canonical) or "e"
        return f"SpaceSpec({self.model.name}/{self.qkind}[{vw}])"


class ChartSpec:
    """Discrete chart data: w plus the triple of reduced words.

    ``ChartSpec(space, w, r)`` takes its words from outside the program (the CLI's ``--r``, repro cases, callers)
    and refuses any that is not a reduced word of its element; ``enumerate_charts`` lists words that are reduced
    by construction and stores them through ``_listed`` with no lookup."""

    __slots__ = ("space", "w", "r")

    @classmethod
    def _listed(cls, space, w, r):
        spec = cls.__new__(cls)
        spec.space, spec.w, spec.r = space, w, r
        return spec

    def __init__(self, space: SpaceSpec, w, r):
        rs = space.model.rs
        w0_word, w_word, v_word = (tuple(x) for x in r)
        # a prefix of a reduced word of w0 is reduced, so w0_word is one of w0 w^{-1}; a root system makes
        # one object per element (element_from_rho), so identity is equality
        for word, el in ((w0_word + w_word, rs.w0), (w_word, w), (v_word, space.v)):
            if len(word) != el.length() or rs.element_from_word(word) is not el:
                raise ValueError(f"word {word} is not a reduced word of {el!r}")
        self.space = space
        self.w = w
        self.r = (w0_word, w_word, v_word)

    def key(self):
        return (self.space.key(), self.w.canonical, self.r)

    def label(self):
        def fmt(word):
            return ".".join(f"s{i}" for i in word) or "-"

        return f"w={'.'.join('s%d' % i for i in self.w.canonical) or 'e'}; r=({fmt(self.r[0])} | {fmt(self.r[1])} | {fmt(self.r[2])})"

    def __repr__(self):
        return f"ChartSpec({self.label()})"


class Chart:
    """A chart with its symbolic representative and coordinate recipes.

    The representative is stored once, as Laurent values: ``rep[i][j]`` is a
    dict from packed monomial keys over ``frame`` (each variable to its slot)
    to coefficients, built from the spec when first read (``representative``).
    ``param``, the same matrix as a GroupElement of canonical RatFuncs, is
    formed when it is first read.  ``minors``, built with the chart, reads
    each coordinate as one signed minor (factor, rows, cols, sign) of the
    normal form L*N*T of wbar^{-1} g in the model's internal basis, with
    factor 0, 1, 2 for L, N, T (``signed_minors``).
    """

    __slots__ = ("spec", "dims", "zvars", "_frame", "_rep", "_param", "coord_formulas", "minors")

    def __init__(self, spec, dims, zvars, coord_formulas):
        self.spec = spec
        self.dims = dims
        self.zvars = zvars
        self._frame = self._rep = self._param = None
        self.coord_formulas = coord_formulas
        self.minors = signed_minors(spec, coord_formulas)

    frame = property(lambda self: self._laurent()[0])
    rep = property(lambda self: self._laurent()[1])

    def _laurent(self):
        if self._rep is None:
            self._frame, self._rep = representative(self.spec)
        return self._frame, self._rep

    @property
    def param(self):
        """The representative as a GroupElement of canonical RatFuncs, formed on first access."""
        if self._param is None:
            entries = [[from_laurent(x, self.frame) for x in row] for row in self.rep]
            self._param = GroupElement(self.spec.space.model, entries)
        return self._param

    def torus_block(self):
        """Indices (1-based) of the Laurent coordinates (Nv torus block)."""
        rs = self.spec.space.model.rs
        l = rs.l0 + self.spec.space.v.length()
        if self.spec.space.qkind == "Nv":
            return tuple(range(l + 1, l + rs.rank + 1))
        return ()

    def __repr__(self):
        return f"Chart({self.spec.label()})"


def zvar(j):
    return VarName("z", j)


def enumerate_charts(space: SpaceSpec):
    """All chart specs of the atlas, in deterministic order: w by (length, canonical word), then the sorted words.

    No word is looked up again: each comes from ``RootSystem.reduced_words`` of its own element, and since
    l(w0 w^{-1}) + l(w) = l(w0), a reduced word of w0 w^{-1} followed by one of w is a reduced word of w0.
    """
    rs = space.model.rs
    v_words = _words_or_empty(rs, space.v)
    out = []
    for w in rs.all_elements():
        u = rs.multiply(rs.w0, w.inverse())
        for w0_word in _words_or_empty(rs, u):
            for w_word in _words_or_empty(rs, w):
                for v_word in v_words:
                    out.append(ChartSpec._listed(space, w, (w0_word, w_word, v_word)))
    return out


def _words_or_empty(rs, el):
    """Reduced words with the empty slot convention: identity contributes ()."""
    if el.is_identity():
        return [()]
    return sorted(rs.reduced_words(el))


def coordinate_formulas(spec: ChartSpec):
    """Tagged minor recipes for every coordinate of the chart.

    Tags: 'm' applies to the N^- factor, 'wmw' to wbar m wbar^{-1}, 'n' to
    the N_v factor, 't' to the torus values (Nv only).
    """
    rs = spec.space.model.rs
    w0_word, w_word, v_word = spec.r
    k = len(w0_word)
    l0 = rs.l0
    out = []
    starred = tuple(rs.alpha_star(a) for a in w0_word)
    for j in range(1, k + 1):
        u = rs.element_from_word(starred[:j])
        v = rs.element_from_word(starred[: j - 1])
        out.append(("m", MinorSpec(u, v, starred[j - 1])))
    for j in range(k + 1, l0 + 1):
        word = w_word[: j - k]
        u = rs.element_from_word(word[:-1])
        v = rs.element_from_word(word)
        out.append(("wmw", MinorSpec(u, v, word[-1])))
    for j in range(l0 + 1, l0 + len(v_word) + 1):
        word = v_word[: j - l0]
        u = rs.element_from_word(word[:-1])
        v = rs.element_from_word(word)
        out.append(("n", MinorSpec(u, v, word[-1])))
    if spec.space.qkind == "Nv":
        for i in range(1, rs.rank + 1):
            out.append(("t", i))
    return out


_FACTOR_OF_TAG = {"m": 0, "wmw": 0, "n": 1, "t": 2}


def signed_minors(spec: ChartSpec, formulas):
    """Each coordinate recipe as (factor, rows, cols, sign): sign * det factor[rows, cols], rows and cols in the
    model's internal basis (``GroupModel.to_internal``).

    A 'wmw' minor of wbar L wbar^{-1} reindexes L: with pi = W.cols and
    s_r = W.signs[pi r], (W L W^{-1})[r][c] = s_r s_c L[pi r][pi c].
    t^{omega_i} is the leading principal minor of T of size i in the model's own basis.
    """
    model = spec.space.model
    wp, pos = model.signed_perm(spec.w.canonical), model._pos
    out = []
    for tag, payload in formulas:
        if tag == "t":
            rows = cols = range(payload)
            sign = 1
        else:
            rows, cols, sign = model.minor_indices(payload)
        if tag == "wmw":
            rows, cols = tuple(wp.cols[r] for r in rows), tuple(wp.cols[c] for c in cols)
            for j in rows + cols:
                sign *= wp.signs[j]
        out.append((_FACTOR_OF_TAG[tag], tuple(pos[r] for r in rows), tuple(pos[c] for c in cols), sign))
    return out


def parametrize(spec: ChartSpec) -> Chart:
    """A new chart of spec: its coordinate recipes, with the representative built when first read (``representative``)."""
    dims = spec.space.dims()
    return Chart(spec, dims, [zvar(j) for j in range(1, dims + 1)], coordinate_formulas(spec))


def representative(spec: ChartSpec):
    """(frame, rep): the symbolic coset representative, on Laurent values over the frame z_1 .. z_dims.

    With g1, g2, g3 the one-parameter chains of the three words and
    x = g2 w0bar^{-1} g1, rep = L(x)^{-1} g2 g3 vbar^{-1} times the torus: the
    letters of the v word update a copy of the head L(x)^{-1} g2 (``_head``,
    ``GroupModel.mul_word``), and the torus shifts each column.
    """
    space = spec.space
    model = space.model
    w0_word, w_word, v_word = spec.r
    l0, dims = model.rs.l0, space.dims()
    rep = model.signed_perm(v_word).right_inv(model.mul_word(_head(space, w0_word, w_word), v_word, l0, dims))
    if space.qkind == "Nv":
        # column p times t^{x_p}, with t^{omega_i} the variable at slot l + i - 1
        l = l0 + len(v_word)
        shifts = [pack_exponent([0] * l + list(weight), dims) for weight in model.slot_weights]
        rep = [[laurent_shift(x, shift) for x, shift in zip(row, shifts)] for row in rep]
    return {zvar(j): j - 1 for j in range(1, dims + 1)}, rep


def _head(space, w0_word, w_word):
    """L(x)^{-1} g2 over the space's frame, kept in ``space.heads`` if it has them: the letters of w0_word update
    g2 w0bar^{-1} into x, and those of w_word update L^{-1}, L by an elimination whose pivots are monomials."""
    heads = {} if space.heads is None else space.heads
    got = heads.get((w0_word, w_word))
    if got is None:
        model, width = space.model, space.dims()
        one, k = {0: 1}, len(w0_word)
        g2w0 = model.signed_perm(model.rs.w0.canonical).right_inv(model.mul_word(None, w_word, k, width))
        lower = laurent_lower_factor(model.to_internal(model.mul_word(g2w0, w0_word, 0, width)), one)
        lower_inv = model.from_internal(laurent_lower_inverse(lower, one))
        got = heads[(w0_word, w_word)] = model.mul_word(lower_inv, w_word, k, width)
    return got


def eval_coordinates(chart: Chart, g):
    """Coordinates of a point g of the shifted big cell, as RatFuncs or Fractions.

    g is a Chart, read at its stored Laurent representative; a scaled point
    (m, d), the point m/d (``GroupModel.word_point``), read on its ints when m
    and d are ints and else over the frame of its entries, symbolic ones
    included; or a list of rows, of Fractions or of RatFuncs.  Every
    denominator met off the ints must be a monomial (any other raises
    NonPolynomialBracket).  wbar^{-1} g goes into the model's internal basis
    in one reindex, where ``Chart.minors`` reads every coordinate as one
    signed quotient from one fraction-free elimination
    (``linalg.ltu_minors``); no factor is formed.  Raises NotInChartDomain
    with the index of the vanishing principal minor of wbar^{-1} g when the
    point is outside the cell.
    """
    model = chart.spec.space.model
    frame = den = None
    entries = g
    if isinstance(g, Chart):
        frame, entries = g.frame, g.rep
    elif isinstance(g, tuple):
        entries, den = g
    try:
        return ltu_minors(model.internal_left_inv(chart.spec.w.canonical, entries), chart.minors, frame, den)
    except NotInBigCell as e:
        raise NotInChartDomain(e.minor_index) from None


def coordinate_jets(chart: Chart, lifted, fields):
    """(values, tangents): each coordinate and its derivative along each of ``fields`` fields, as Laurent values.

    lifted[f] is factor f of the normal form of wbar^{-1} g in the model's
    internal basis with the nonzero (field, tangent) pairs of each of its
    entries (``linalg.gauss_ltu_lift``); coordinate i, the signed minor
    ``Chart.minors[i]``, is read there with its tangents tangents[i], one
    per field, by ``linalg.minor_tangents``, which carries the sign in its
    cofactors.  The N_v coordinates are minors of N itself,
    for every v: with N = n1 n2 and n2 in N cap vbar N vbar^{-1}, each v' of
    a minor D_{u omega, v' omega} is a left prefix of the word of v, so
    v'bar^{-1} n2 v'bar lies in N, and principal minors are right-N-invariant.
    """
    values, tangents = [], []
    for f, rows, cols, sign in chart.minors:
        value, ds = minor_tangents(*lifted[f], rows, cols, fields, sign)
        values.append(value)
        tangents.append(ds)
    return values, tangents


def change_of_coordinates(src: Chart, dst: Chart):
    """Coordinates of dst expressed in the variables of src (birational), read at src's Laurent representative."""
    if not src.spec.space.same_space(dst.spec.space):
        raise ValueError("charts live on different spaces")
    return eval_coordinates(dst, src)


def t_weights(chart: Chart):
    """T-weight of each coordinate under left translation."""
    spec = chart.spec
    rs = spec.space.model.rs
    w0_word, w_word, v_word = spec.r
    k = len(w0_word)
    word2 = w_word + v_word
    out = []
    for j in range(1, k + 1):
        letters = tuple(reversed(w0_word[j - 1 : k]))
        out.append(rs.act_word(letters, rs.simple_root(w0_word[j - 1])))
    for j in range(1, len(word2) + 1):
        prefix = word2[: j - 1]
        out.append(rs.act_word(prefix, rs.simple_root(word2[j - 1])))
    if spec.space.qkind == "Nv":
        for i in range(1, rs.rank + 1):
            out.append(rs.act(spec.w, rs.fundamental_weight(i)))
    return out
