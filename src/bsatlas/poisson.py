"""The standard Poisson structure, symbolically.

The multiplicative Poisson bivector on G is the difference of the left and
right invariant extensions of the skew tensor with one term per positive
root, weighted by half the squared root length.  Brackets in a chart come
from the first-order perturbations of the parametrized point
along every left/right root-vector field.  The point is the chart's stored
representative, Laurent values keyed by packed monomials, and is factored
once as it is: its factors, regular on the
chart, are exact quotients off one fraction-free elimination whose pivots are monomials.
There the tangents of the factors along every field come in closed form,
each coordinate, one signed minor of one factor (the N_v coordinates minors
of the whole N factor for every v), is read with its tangents from one set
of cofactors, and pair assembly and the Jacobi sums run too, each only
where its products can be nonzero.  No RatFunc factor is formed and no gcd
is taken.  Each bracket entry becomes a RatFunc once, and the table keeps
its Laurent value as well, which ``jacobi_check`` and ``cgl.verify_cgl``
read.
"""

from __future__ import annotations

from itertools import combinations

from .atlas import Chart, coordinate_jets
from .errors import NonPolynomialBracket
from .groups import GroupModel
from .laurent import _exact, laurent_derivative, laurent_fma, laurent_frame, pack_poly, to_laurent, unit_keys
from .linalg import gauss_ltu_lift
from .symbolic import RatFunc, VarName, from_laurent, var


class LambdaData:
    """Skew r-matrix part: one (root, e_-, e_+, coefficient) term per positive root."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = terms


def build_lambda(model: GroupModel) -> LambdaData:
    """Skew tensor terms; coefficient <beta,beta>/2 per positive root, an int where integral.

    The root vectors' normalization is checked once, in ``GroupModel._validate``."""
    rs = model.rs
    terms = []
    for beta in rs.positive_roots:
        e_plus, e_minus = model.pos_root_vectors[beta]
        terms.append((beta, e_minus, e_plus, _exact(rs.pairing(beta, beta) / 2)))
    return LambdaData(model, terms)


class BracketTable:
    """Pairwise brackets {z_i, z_j} (i < j) of chart coordinates.

    ``entries`` holds each bracket as a canonical RatFunc.  ``laurent``, if
    given, holds them as (frame, {pair: (num, den)}) with num/den the entry
    in Laurent values over a frame that holds z_1 .. z_n_vars, and den None
    where the entry is Laurent itself, as ``chart_bracket`` sums it.
    """

    __slots__ = ("n_vars", "laurent_vars", "entries", "chart", "_laurent")

    def __init__(self, n_vars, laurent_vars, entries, chart=None, laurent=None):
        self.n_vars = n_vars
        self.laurent_vars = tuple(laurent_vars)
        self.entries = entries
        self.chart = chart
        self._laurent = laurent

    def laurent_entries(self):
        """(frame, values) as ``laurent`` holds them, converted once from the entries if the table was built without."""
        if self._laurent is None:
            frame = laurent_frame([*self.entries.values(), *(var("z", m) for m in range(1, self.n_vars + 1))])
            self._laurent = frame, {
                pair: (to_laurent(f, frame), None)
                if len(f.den.terms) == 1
                else (pack_poly(f.num, frame), pack_poly(f.den, frame))
                for pair, f in self.entries.items()
            }
        return self._laurent

    def get(self, i, j):
        """Signed lookup: {z_i, z_j} for any i, j (1-based)."""
        if i == j:
            return RatFunc.zero()
        if i < j:
            return self.entries[(i, j)]
        return -self.entries[(j, i)]

    def pairs(self):
        return sorted(self.entries)


def chart_bracket(chart: Chart, lam: LambdaData | None = None) -> BracketTable:
    """Bracket table of a chart, computed from the group-level bivector.

    Coordinates are lifted to right-Q-invariant functions of the matrix
    entries; the bracket on G is evaluated at the parametrized point from
    the derivatives of the coordinates along all 4|Delta+| left/right
    root-vector fields.  wbar^{-1} rep is factored once on Laurent values in
    the model's internal basis, the tangents of its factors along every
    field come from the same pass (``linalg.gauss_ltu_lift``), and each
    coordinate and its tangents are read off those factors through one table
    of signed minors (``atlas.coordinate_jets``: for every v, the N_v
    coordinates are minors of the N factor, so no second factorization
    runs).  Each coordinate read back must be the monomial z_i it names, or
    AssertionError is raised.
    Per term with coefficient c, {z_i, z_j} gains s*(a_i*b_j - b_i*a_j) for
    (s, a, b) = (c, L-, L+) and (-c, R-, R+): each product of two nonzero
    tangents a_x, b_y (x != y) is one fused multiply-add into pair {x, y}.
    """
    model = chart.spec.space.model
    if lam is None:
        lam = build_lambda(model)
    n = chart.dims
    wp = model.signed_perm(chart.spec.w.canonical)

    # h = wbar^{-1} rep moves to h X along rep X, and to X' h along X rep
    # with X' = wbar^{-1} X wbar
    fields = []
    for _, e_minus, e_plus, _ in lam.terms:
        fields.append(("left", e_minus))
        fields.append(("left", e_plus))
        fields.append(("right", wp.left_inv(wp.right(e_minus))))
        fields.append(("right", wp.left_inv(wp.right(e_plus))))
    # point and fields go to the internal basis once; no factor or tangent comes back from it
    fields = [(side, model.to_internal(x)) for side, x in fields]
    frame, lifted = gauss_ltu_lift(model.to_internal(wp.left_inv(chart.rep)), fields, chart.frame)
    # values[i]: z_{i+1} read back off the factors; derivs[k][i]: its derivative along
    # field k (order L-, L+, R-, R+ per term), each a Laurent value over the frame
    values, tangents = coordinate_jets(chart, lifted, frame)
    units = unit_keys(len(frame))
    for c, z in zip(values, chart.zvars):
        if z not in frame or c != {units[frame[z]]: 1}:
            raise AssertionError("chart round trip failed inside bracket engine")
    derivs = list(zip(*tangents))
    # a_x*b_y adds to {z_x, z_y} for x < y and subtracts from {z_y, z_x} for x > y
    accs = {pair: {} for pair in combinations(range(n), 2)}
    for t, (_, _, _, coeff) in enumerate(lam.terms):
        for s, a, b in ((coeff, *derivs[4 * t : 4 * t + 2]), (-coeff, *derivs[4 * t + 2 : 4 * t + 4])):
            b_support = [(y, by) for y, by in enumerate(b) if by]
            for x, ax in ((x, ax) for x, ax in enumerate(a) if ax):
                for y, by in b_support:
                    if x != y:
                        laurent_fma(accs[(min(x, y), max(x, y))], s if x < y else -s, ax, by)

    torus = chart.torus_block()
    entries, values = {}, {}
    for i, j in combinations(range(n), 2):
        acc = accs.pop((i, j))
        values[(i + 1, j + 1)] = acc, None
        tot = from_laurent(acc, frame)
        _require_polynomial(tot, torus, (i + 1, j + 1))
        entries[(i + 1, j + 1)] = tot
    return BracketTable(n, torus, entries, chart=chart, laurent=(frame, values))


def _require_polynomial(f: RatFunc, laurent, where):
    """Entries must be polynomial, allowing the Laurent block in denominators.

    Each entry is ``from_laurent`` of a Laurent value, so its denominator is a
    monomial; one in torus-block variables is allowed, and any other fails that test.
    """
    if f.den.vars and not set(f.den.vars) <= {VarName("z", m) for m in laurent}:
        raise NonPolynomialBracket(f"bracket {where} has denominator outside the torus block: {f.den.text()}")


def jacobi_check(table: BracketTable):
    """Exact Jacobi identity report, with the nonzero cyclic sum of each failing triple.

    The table's Laurent values (``BracketTable.laurent_entries``) are
    differentiated once per variable z_m of each entry, into a gradient
    table; an entry that is not Laurent raises NonPolynomialBracket.  An
    entry is log-canonical when it is 0 or exactly c_ij*z_i*z_j.  A triple of three log-canonical
    entries is skipped: its Jacobiator is z_i*z_j*z_k times
    c_jk(c_ij + c_ik) + c_ki(c_jk + c_ji) + c_ij(c_ki + c_kj) = 0 for skew c.
    On every other triple {z_i, {z_j, z_k}} is the Leibniz sum
    sum_m d_m{z_j, z_k} * {z_i, z_m}, and each cyclic sum accumulates in one
    dict.  A failure's value is the text of the canonical RatFunc.
    """
    n = table.n_vars
    frame, values = table.laurent_entries()
    # signed[(i, m)] = (s, x) with {z_i, z_m} = s * x, for i < m and for i > m
    signed = {}
    grads = {}
    # the pairs whose entry is not log-canonical
    general = set()
    units = unit_keys(len(frame))
    # unit[m]: the key of z_m alone; the frame holds z_1 .. z_n
    unit = {v.index: units[slot] for v, slot in frame.items() if v.symbol == "z" and 1 <= v.index <= n}
    for (i, j), (x, den) in values.items():
        f = table.entries[(i, j)]
        if den is not None:
            raise NonPolynomialBracket(f"bracket ({i}, {j}) is not a Laurent polynomial: {f.text()}")
        signed[(i, j)] = (1, x)
        signed[(j, i)] = (-1, x)
        # the variables of the canonical entry are the support of x
        support = [v.index for v in f.variables() if v.symbol == "z" and v.index in unit]
        grads[(i, j)] = [(m, laurent_derivative(x, unit[m])) for m in support]
        if x and not (len(x) == 1 and unit[i] + unit[j] in x):
            general.add((i, j))

    failures = []
    for i, j, k in combinations(range(1, n + 1), 3):
        if (i, j) not in general and (i, k) not in general and (j, k) not in general:
            continue
        # {z_k, z_i} = -{z_i, z_k}
        acc = {}
        for sign, r, pair in ((1, i, (j, k)), (-1, j, (i, k)), (1, k, (i, j))):
            for m, part in grads[pair]:
                if m != r:
                    s, x = signed[(r, m)]
                    laurent_fma(acc, sign * s, part, x)
        if acc:
            failures.append({"triple": (i, j, k), "value": from_laurent(acc, frame).text()})
    return {"ok": not failures, "mode": "symbolic", "failures": failures}
