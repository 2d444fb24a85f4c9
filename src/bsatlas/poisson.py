"""The standard Poisson structure, symbolically.

The multiplicative Poisson bivector on G is the difference of the left and
right invariant extensions of the skew tensor with one term per positive
root, weighted by half the squared root length.  Brackets in a chart come
from the first-order perturbations of the parametrized point
along every left/right root-vector field, each given by the nonzero entries
of its constant.  The point is the chart's stored representative, Laurent
values keyed by packed monomials, and is factored once as it is: its
factors, regular on the
chart, are exact quotients off one fraction-free elimination whose pivots are monomials.
There the tangents of the factors along every field come in closed form,
by rank-one updates, and each coordinate, one signed minor of one factor
(the N_v coordinates minors of the whole N factor for every v), is read
with its tangents from one set of cofactors.  Pair assembly and the Jacobi
sums form only products that can be nonzero: the Jacobi sums none of two
log-canonical parts c_ij*z_i*z_j, which cancel for any skew c.  No RatFunc
factor is formed and no gcd
is taken.  Each bracket entry becomes a RatFunc once, and the table keeps
its Laurent value as well, which ``jacobi_check`` and ``cgl.verify_cgl``
read.
"""

from __future__ import annotations

from itertools import combinations

from .atlas import Chart, coordinate_jets
from .errors import NonPolynomialBracket
from .groups import GroupModel
from .laurent import _exact, laurent_derivative, laurent_fma, laurent_frame, pack_poly, to_laurent, unit_keys, unpack_columns
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
    field, given as the nonzero entries of its constant, come from the same
    pass as per-entry lists (``linalg.gauss_ltu_lift``), and each
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

    # h = wbar^{-1} rep moves to h X along rep X, and to X' h along X rep with X' = W^{-1} X W for W = wbar.
    # Each field goes to the lift as the nonzero entries (k, l, c) of X or X' in the internal basis, with
    # W^{-1} E_rc W = signs[cols[r]] * signs[cols[c]] * E_{cols[r], cols[c]}
    pos = model._pos
    moved = [(pos[wp.cols[r]], wp.signs[wp.cols[r]]) for r in range(model.dim)]
    fields = []
    for _, e_minus, e_plus, _ in lam.terms:
        nonzero = [[(r, c, x) for r, row in enumerate(e) for c, x in enumerate(row) if x] for e in (e_minus, e_plus)]
        fields += [("left", [(pos[r], pos[c], x) for r, c, x in xs]) for xs in nonzero]
        fields += [("right", [(moved[r][0], moved[c][0], moved[r][1] * moved[c][1] * x) for r, c, x in xs]) for xs in nonzero]
    # the point goes to the internal basis in one reindex; no factor or tangent comes back from it
    frame, lifted = gauss_ltu_lift(model.internal_left_inv(chart.spec.w.canonical, chart.rep), fields, chart.frame)
    # values[i]: z_{i+1} read back off the factors; tangents[i][k]: its derivative along
    # field k (order L-, L+, R-, R+ per term), each a Laurent value over the frame
    values, tangents = coordinate_jets(chart, lifted, len(fields))
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

    The table's Laurent values (``BracketTable.laurent_entries``) are split
    as P_ij = c_ij*z_i*z_j + F_ij; an entry that is not Laurent raises
    NonPolynomialBracket.  Each nonzero remainder F_ij is differentiated once
    per variable z_m of it (m <= n; any other variable is a constant).  The
    Jacobiator of a triple is the cyclic sum over (r; a, b) of
    {z_r, P_ab} = sum_m d_m P_ab * P_rm
    = c_ab*(z_b*F_ra + z_a*F_rb) + sum_m d_m F_ab * P_rm + c_ab*z_r*z_a*z_b*(c_ra + c_rb),
    and the last terms sum to z_i*z_j*z_k times
    c_jk(c_ij + c_ik) + c_ki(c_jk + c_ji) + c_ij(c_ki + c_kj) = 0 for skew c.
    So a triple whose three remainders are 0 is skipped, and every other
    one sums only the first two products in one dict; no two log-canonical
    parts are multiplied.  A failure's value is the text of the canonical
    RatFunc.
    """
    n = table.n_vars
    frame, values = table.laurent_entries()
    units = unit_keys(len(frame))
    # slot_of[m]: the frame slot of z_m; the frame holds z_1 .. z_n
    slot_of = {v.index: slot for v, slot in frame.items() if v.symbol == "z" and 1 <= v.index <= n}
    mono = {m: {units[slot]: 1} for m, slot in slot_of.items()}
    # signed[(i, m)] = (s, x) with {z_i, z_m} = s * x, and rest[(i, m)] = (s, F_im) where F_im is nonzero,
    # for i < m and for i > m; lc[(i, j)] = c_ij and grads[(i, j)] the derivatives of F_ij, for i < j
    signed, rest, lc, grads = {}, {}, {}, {}
    for (i, j), (x, den) in values.items():
        if den is not None:
            f = table.entries[(i, j)]
            raise NonPolynomialBracket(f"bracket ({i}, {j}) is not a Laurent polynomial: {f.text()}")
        signed[(i, j)], signed[(j, i)] = (1, x), (-1, x)
        key = units[slot_of[i]] + units[slot_of[j]]
        lc[(i, j)] = c = x.get(key, 0)
        f = {e: k for e, k in x.items() if e != key} if c else x
        if f:
            rest[(i, j)], rest[(j, i)] = (1, f), (-1, f)
            cols = unpack_columns(f, len(frame))
            grads[(i, j)] = [(m, laurent_derivative(f, units[slot])) for m, slot in slot_of.items() if any(cols[slot])]

    failures = []
    for i, j, k in combinations(range(1, n + 1), 3):
        if (i, j) not in rest and (i, k) not in rest and (j, k) not in rest:
            continue
        # {z_k, z_i} = -{z_i, z_k}
        acc = {}
        for sign, r, a, b in ((1, i, j, k), (-1, j, i, k), (1, k, i, j)):
            if c := lc[(a, b)]:
                for x, y in ((a, b), (b, a)):
                    if (r, x) in rest:
                        s, f = rest[(r, x)]
                        laurent_fma(acc, sign * s * c, mono[y], f)
            for m, part in grads.get((a, b), ()):
                s, x = signed[(r, m)] if m != r else (1, None)
                if x:
                    laurent_fma(acc, sign * s, part, x)
        if acc:
            failures.append({"triple": (i, j, k), "value": from_laurent(acc, frame).text()})
    return {"ok": not failures, "mode": "symbolic", "failures": failures}
