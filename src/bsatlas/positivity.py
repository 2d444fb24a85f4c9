"""Lusztig positive structures: toric charts, exact sampling, certification.

Toric points are products of one-parameter chains at strictly positive
rationals, built and read on integers as a scaled point (m, d): the matrix
m/d with one denominator d > 0 (``GroupModel.word_point``).  A flag minor of
size k is read on m, where it is d^k times its value at the point, so its
sign is the verdict, an exact comparison of ints.  The chart coordinates
are read on (m, d), each a Fraction with a positive denominator, so signs
and the least one are read on ints too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .atlas import Chart, eval_coordinates
from .errors import (
    HypothesisViolated,
    IncomparableCharts,
    LengthMismatch,
    NonPositiveInput,
    NotInChartDomain,
)
from .groups import MinorSpec
from .linalg import mat_transpose, minor


class ToricChartSpec:
    """A toric chart of the Lusztig positive structure.

    target 'G': words = (w0_word, w0_word'), parameters (c_1..c_{2 l0}, t_1..t_d);
    target 'GmodBv': words = (w0_word, v_word), parameters of length l0 + l(v);
    target 'GmodNv': same words, plus d torus parameters.
    """

    __slots__ = ("model", "target", "words")

    def __init__(self, model, target, words):
        if target not in ("G", "GmodBv", "GmodNv"):
            raise ValueError("target must be 'G', 'GmodBv', or 'GmodNv'")
        rs = model.rs
        w1, w2 = (tuple(w) for w in words)
        rs.assert_reduced(w1)
        rs.assert_reduced(w2)
        if rs.element_from_word(w1) != rs.w0:
            raise ValueError("first word must be a reduced word of w0")
        if target == "G" and rs.element_from_word(w2) != rs.w0:
            raise ValueError("target G needs a second reduced word of w0")
        self.model = model
        self.target = target
        self.words = (w1, w2)

    def n_params(self):
        rs = self.model.rs
        l0 = rs.l0
        if self.target == "G":
            return 2 * l0 + rs.rank
        if self.target == "GmodBv":
            return l0 + len(self.words[1])
        return l0 + len(self.words[1]) + rs.rank

    def v_element(self):
        return self.model.rs.element_from_word(self.words[1])

    def __repr__(self):
        return f"ToricChartSpec({self.target}, {self.words})"


def toric_point(spec: ToricChartSpec, c):
    """The representative at a strictly positive exact parameter vector, as a scaled point (m, d) of ints, d > 0.

    Ints and Fractions are used as given; binary floats are refused, since
    an exact verdict takes exact parameters.  The plus-chain of the flag
    targets runs through the REVERSED v-word (it is a chain for v^{-1}); the
    G target uses both w0-words in plain order.
    """
    model = spec.model
    c = list(c)
    if any(isinstance(x, float) for x in c):
        raise TypeError("toric parameters must be exact (ints, Fractions or rational strings), not binary floats")
    c = [x if type(x) in (int, Fraction) else Fraction(x) for x in c]
    if len(c) != spec.n_params():
        raise LengthMismatch(f"expected {spec.n_params()} parameters, got {len(c)}")
    if any(x.numerator <= 0 for x in c):
        raise NonPositiveInput("toric parameters must be strictly positive")
    l0, (w1, w2) = model.rs.l0, spec.words
    k = l0 + len(w2)
    if spec.target == "G":
        return model.word_point([-i for i in w1] + list(w2), c[:k], c[k:])
    torus = c[k:] if spec.target == "GmodNv" else None
    return model.word_point([-i for i in w1] + list(w2[::-1]), c[:l0] + c[l0:k][::-1], torus)


def _require_samples(n_samples):
    """A sampled verdict needs at least one sample behind it."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")


def _sample_positive(rng, n):
    return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n)]


def _flag_minors(model):
    """(labels, read): the flag minors D_{w omega_a, omega_a} as (w, a), w in W and a = 1 .. rank, and their
    values on a matrix, one determinant per sorted row set: sorting the rows of sign * det m[rows, cols]
    (``GroupModel.minor_indices``) multiplies it by the sign of the sort.  Built once per model, on first use,
    and kept as ``model._flag_minor_table``."""
    if model._flag_minor_table is not None:
        return model._flag_minor_table
    rs = model.rs
    labels = [(w, a) for w in rs.all_elements() for a in range(1, rs.rank + 1)]
    row_sets, signed = {}, []
    for w, a in labels:
        rows, cols, sign = model.minor_indices(MinorSpec(w, rs.identity, a))
        sign *= (-1) ** sum(x > y for x, y in combinations(rows, 2))
        signed.append((row_sets.setdefault((tuple(sorted(rows)), cols), len(row_sets)), sign))

    def read(m):
        dets = [minor(m, rows, cols) for rows, cols in row_sets]
        return [sign * dets[k] for k, sign in signed]

    model._flag_minor_table = labels, read
    return labels, read


def certify_chart_positivity(chart: Chart, spec: ToricChartSpec, n_samples, seed):
    """Exact positivity of every chart coordinate at toric-chart samples.

    Per sample: (i) the point lies in the chart's shifted big cell and in
    every other shifted big cell (all flag minors D_{w omega, omega}
    positive, read on the integer numerators of the point); (ii) every
    coordinate value is a strictly positive rational, read on its numerator.
    A toric chart of another group's model is refused with ValueError
    before any sample is drawn.
    """
    _require_samples(n_samples)
    model = chart.spec.space.model
    if spec.model is not model:
        raise ValueError(f"toric chart of {spec.model.name} does not act on a chart of {model.name}")
    rng = random.Random(seed)
    labels, read_flags = _flag_minors(model)
    violations = []
    min_seen = None
    per_sample = []
    for s in range(n_samples):
        c = _sample_positive(rng, spec.n_params())
        nums, d = toric_point(spec, c)
        cell_ok = True
        for (w, alpha), value in zip(labels, read_flags(nums)):
            if value <= 0:
                cell_ok = False
                violations.append({"sample": s, "kind": "big_cell", "w": str(w), "alpha": alpha})
        try:
            coords = eval_coordinates(chart, (nums, d))
        except NotInChartDomain as e:
            violations.append({"sample": s, "kind": "chart_domain", "minor": e.minor_index})
            per_sample.append({"sample": s, "params": [str(x) for x in c], "coords": None})
            continue
        for idx, val in enumerate(coords, start=1):
            if val.numerator <= 0:
                violations.append({"sample": s, "kind": "nonpositive", "coordinate": idx, "value": str(val)})
            if min_seen is None or val.numerator * min_seen.denominator < min_seen.numerator * val.denominator:
                min_seen = val
        per_sample.append(
            {"sample": s, "params": [str(x) for x in c], "coords": [str(v) for v in coords], "cell_ok": cell_ok}
        )
    return {
        "chart": chart.spec.label(),
        "n_samples": n_samples,
        "seed": seed,
        "ok": not violations,
        "min_coordinate": str(min_seen) if min_seen is not None else None,
        "violations": violations,
        "samples": per_sample,
    }


def certify_minor_positivity(space, w, v1, alpha, n_samples, seed=0):
    """Positivity of D_{w omega_alpha, v1 omega_alpha} on G/N(v) samples.

    Requires v1 weakly below v (the function is otherwise not right-N(v)
    invariant); raises HypothesisViolated when the precondition fails.
    """
    _require_samples(n_samples)
    model = space.model
    rs = model.rs
    if not rs.weak_leq(v1, space.v):
        raise HypothesisViolated("v1 must precede v in the weak order")
    v_word = space.v.canonical
    spec = ToricChartSpec(model, "GmodNv", (rs.w0.canonical, v_word))
    rng = random.Random(seed)
    ms = MinorSpec(w, v1, alpha)
    violations = []
    values = []
    for s in range(n_samples):
        m, d = toric_point(spec, _sample_positive(rng, spec.n_params()))
        val = Fraction(model.generalized_minor(m, ms), d**alpha)
        values.append(str(val))
        if val <= 0:
            violations.append({"sample": s, "value": str(val)})
    return {"minor": ms.label(), "n_samples": n_samples, "ok": not violations, "violations": violations, "values": values}


def extract_negative_chain(model, point, word):
    """Exact chain parameters of the scaled point (m, d) = x_{-a1}(c1) ... x_{-ak}(ck) (word reduced).

    Peels letters from the right off (m, d) (``GroupModel.word_point``):
    with w' the product of the first j letters, the flag minor
    D_{w' omega_a, omega_a} of (m/d) x_{-a}(-c) is affine in c and vanishes
    exactly at the true parameter.  Its values at c = 0 and c = 1 are read on
    m, where d^k and the sign of the minor cancel from the quotient.
    """
    rs = model.rs
    word = tuple(word)
    rs.assert_reduced(word)
    out = [None] * len(word)
    for j in range(len(word), 0, -1):
        a = word[j - 1]
        rows, cols, _ = model.minor_indices(MinorSpec(rs.element_from_word(word[:j]), rs.identity, a))
        f0 = minor(point[0], rows, cols)
        f1 = minor(model.word_point((-a,), (-1,), point=point)[0], rows, cols)
        if f1 == f0:
            raise ArithmeticError("degenerate peel: minor not affine in the parameter")
        out[j - 1] = Fraction(f0, f0 - f1)
        point = model.word_point((-a,), (-out[j - 1],), point=point)
    m, d = point
    if m != [[d * (i == j) for j in range(model.dim)] for i in range(model.dim)]:
        raise ArithmeticError("chain extraction did not exhaust the unipotent factor")
    return out


def extract_positive_chain(model, point, word):
    """Chain parameters of the scaled point (n, d) = x_{a1}(c1) ... x_{ak}(ck) via transpose."""
    n, d = point
    return list(reversed(extract_negative_chain(model, (mat_transpose(n), d), tuple(reversed(word)))))


def toric_coordinates(spec: ToricChartSpec, point) -> list:
    """Invert a toric chart at an exact scaled point (m, d) of its image: m and m/d have the same unipotent
    factors, and a torus minor Delta^{omega_i} read on m is d^i times its value at the point.

    Supported: target 'G' for any pair of w0-words, and the flag targets for
    v = e or v = w0.  For intermediate v the plus-chain leaves the subgroup
    the coset projection retains, so no exact peel exists along the chain
    letters; those cases are refused rather than approximated.
    """
    model = spec.model
    rs = model.rs
    m, d = point
    lower, plus, tdiag = model.triangular_factor(m)
    c1 = extract_negative_chain(model, (lower, 1), spec.words[0])
    torus = [model.generalized_minor(tdiag, MinorSpec(rs.identity, rs.identity, i)) / d**i for i in range(1, rs.rank + 1)]
    if spec.target == "G":
        return c1 + extract_positive_chain(model, (plus, 1), spec.words[1]) + torus
    v = spec.v_element()
    if not (v.is_identity() or v == rs.w0):
        raise HypothesisViolated(
            "toric-chart inversion on flag targets supports v = e or v = w0 only"
        )
    c2 = []
    if v == rs.w0:
        c2 = list(reversed(extract_positive_chain(model, (plus, 1), tuple(reversed(spec.words[1])))))
    if spec.target == "GmodBv":
        return c1 + c2
    return c1 + c2 + torus


def certify_toric_equivalence(spec_a, spec_b, n_samples, seed=0):
    """Positive samples of chart A have positive chart-B coordinates.

    This is the checkable necessary condition of positive equivalence; a
    Bott-Samelson chart is not accepted here (different kind of chart).
    """
    _require_samples(n_samples)
    if isinstance(spec_a, Chart) or isinstance(spec_b, Chart):
        raise IncomparableCharts(
            "Bott-Samelson charts are not toric charts of the positive structure; "
            "their coordinate changes need not be positive, so this comparison is refused"
        )
    if spec_a.target != spec_b.target or spec_a.model is not spec_b.model:
        raise ValueError("toric charts must share the same target space")
    if spec_a.target != "G" and spec_a.v_element() != spec_b.v_element():
        raise ValueError("flag-target charts must share v")
    identical = spec_a.words == spec_b.words
    rng = random.Random(seed)
    violations = []
    for s in range(n_samples):
        c = _sample_positive(rng, spec_a.n_params())
        if identical:
            cprime = c
        else:
            point = toric_point(spec_a, c)
            cprime = toric_coordinates(spec_b, point)
        for idx, val in enumerate(cprime, start=1):
            if val <= 0:
                violations.append({"sample": s, "coordinate": idx, "value": str(val)})
    return {"n_samples": n_samples, "ok": not violations, "violations": violations}
