"""Tests for the generating-function layer.

Reference expressions (classifying series, the rank-2 worked example, the
fixed-determinant polynomial) are rebuilt by hand from small ratfun pieces,
so each test is an independent restatement rather than a reuse of the code
under test.
"""

import sys
from collections import Counter
from itertools import repeat
from math import gcd
from operator import add, mul, sub
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import band_reference
from hodge_series import formulas, ratfun
from hodge_series.formulas import (
    FactorizationFailed,
    FTerm,
    NotCoprime,
    NotGoodCase,
    a_series,
    assemble_exact,
    assemble_series,
    chi_t_fixed_det_formula,
    closed_series_for,
    closed_terms,
    hp_classifying,
    hp_moduli_fixed_det,
    hp_moduli_space,
    hp_semistable_classical,
    hp_semistable_closed,
    specialize,
    stack_poincare_series,
    to_polynomial,
    _band_sum,
    _gl_terms,
    _group_cofactor,
    _over_common_den,
)
from hodge_series.ratfun import (
    BivarPoly,
    NotDivisible,
    NotPolynomialWithinBound,
    RatFun1,
    RatFun2,
    TruncSeries2,
    U,
    UniPoly,
    V,
    _unband,
    _w_degree,
    _width,
)
from hodge_series.rootdata import (
    GroupSpec,
    NonIntegralExponent,
    build_root_system,
    classical_factors,
    degrees_of,
    good_case,
    parse_group,
)

GL = lambda r: GroupSpec((("GL", r),))
SL = lambda r: GroupSpec((("SL", r),))

def abelian(g):
    """(1+u)^g (1+v)^g / (1-uv)."""
    return RatFun2((1 + U) ** g * (1 + V) ** g, {1: 1})


def mono(i, j):
    return BivarPoly.monomial(i, j)


class TestClassifying:
    def test_gl2(self):
        assert hp_classifying(GL(2)).rat_eq(
            RatFun2(1, {1: 1, 2: 1}))

    def test_sl2(self):
        assert hp_classifying(SL(2)).rat_eq(RatFun2(1, {2: 1}))

    def test_so5(self):
        assert hp_classifying(parse_group("SO5")).rat_eq(
            RatFun2(1, {2: 1, 4: 1}))


class TestStackSeries:
    def test_gl1(self):
        assert a_series(GL(1), 2).rat_eq(RatFun2((1 + U) ** 2 * (1 + V) ** 2, {1: 1}))

    def test_gl2_matches_vector_bundle_form(self):
        g = 3
        expect = abelian(g) * RatFun2(
            (1 + mono(2, 1)) ** g * (1 + mono(1, 2)) ** g,
            {1: 1, 2: 1})
        assert a_series(GL(2), g).rat_eq(expect)

    def test_product_multiplicativity(self):
        spec = parse_group("GL1xGL1")
        assert a_series(spec, 2).rat_eq(abelian(2) * abelian(2))

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            a_series(GL(1), 1)
        assert a_series(GL(1), 9) == abelian(9)


class TestClosedRank2:
    def worked_example(self, d, g):
        head = abelian(g) * RatFun2(
            (1 + mono(2, 1)) ** g * (1 + mono(1, 2)) ** g,
            {1: 1, 2: 1})
        exp = g if d == 1 else g + 1
        tail = RatFun2(mono(exp, exp), {2: 1}) * abelian(g) * abelian(g)
        return head - tail

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_closed_equals_worked_example(self, d, g):
        assert hp_semistable_closed(GL(2), (d,), g).rat_eq(self.worked_example(d, g))

    def test_degree_periodicity(self):
        # series depend on d only through its class mod r
        assert hp_semistable_closed(GL(2), (3,), 2).rat_eq(
            hp_semistable_closed(GL(2), (1,), 2))
        assert hp_semistable_closed(GL(3), (-1,), 2).rat_eq(
            hp_semistable_closed(GL(3), (2,), 2))


class TestClassicalVsClosed:
    CASES = (
        [("GL", r, d) for r in (1, 2, 3) for d in range(r)]
        + [("SL", r, 0) for r in (2, 3)]
        + [("SOodd", r, d) for r in (1, 2) for d in (0, 1)]
        + [("Sp", r, 0) for r in (1, 2)]
        + [("SOeven", r, d) for r in (2,) for d in (0, 1)]
    )

    @pytest.mark.parametrize("family,rank,d", CASES)
    def test_equal(self, family, rank, d):
        for g in (2, 3):
            cl = hp_semistable_classical(family, rank, d, g)
            co = hp_semistable_closed(GroupSpec(((family, rank),)), (d,), g)
            assert cl.rat_eq(co)

    def test_sl2_structure(self):
        # one-block term minus the two-block correction
        g = 2
        head = RatFun2((1 + mono(2, 1)) ** g * (1 + mono(1, 2)) ** g,
                       {1: 1, 2: 1})
        tail = abelian(g) * RatFun2(mono(g - 1, g - 1) * mono(2, 2), {2: 1})
        assert hp_semistable_classical("SL", 2, 0, g).rat_eq(head - tail)

    def test_series_mode_agrees(self):
        s1 = assemble_series(formulas._classical_terms("GL", 3, 1, 2), 12)
        s2 = hp_semistable_closed(GL(3), (1,), 2).expand(12)
        assert s1 == s2

    @pytest.mark.parametrize("family,rank,d", [
        ("GL", 5, 2), ("GL", 6, 1), ("SL", 5, 0),
        ("SOodd", 5, 1), ("Sp", 5, 0), ("SOeven", 5, 1),
    ])
    def test_rank_5_6_truncated(self, family, rank, d):
        # exact cross-multiplication would be wasteful here; order-24
        # series equality is asserted instead
        g = 2
        s_cl = assemble_series(formulas._classical_terms(family, rank, d, g), 24)
        s_co = closed_series_for(
            *formulas._datum_residues(GroupSpec(((family, rank),)), (d,)), g, 24)
        assert s_cl == s_co


class TestProductGroups:
    """Kuenneth: on a product group the closed formula factors, so every
    product Levi (whose center spans several factors) is exercised."""

    CASES = [(text, d) for text in ("GL2xSO5", "SL2xGL3")
             for d in degrees_of(parse_group(text))]

    @pytest.mark.parametrize("text,d", CASES)
    @pytest.mark.parametrize("g", [2, 3])
    def test_closed_factors(self, text, d, g):
        spec = parse_group(text)
        expect = RatFun2(1)
        for factor, di in zip(spec.factors, d):
            expect = expect * hp_semistable_closed(GroupSpec((factor,)), (di,), g)
        assert hp_semistable_closed(spec, d, g).rat_eq(expect)


class TestSeriesAssembly:
    def test_truncated_equals_exact_expansion(self):
        for spec, d in [(GL(2), (1,)), (parse_group("SO5"), (1,)),
                        (parse_group("Sp2"), (0,))]:
            exact = hp_semistable_closed(spec, d, 2).expand(14)
            trunc = closed_series_for(*formulas._datum_residues(spec, d), 2, 14)
            assert exact == trunc

    def test_nonnegative_integer_coefficients(self):
        for spec, d in [(GL(2), (0,)), (GL(3), (2,)), (parse_group("SO7"), (1,))]:
            s = closed_series_for(*formulas._datum_residues(spec, d), 2, 20)
            assert all(c >= 0 for c in s.coeffs.values())

    def test_hodge_symmetry_and_connectedness(self):
        # h^{p,q} = h^{q,p}, and h^{0,0} = 1 for a connected stack
        for spec, d in [(GL(3), (1,)), (parse_group("SO7"), (0,)),
                        (parse_group("Sp3"), (0,)), (parse_group("SO8"), (1,))]:
            s = closed_series_for(*formulas._datum_residues(spec, d), 2, 16)
            assert s.coeff(0, 0) == 1
            for (i, j), c in s.coeffs.items():
                assert s.coeff(j, i) == c, (spec, i, j)


def _num_poly(t):
    """coef * w^shift * prod (1 + u^a v^b)^e as general BivarPoly products."""
    poly = BivarPoly.monomial(t.shift, t.shift, t.coef)
    for a, b, e in t.numfactors:
        poly = poly * (1 + mono(a, b)) ** e
    return poly


def _den_product(den):
    """prod (1 - w^k)^m as a general BivarPoly product."""
    poly = BivarPoly.constant(1)
    for k, m in den.items():
        poly = poly * (1 - mono(k, k)) ** m
    return poly


def _union_den(terms):
    """The max-multiplicity common denominator, by Counter union."""
    common = Counter()
    for t in terms:
        common |= t.den
    return common


def _product_sum(terms):
    """Reference: each numerator times its cofactor by general BivarPoly
    products, summed over the max-multiplicity common denominator."""
    common = _union_den(terms)
    total = BivarPoly()
    for t in terms:
        total = total + _num_poly(t) * _den_product(common - Counter(t.den))
    return RatFun2(total, common)


def _check_exact(terms):
    got, expect = assemble_exact(terms), _product_sum(terms)
    assert got.num.terms == expect.num.terms
    assert got.wden == expect.wden


def _check_series(terms, order):
    """Multiplication certificate, sharing no division code: the truncated
    sum times the common denominator, by a truncated general product, is the
    ``_product_sum`` numerator truncated to order (the denominator has
    constant term 1, so this fixes every coefficient up to order)."""
    got, expect = assemble_series(terms, order), _product_sum(terms)
    assert got.order == order
    lhs = BivarPoly(got.coeffs).mul_trunc(_den_product(expect.wden), order)
    assert lhs.terms == TruncSeries2(order, expect.num.terms).coeffs


@st.composite
def numfactor_tuples(draw):
    """General factors (1 + u^a v^b)^e, a, b in 0..3: (0, 0) and |a - b| >= 2
    as well as the package's |a - b| <= 1."""
    numf = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        numf.append((a, b, draw(st.integers(0, 3))))
    return tuple(numf)


@st.composite
def fterms(draw, numfactors=None):
    if numfactors is None:
        numfactors = draw(numfactor_tuples())
    den = Counter(draw(st.dictionaries(st.integers(1, 6), st.integers(0, 3))))
    coef = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return FTerm(coef, draw(st.integers(0, 3)), numfactors, den)


@st.composite
def shared_fterm_lists(draw):
    """Terms of which most share one of one or two numerator tuples, with
    their own coef, shift and den, as the terms of one Levi type do."""
    shared = draw(st.lists(numfactor_tuples(), min_size=1, max_size=2))
    term = st.one_of(st.sampled_from(shared).flatmap(fterms), fterms())
    return draw(st.lists(term, max_size=6))


fterm_lists = st.one_of(st.lists(fterms(), max_size=4), shared_fterm_lists())


@settings(max_examples=60, deadline=None)
@given(fterm_lists, st.integers(0, 16))
def test_assemble_series_matches_expansion(terms, order):
    _check_series(terms, order)


@pytest.mark.parametrize("name", ["GL4", "GL5", "Sp3", "SO8", "GL2xSO5"])
def test_assemble_series_closed_terms(name):
    spec = parse_group(name)
    datum = build_root_system(spec)
    for d in degrees_of(spec):
        terms = closed_terms(datum, datum.fund_residues(datum.lift_degree(d)), 2)
        _check_series(terms, 16)


def _plain_dens(terms):
    """True when every den is a plain dict {k: m}, k >= 1 and m >= 1."""
    return all(type(t.den) is dict and all(type(k) is int and k >= 1 and type(m) is int
                                           and m >= 1 for k, m in t.den.items())
               for t in terms)


@pytest.mark.parametrize("name", ["GL1", "GL4", "SL3", "Sp3", "SO7", "SO8", "GL2xSO5"])
def test_term_denominators_are_plain_dicts(monkeypatch, name):
    """Every factored term the package builds carries its denominator as a
    plain dict of w-exponents with positive multiplicities: the closed
    formula (of the group and of each Levi), the composition sums, the
    Jacobian lift and the moduli-space terms with the center's factor
    dropped."""
    spec = parse_group(name)
    datum = build_root_system(spec)
    moduli = []
    real = formulas.assemble_exact
    monkeypatch.setattr(formulas, "assemble_exact",
                        lambda terms: moduli.append(terms) or real(terms))
    for d in degrees_of(spec):
        residues = datum.fund_residues(datum.lift_degree(d))
        assert _plain_dens(closed_terms(datum, residues, 2))
        for L in datum.levis()[1:]:
            assert _plain_dens(closed_terms(datum, datum.fund_residues(
                datum.lift_degree(d), L.I), 3, -1, 5, L.I))
        if good_case(spec, d):
            hp_moduli_space(spec, d, 2)
    assert all(map(_plain_dens, moduli))
    if len(spec.factors) == 1:
        (family, rank), = spec.factors
        for (d,) in degrees_of(spec):
            terms = formulas._classical_terms(family, rank, d, 2)
            assert _plain_dens(terms)
            assert _plain_dens([formulas._jacobian_lift(t, 2) for t in terms])
    assert _plain_dens([formulas.a_series_term(spec, 2)])


def _canonical(numfactors, g):
    """True when the numerator factors are in ``_a_parts``'s layout: pairs
    (d, d - 1, e), (d - 1, d, e), e a positive multiple of g, one pair per
    d and d increasing, from the abelian pair d = 1 on."""
    ds = []
    for (a, b, e), second in zip(numfactors[::2], numfactors[1::2]):
        if second != (b, a, e) or a != b + 1 or e <= 0 or e % g:
            return False
        ds.append(a)
    return len(numfactors) == 2 * len(ds) and ds == sorted(set(ds))


@pytest.mark.parametrize("family,rank", classical_factors(6) + [("GL3xSO5", None)])
def test_numerators_are_canonical(family, rank):
    """Every term of the closed formula (of the group, and of each Levi for
    GL3 x SO5), of the composition sums and of the Jacobian lift carries
    its numerator in the canonical layout, at g = 2 and 3."""
    spec = parse_group(family) if rank is None else GroupSpec(((family, rank),))
    datum = build_root_system(spec)
    for d in degrees_of(spec):
        X = datum.lift_degree(d)
        for g in (2, 3):
            terms = closed_terms(datum, datum.fund_residues(X), g)
            if rank is None:
                for L in datum.levis()[1:]:
                    terms += closed_terms(datum, datum.fund_residues(X, L.I), g, I=L.I)
            else:
                classical = formulas._classical_terms(family, rank, d[0], g)
                terms += classical + [formulas._jacobian_lift(t, g) for t in classical]
            assert all(_canonical(t.numfactors, g) for t in terms), (d, g)


@pytest.mark.parametrize("family,rank", classical_factors(6))
def test_classical_difference_sums_form_no_band(family, rank):
    """The composition sum minus the closed formula: with canonical
    numerators on both sides, every group cancels in its cofactor, at every
    degree and g = 2, 3, so no item reaches the band."""
    for (d,) in degrees_of(GroupSpec(((family, rank),))):
        for g in (2, 3):
            terms = formulas.classical_difference_terms(family, rank, d, g)
            assert _over_common_den(terms)[4] == [], (d, g)

@settings(max_examples=60, deadline=None)
@given(fterm_lists)
def test_assemble_exact_matches_products(terms):
    _check_exact(terms)


@pytest.mark.parametrize("name", ["GL4", "GL5", "Sp3", "SO8", "GL2xSO5"])
def test_assemble_exact_closed_terms(name):
    spec = parse_group(name)
    datum = build_root_system(spec)
    for d in degrees_of(spec):
        terms = closed_terms(datum, datum.fund_residues(datum.lift_degree(d)), 2)
        got, expect = assemble_exact(terms), _product_sum(terms)
        assert got.num.terms == expect.num.terms, d
        assert got.wden == expect.wden, d


def _closed(name, d, g):
    datum = build_root_system(parse_group(name))
    return closed_terms(datum, datum.fund_residues(datum.lift_degree(d)), g)


def test_assemble_exact_built_unchecked(monkeypatch):
    """The assembled numerator comes off the band as nonzero ints at
    non-negative exponents and is not validated again."""
    terms = _closed("GL4", (1,), 3)
    expect = _product_sum(terms).num.terms
    monkeypatch.setattr(ratfun, "_as_int", _no_validation)
    got = assemble_exact(terms).num.terms
    assert got == expect
    assert all(type(c) is int and c and i >= 0 and j >= 0
               for (i, j), c in got.items())


def _no_validation(c):
    raise AssertionError("coefficient validated again")


def test_assemble_empty_term_list():
    assert assemble_exact([]).num.terms == {}
    assert assemble_exact([]).den.terms == {(0, 0): 1}
    for order in (0, 1, 5):
        assert assemble_series([], order) == TruncSeries2(order)


# (1 + u^3)^2 (1 + v^2)(1 + 1)^2 / ((1 - uv)(1 - (uv)^3)), and a term of
# another Levi type
WIDE = FTerm(2, 1, ((3, 0, 2), (0, 2, 1), (0, 0, 2)), Counter({1: 1, 3: 1}))
NARROW = FTerm(-1, 0, ((2, 1, 2), (1, 2, 2)), Counter({1: 1, 2: 1}))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_assemble_series_low_orders(order):
    for terms in ([WIDE], [NARROW], [WIDE, NARROW]):
        _check_series(terms, order)


def test_assemble_cancelling_group():
    """Two terms of one Levi type whose w-parts cancel (C(w) = 0) add
    nothing, beside a term of another type or alone."""
    plus = FTerm(3, 1, WIDE.numfactors, Counter({2: 1}))
    minus = FTerm(-3, 1, WIDE.numfactors, Counter({2: 1}))
    for terms in ([plus, minus], [plus, NARROW, minus]):
        _check_exact(terms)
        for order in (0, 7, 16):
            _check_series(terms, order)
    assert assemble_series([plus, minus], 16).is_zero()
    assert assemble_exact([plus, minus]).num.is_zero()


def test_assemble_series_past_the_exact_degree():
    """The truncated series runs past the exact sum's total degree once it
    is divided by the denominator (SL2 at order 40: the exact numerator has
    degree 12)."""
    datum = build_root_system(SL(2))
    for d in degrees_of(datum.spec):
        terms = closed_terms(datum, datum.fund_residues(datum.lift_degree(d)), 2)
        assert assemble_exact(terms).num.total_degree() < 40
        _check_series(terms, 40)
    _check_series([WIDE], 40)


def _group_cofactor_reference(group, gden):
    """C(w) of one group term by term: each coef * w^shift multiplied by
    prod (1 - w^k)^m over gden - den, then summed, trimmed of trailing
    zeros."""
    C = []
    for t in group:
        s = [0] * t.shift + [t.coef]
        for k, m in gden.items():
            band_reference.times_binomial(s, k, m - t.den.get(k, 0), sub, None)
        C += repeat(0, len(s) - len(C))
        C[:len(s)] = map(add, C, s)
    while C and not C[-1]:
        C.pop()
    return C


def _reference_groups(terms, order=None):
    """(common, {numfactors: (gden, C)}) of the terms with 2 * shift <= order
    (all of them without an order), C by ``_group_cofactor_reference``;
    groups whose C cancels are left out, their denominators kept in
    common."""
    if order is not None:
        terms = [t for t in terms if 2 * t.shift <= order]
    groups = {}
    for t in terms:
        groups.setdefault(t.numfactors, []).append(t)
    kept = {}
    for numfactors, group in groups.items():
        gden = _union_den(group)
        C = _group_cofactor_reference(group, gden)
        if C:
            kept[numfactors] = gden, C
    return _union_den(terms), kept


def _num_degree(numfactors):
    return sum(e * (a + b) for a, b, e in numfactors)


def _tight_order(terms):
    """The exact order read off the groups: the largest total degree of a
    group's term over the common denominator."""
    common, groups = _reference_groups(terms)
    return max((_num_degree(nf) + 2 * (_w_degree(common) - _w_degree(gden) + len(C) - 1)
                for nf, (gden, C) in groups.items()), default=0)


def _old_exact_order(terms):
    """The order at which ``assemble_exact`` assembled terms before the
    order was read off the groups: twice the common denominator's w-degree
    plus the largest term numerator degree, w^shift included."""
    return (2 * _w_degree(_union_den(terms))
            + max((2 * t.shift + _num_degree(t.numfactors) for t in terms), default=0))


def _over_common_den_reference(terms, order=None):
    """The band of ``_over_common_den`` group by group, as it was built
    before the Horner pass: each group's numerator expanded by shift-adds,
    convolved with C(w) one pass per nonzero entry, multiplied by every
    factor of common - gden and added into the band at its offset.  The
    groups that cancel take no part in the layout; without an order the
    band is that of the exact order (``_tight_order``)."""
    common, groups = _reference_groups(terms, order)
    if order is None:
        order = _tight_order(terms)
    lo = min((sum(e * min(a - b, 0) for a, b, e in nf) for nf in groups), default=0)
    W = max((sum(e * max(a - b, 0) for a, b, e in nf) for nf in groups),
            default=0) - lo + 1
    band = [0] * (((order - lo) // 2 + 1) * W)
    for numfactors, (gden, C) in groups.items():
        t0 = next(x for x, c in enumerate(C) if c)
        off = t0 * W - lo
        cap = len(band) - off
        num = [1]
        for a, b, e in numfactors:
            band_reference.times_binomial(num, b * W + a - b, e, add, cap)
        s = [0] * min(cap, len(num) + (len(C) - 1 - t0) * W)
        for x, c in enumerate(C[t0:]):
            if c:
                y = x * W
                s[y:y + len(num)] = map(add, s[y:y + len(num)], map(mul, num, repeat(c)))
        for k, m in (common - gden).items():
            band_reference.times_binomial(s, k * W, m, sub, cap)
        band[off:off + len(s)] = map(add, band[off:off + len(s)], s)
    return common, lo, W, band


def _packed_band(terms, order=None):
    """(common, lo, W, band) of the packed Horner sum, at the slot width of
    its bound, decoded to a list; without an order, the exact sum's band."""
    common, lo, W, n, items, bound = _over_common_den(terms, order)
    B = _width(bound)
    band = [0] * n
    for (p, q), c in _unband(_band_sum(items, n, W, B), n, lo, W, B).items():
        band[q * W + p - q - lo] = c
    return common, lo, W, band


def _check_band(terms, orders=(0, 1, 7, 30)):
    for order in (None, _old_exact_order(terms)) + tuple(orders):
        got = _packed_band(terms, order)
        assert got == _over_common_den_reference(terms, order), order


def _series_reference(terms, order):
    """``assemble_series`` on the list band: the reference band divided by
    the common denominator by list running sums."""
    common, lo, W, band = _over_common_den_reference(terms, order)
    band_reference.over_den(band, common, W)
    return TruncSeries2(order, band_reference.unband(band, lo, W))


class TestExactOrder:
    """``assemble_exact`` reads its order off the groups: the band of the
    benchmark's closed formulas and of the fixed-determinant sum F of GL4
    d=1 g=8 ends at the numerator's top total degree, where the former
    order, 2 wdeg(common) plus the largest term degree, ran past it, and a
    band at that former order decodes the same numerator."""

    @pytest.mark.parametrize("name,d,g,top,old,slots", [
        ("GL8", (3,), 2, 308, 436, 5379), ("Sp6", (0,), 2, 398, 554, 5150),
        ("SO12", (0,), 2, 338, 470, 4400), ("F GL4", (1,), 8, 248, 278, None)])
    def test_band_ends_at_the_top_degree(self, name, d, g, top, old, slots):
        if name.startswith("F "):
            terms = _gl_terms(4, d[0], g, abelian_drop=1)
        else:
            terms = _closed(name, d, g)
        num = assemble_exact(terms).num
        assert num.total_degree() == top == _tight_order(terms)
        _, lo, W, n, _, _ = _over_common_den(terms)
        assert n == ((top - lo) // 2 + 1) * W
        assert slots is None or n == slots
        assert _old_exact_order(terms) == old
        _, lo, W, n, items, bound = _over_common_den(terms, old)
        B = _width(bound)
        assert _unband(_band_sum(items, n, W, B), n, lo, W, B) == num.terms

    def test_cancelled_sum_has_the_least_band(self):
        """A sum whose groups all cancel forms a band of one slot, whatever
        its terms' degrees."""
        plus = FTerm(3, 9, WIDE.numfactors, {2: 4})
        _, lo, W, n, items, _ = _over_common_den([plus, plus._replace(coef=-3)])
        assert (lo, W, n, items) == (0, 1, 1, [])


class TestNoFractionOnTermPath:
    """No Fraction is built between a degree's lift and the band: with
    ``fractions.Fraction`` raising (the modules that build one import it
    at call time), on fresh root data, the closed formula and the
    recursion check give what they give unpatched. Only a stratum's slope,
    projected for the strata CSV, is a Fraction."""

    @staticmethod
    def without_fractions(monkeypatch, call):
        import fractions

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        with monkeypatch.context() as m:
            m.setattr(fractions, "Fraction", refuse)
            build_root_system.cache_clear()
            got = call()
        build_root_system.cache_clear()
        return got, call()

    @pytest.mark.parametrize("name,d", [("GL8", (3,)), ("Sp6", (0,)), ("GL3xSO5", (2, 1))])
    def test_closed_formula(self, monkeypatch, name, d):
        got, expect = self.without_fractions(
            monkeypatch, lambda: hp_semistable_closed(parse_group(name), d, 2))
        assert got.num == expect.num and got.wden == expect.wden

    @pytest.mark.parametrize("name,d,order", [("GL5", (2,), 40), ("GL3xSO5", (2, 1), 30)])
    def test_recursion_check(self, monkeypatch, name, d, order):
        from hodge_series.recursion import verify_recursion

        got, expect = self.without_fractions(
            monkeypatch, lambda: verify_recursion(parse_group(name), d, 2, order))
        assert got == expect and got.match


class TestHornerBand:
    """The Horner pass of ``_band_sum`` over the groups of
    ``_over_common_den`` against the group-by-group reference: the same
    (common, lo, W, band), the packed band decoded to a list."""

    @pytest.mark.parametrize("name,d,g", [
        ("GL8", (3,), 2), ("Sp6", (0,), 2), ("SO12", (1,), 2), ("GL4", (1,), 8)])
    def test_closed_terms(self, name, d, g):
        _check_band(_closed(name, d, g))

    def test_fixed_det_terms(self):
        _check_band(_gl_terms(4, 1, 8, abelian_drop=1))

    @settings(max_examples=80, deadline=None)
    @given(fterm_lists, st.integers(0, 16))
    def test_random_term_lists(self, terms, order):
        _check_band(terms, (0, 1, order))

    def test_cofactor_starts_past_the_band(self):
        """Groups whose C(w) cancels at its lowest powers, so that at low
        orders their first entry lies at or past the band's end:
        C = 1 - (1 - w) = w alone (offset W = 2, band of 2 entries at orders
        0 and 1), and C = 1 - (1 - w^2) = w^2 beside NARROW (offset
        2 W - lo = 12, band of 10 entries)."""
        at_end = [FTerm(1, 0, ((1, 0, 1),), Counter({1: 1})),
                  FTerm(-1, 0, ((1, 0, 1),), Counter())]
        past_end = [FTerm(1, 0, ((0, 1, 1),), Counter({2: 1})),
                    FTerm(-1, 0, ((0, 1, 1),), Counter())]
        assert _group_cofactor(at_end) == ({1: 1}, [0, 1])
        assert _group_cofactor(past_end) == ({2: 1}, [0, 0, 1])
        for terms in (at_end, past_end, past_end + [NARROW], [NARROW] + past_end,
                      at_end + [NARROW] + past_end):
            _check_band(terms, (0, 1, 2, 3, 4))
            for order in (0, 1, 2, 5):
                _check_series(terms, order)
            _check_exact(terms)
        assert not any(_packed_band(at_end, 1)[3])
        assert any(_packed_band(at_end, 2)[3])
        assert len(_packed_band(past_end + [NARROW], 0)[3]) == 10

    def test_single_group(self):
        """Nothing is shared: every letter of the lone group is its own."""
        one = [WIDE, FTerm(-5, 2, WIDE.numfactors, Counter({2: 2}))]
        for terms in ([WIDE], [NARROW], one):
            _check_band(terms, (0, 1, 2, 7, 30))
            _check_exact(terms)

    def test_letter_common_to_every_group(self):
        """(1 + u)^2 divides every numerator, with other factors and
        denominators around it that the groups do not all share."""
        nfs = [((1, 0, 2), (2, 1, 1)), ((1, 0, 3),), ((0, 1, 1), (1, 0, 2)),
               ((1, 0, 2), (2, 1, 1), (1, 2, 1))]
        terms = [FTerm((-1) ** i, i, nf, Counter({1 + i: 1, 2: i % 2}))
                 for i, nf in enumerate(nfs)]
        _check_band(terms, (0, 1, 2, 7, 30))
        _check_exact(terms)
        for order in (0, 5, 16):
            _check_series(terms, order)

    def test_512_groups(self, monkeypatch):
        """GL10's 512 closed terms, and two lists of 512 terms of 512 Levi
        types each, assemble at the interpreter's own recursion limit: the recursion takes at
        least one letter off every group it enters, so it goes no deeper
        than the letters of one group, however many groups there are."""
        limit = sys.getrecursionlimit()
        depth = [0, 0]  # current, deepest
        horner = formulas._horner

        def tracked(*args):
            depth[0] += 1
            depth[1] = max(depth)
            try:
                return horner(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(formulas, "_horner", tracked)
        pool = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 0), (0, 2), (1, 1)]
        many = [FTerm(1 - 2 * (i % 3 == 0), i % 4,
                      tuple((a, b, 1 + (i + j) % 2)
                            for j, (a, b) in enumerate(pool) if i >> j & 1),
                      Counter({1 + i % 5: 1, 2 + i % 7: 1}))
                for i in range(512)]
        # no two groups share a numerator factor
        lone = [FTerm(1 + i % 3, i % 5, ((i, 0, 1),), Counter({1: i % 2}))
                for i in range(1, 513)]
        assert len({t.numfactors for t in many}) == 512
        gl10 = _closed("GL10", (1,), 2)
        assert len(gl10) == 512
        for terms, orders in ((many, (0, 1, 12)), (lone, (0, 5)), (gl10, (0, 7, 30))):
            depth[1] = 0
            for order in orders:
                got = _packed_band(terms, order)
                assert got == _over_common_den_reference(terms, order)
            letters = (max(sum(e for _, _, e in t.numfactors) for t in terms)
                       + sum(_union_den(terms).values()))
            assert 1 <= depth[1] <= 1 + letters
        assert sys.getrecursionlimit() == limit


@st.composite
def cancelling_groups(draw):
    """(group, whole): terms of one Levi type, some of them paired with an
    exact negative (the same shift over an equal den, a new Counter, at
    times without its zero multiplicities), and with whole every term so
    paired; shuffled."""
    nf = draw(numfactor_tuples())
    pairs = draw(st.lists(fterms(nf), max_size=3))
    whole = draw(st.booleans())
    group = [] if whole else draw(st.lists(fterms(nf), max_size=5))
    for t in pairs:
        den = +t.den if draw(st.booleans()) else Counter(t.den)
        group += [t, t._replace(coef=-t.coef, den=den)]
    return draw(st.permutations(group)), whole


class TestGroupCofactor:
    """``_group_cofactor`` sums a group's terms per denominator and
    multiplies each nonzero sum once; the term-by-term reference multiplies
    every term."""

    @settings(max_examples=150, deadline=None)
    @given(cancelling_groups())
    @example(([FTerm(1, 2, ((1, 0, 1),), Counter({1: 1, 3: 2})),
               FTerm(-1, 2, ((1, 0, 1),), Counter({3: 2, 1: 1}))], True))
    def test_against_term_by_term(self, drawn):
        group, whole = drawn
        gden, C = _group_cofactor(group)
        assert gden == _union_den(group)
        assert C == _group_cofactor_reference(group, gden)
        if whole:
            assert C == []

    def test_cancelled_denominator_stays_in_the_union(self):
        """A denominator whose terms cancel adds nothing to C but still
        counts in gden, and so in the common denominator of the sum."""
        nf = ((1, 0, 1),)
        group = [FTerm(3, 1, nf, Counter({1: 1})),
                 FTerm(2, 0, nf, Counter({4: 1})), FTerm(-2, 0, nf, Counter({4: 1}))]
        assert _group_cofactor(group) == ({1: 1, 4: 1}, [0, 3, 0, 0, 0, -3])
        common, *_ = _over_common_den(group, 30)
        assert common == {1: 1, 4: 1}
        _check_exact(group)


def test_composition_sums_build_a_parts_once_per_levi_type(monkeypatch):
    """Each composition sum reads the parts of a(L) from its own table,
    keyed by the Levi type (dim Z, sorted exponents): GL5 has 16
    compositions but 7 Levi types, the compositions with equal multisets of
    parts sharing one, (2, 3) and (3, 2) included, whose exponents come
    block by block as (2, 2, 3) and (2, 3, 2); a second call builds its own
    table."""
    calls = []
    real = formulas._a_parts
    monkeypatch.setattr(formulas, "_a_parts", lambda *a: calls.append(a) or real(*a))
    terms = formulas._classical_terms("GL", 5, 1, 2)
    assert len(terms) == 16 and len(calls) == 7
    comps = formulas._compositions(5)
    assert terms[comps.index((2, 3))].numfactors is terms[comps.index((3, 2))].numfactors
    assert formulas._classical_terms("GL", 5, 1, 2) == terms and len(calls) == 14
    for family, rank in (("SL", 5), ("SOodd", 5), ("Sp", 5), ("SOeven", 5)):
        calls.clear()
        terms = formulas._classical_terms(family, rank, 0, 2)
        assert len(calls) == len(set(calls)) == len({t.numfactors for t in terms})


class TestNonIntegralExponent:
    def test_closed_terms(self):
        """SL2 with <varpi(d)> = 1/3: the term of I = {0} would have
        exponent (g - 1) dim U + 2 * 1/3 = 1 + 2/3."""
        datum = build_root_system(SL(2))
        with pytest.raises(NonIntegralExponent):
            closed_terms(datum, (3, (1,)), 2)
        assert [t.shift for t in closed_terms(datum, (2, (1,)), 2)] == [0, 2]

    def test_levi_term(self):
        """A wall numerator n = 1 over D = 3: 1 * 3 + 2 * 1 = 5 is not a
        multiple of 3; n = 3 gives the exponent 1 + 2 = 3."""
        with pytest.raises(NonIntegralExponent):
            formulas._levi_term({}, 1, 1, (), 1, [(2, 1)], 2, 3)
        assert formulas._levi_term({}, 1, 1, (), 1, [(2, 3)], 2, 3).shift == 3


@st.composite
def big_fterms(draw):
    """Terms with coefficients up to 2^200 and numerator multiplicities up to
    6, which carry coefficients near 2^62 or 2^126 across 2^63 or 2^127."""
    numf = tuple((draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 6)))
                 for _ in range(draw(st.integers(0, 3))))
    den = Counter(draw(st.dictionaries(st.integers(1, 4), st.integers(0, 3))))
    return FTerm(draw(band_reference.big_coefs), draw(st.integers(0, 3)), numf, den)


class TestSlotWidth:
    """The packed band against the list band of ``band_reference``, with
    coefficients that need slots of 64, 128 and more bits."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(big_fterms(), min_size=1, max_size=4), st.integers(0, 16))
    @example([FTerm((1 << 62) + 1, 0, ((1, 0, 2),), Counter())], 4)
    @example([FTerm(-(1 << 126) - 1, 1, ((0, 1, 3),), Counter({2: 2}))], 9)
    def test_sums_against_the_list_band(self, terms, order):
        _check_band(terms, (order,))
        assert assemble_series(terms, order) == _series_reference(terms, order)

    @pytest.mark.parametrize("B", [64, 128, 192])
    @settings(max_examples=30, deadline=None)
    @given(st.lists(big_fterms(), min_size=1, max_size=4), st.integers(0, 16))
    @example([FTerm(-(1 << 126) - 1, 1, ((0, 1, 3),), Counter({2: 2, 1: 1}))], 12)
    def test_series_at_forced_widths(self, B, terms, order):
        """The truncated sum's running sums, one int per row, against the
        list band with slots of at least 64, 128 and 192 bits."""
        real = formulas._width
        with patch.object(formulas, "_width", lambda bound: max(real(bound), B)):
            assert assemble_series(terms, order) == _series_reference(terms, order)

    @pytest.mark.parametrize("coef,e,width,top", [
        ((1 << 61) + 1, 1, 64, 62), ((1 << 62) + 1, 2, 128, 64),
        ((1 << 125) + 1, 1, 128, 126), ((1 << 126) + 1, 2, 192, 128)])
    def test_width_follows_the_bound(self, coef, e, width, top):
        """coef * (1 + u)^e needs a wider slot exactly when its bound
        |coef| * 2^e reaches 2^63 or 2^127; its largest coefficient, of
        top bits, is read back exactly."""
        for sign in (1, -1):
            terms = [FTerm(sign * coef, 0, ((1, 0, e),), Counter())]
            *_, bound = _over_common_den(terms, e)
            assert _width(bound) == width
            got = assemble_exact(terms).num.terms
            assert got == {(i, 0): sign * coef * c for i, c in enumerate((1, e, 1)[:e + 1]) if c}
            assert max(map(abs, got.values())).bit_length() == top
            _check_band(terms, (0, 1, e))


def _negated(terms):
    return [t._replace(coef=-t.coef) for t in terms]


@st.composite
def equal_rewrites(draw, terms):
    """The same sum written otherwise, term by term: numerator factors
    reordered, a coef split in two, and 1 / (1 - w^k) split as
    1 + w^k / (1 - w^k); then the list shuffled."""
    out = []
    for t in terms:
        t = t._replace(numfactors=tuple(draw(st.permutations(t.numfactors))))
        if draw(st.booleans()):
            part = draw(st.sampled_from([-2, -1, 1, 2]))
            out.append(t._replace(coef=part))
            t = t._replace(coef=t.coef - part)
        ks = sorted(k for k, m in t.den.items() if m > 0)
        if ks and draw(st.booleans()):
            k = draw(st.sampled_from(ks))
            out.append(t._replace(den=t.den - Counter({k: 1})))
            t = t._replace(shift=t.shift + k)
        out.append(t)
    return draw(st.permutations(out))


class TestDifferenceSum:
    """One list, one side's terms and the other's negated, sums to zero
    exactly when the two sides' sums are equal: exactly, and truncated at
    every order."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_exactly_when_equal(self, data):
        a = data.draw(fterm_lists)
        kind = data.draw(st.sampled_from(["other", "equal", "plus one term"]))
        if kind == "other":
            b = data.draw(fterm_lists)
        else:
            b = data.draw(equal_rewrites(a))
            if kind == "plus one term":
                b.append(data.draw(fterms()))
        diff = a + _negated(b)
        zero = assemble_exact(diff).num.is_zero()
        assert zero == assemble_exact(a).rat_eq(assemble_exact(b))
        if kind != "other":
            assert zero == (kind == "equal")
        for order in (0, 7, 30):
            assert (assemble_series(diff, order).is_zero()
                    == (assemble_series(a, order) == assemble_series(b, order)))

    @pytest.mark.parametrize("family,rank,d,g", [
        ("GL", 4, 1, 2), ("SL", 3, 0, 3), ("SOodd", 3, 1, 2), ("Sp", 4, 0, 2),
        ("SOeven", 4, 1, 3)])
    def test_classical_difference_terms(self, family, rank, d, g):
        """The composition sum's terms, then the closed formula's negated;
        their sum is zero, and dropping either side's last term breaks it."""
        spec = GroupSpec(((family, rank),))
        classical = formulas._classical_terms(family, rank, d, g)
        closed = closed_terms(*formulas._datum_residues(spec, (d,)), g)
        terms = formulas.classical_difference_terms(family, rank, d, g)
        assert terms == classical + _negated(closed)
        assert assemble_exact(terms).num.is_zero()
        assert assemble_series(terms, 24).is_zero()
        for broken in (terms[:len(classical) - 1] + terms[len(classical):], terms[:-1]):
            assert not assemble_exact(broken).num.is_zero()


class TestModuliSpace:
    def test_not_good_case(self):
        with pytest.raises(NotGoodCase):
            hp_moduli_space(GL(2), (0,), 2)

    def test_rank2_polynomial(self):
        g = 2
        got = hp_moduli_space(GL(2), (1,), g)
        expect = RatFun2((1 + U) ** g * (1 + V) ** g) * RatFun2(
            (1 + mono(2, 1)) ** g * (1 + mono(1, 2)) ** g - mono(g, g) * ((1 + U) * (1 + V)) ** g,
            {1: 1, 2: 1})
        assert got.rat_eq(expect)

    def test_gl3_degree_bound(self):
        g = 2
        p = to_polynomial(hp_moduli_space(GL(3), (1,), g), 2 * ((g - 1) * 9 + 1))
        assert p.total_degree() == 2 * ((g - 1) * 9 + 1)

    def test_moduli_chi_t_vanishes(self):
        val = specialize(hp_moduli_space(GL(2), (1,), 2), "chi_t")
        assert val.rat_eq(RatFun1(UniPoly()))

    @pytest.mark.parametrize("g", [2, 3])
    def test_terms_equal_division_of_stack_denominator(self, g):
        # reference: the stack series, whose denominator multiset has m more
        # factors 1 - uv, m = dim Z_G, over the same numerator
        names = ["GL%d" % r for r in range(1, 7)] + ["SO%d" % n for n in range(3, 10)] + [
            "Sp2", "Sp3", "SL3", "GL2xGL3", "GL2xSO5", "GL1xGL2", "SO5xSO5", "GL3xSO5"]
        cases = [(spec, d) for spec in map(parse_group, names)
                 for d in degrees_of(spec) if good_case(spec, d)]
        assert len(cases) == 17
        for spec, d in cases:
            stack = hp_semistable_closed(spec, d, g)
            m = build_root_system(spec).dim_z
            got = hp_moduli_space(spec, d, g)
            assert got.num.terms == stack.num.terms, (spec, d, g)
            assert got.wden + Counter({1: m}) == stack.wden, (spec, d, g)


class TestFixedDet:
    def rank2_reference(self, g):
        b = (1 + mono(2, 1)) * (1 + mono(1, 2))
        c = mono(1, 1) * (1 + U) * (1 + V)
        return sum((b ** (g - 1 - k) * c ** k for k in range(g)), BivarPoly())

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_rank2(self, g):
        assert hp_moduli_fixed_det(2, 1, g) == self.rank2_reference(g)

    def test_rank2_g2_expansion(self):
        # (1+u^2 v)(1+u v^2) + uv(1+u)(1+v), cross-checked at u=v=t against
        # the classical Betti numbers 1, 0, 1, 4, 1, 0, 1
        p = to_polynomial(hp_moduli_fixed_det(2, 1, 2), 6)
        assert p == BivarPoly({(0, 0): 1, (1, 1): 1, (2, 1): 2, (1, 2): 2,
                               (2, 2): 1, (3, 3): 1})
        assert p.diagonal() == UniPoly({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            hp_moduli_fixed_det(2, 0, 2)

    def test_self_check_runs_on_every_call(self, monkeypatch):
        """Every call builds the GL_r stack term list once, and a wrong stack
        term (the series plus 1, over the same denominator) fails the
        numerator comparison."""
        stacks = []
        real = formulas.closed_terms

        def closed(*args, **kwargs):
            stacks.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(formulas, "closed_terms", closed)
        hp_moduli_fixed_det(2, 1, 2)
        hp_moduli_fixed_det(2, 1, 2)
        assert len(stacks) == 2
        monkeypatch.setattr(formulas, "closed_terms", lambda *args, **kwargs:
                            closed(*args, **kwargs) + [FTerm(1, 0, (), Counter())])
        with pytest.raises(FactorizationFailed):
            hp_moduli_fixed_det(2, 1, 2)
        assert len(stacks) == 3

    def test_denominator_multiset_certificate(self, monkeypatch):
        """A stack sum whose numerators are right but whose every term has
        one denominator factor 1 - w^7 too many fails the certificate."""
        real = formulas.closed_terms
        monkeypatch.setattr(formulas, "closed_terms", lambda *args, **kwargs: [
            t._replace(den=Counter(t.den) + Counter({7: 1})) for t in real(*args, **kwargs)])
        with pytest.raises(FactorizationFailed):
            hp_moduli_fixed_det(3, 1, 2)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_lift_is_the_gl_composition_sum(self, r):
        """Each fixed-determinant term times the Jacobian factor is the GL_r
        composition sum's term: coefficient, shift, the numerator factors
        in their order and the denominator."""
        for d in [d for d in range(-1, r + 2) if gcd(r, d) == 1]:
            for g in (2, 3, 8):
                lifted = [formulas._jacobian_lift(t, g)
                          for t in _gl_terms(r, d, g, abelian_drop=1)]
                assert lifted == _gl_terms(r, d, g), (r, d, g)

    @staticmethod
    def bands(monkeypatch):
        """The (n, W, band) of every band ``_band_sum`` forms, one with
        items to sum."""
        formed = []
        real = formulas._band_sum

        def spy(items, n, W, B):
            X = real(items, n, W, B)
            if items:
                formed.append((n, W, X))
            return X

        monkeypatch.setattr(formulas, "_band_sum", spy)
        return formed

    @pytest.mark.parametrize("r,d,g", [
        (r, d, g) for r in range(2, 9) for d in range(-1, r + 2) if gcd(r, d) == 1
        for g in ((2, 3, 8) if r <= 6 else (2, 3))])
    def test_one_band_per_call(self, monkeypatch, r, d, g):
        """Through GL8 every lifted term of the difference sum cancels a
        closed-formula term in its group's cofactor, the two sides carrying
        the same canonical numerators, so the one band formed is the
        fixed-determinant sum's, the one divided."""
        formed = self.bands(monkeypatch)
        hp_moduli_fixed_det(r, d, g)
        _, _, W, n, _, _ = _over_common_den(_gl_terms(r, d, g, abelian_drop=1))
        assert [(n_, W_) for n_, W_, _ in formed] == [(n, W)]

    def test_quotient_decodes_only_rows_within_the_bound(self, monkeypatch):
        """GL4 d=1 g=8: of the quotient's rows, only those that can hold a
        total degree <= 2 (g - 1)(r^2 - 1) = 210 are decoded."""
        decoded = []
        real = ratfun._unband

        def spy(X, n, lo, W, B):
            decoded.append((n, lo, W))
            return real(X, n, lo, W, B)

        monkeypatch.setattr(ratfun, "_unband", spy)
        hp_moduli_fixed_det(4, 1, 8)
        ((n, lo, W),) = decoded
        assert n // W == (210 - lo) // 2 + 1 and lo < 0

    @staticmethod
    def broken_pair(monkeypatch, extra):
        """Add the term extra to the fixed-determinant sum and its Jacobian
        lift, (1 + u)^g (1 + v)^g / (1 - uv) times it, to the stack sum, so
        that the factorization certificate still holds; returns the list of
        exceptions that ``_exact_quotient`` raised."""
        gl_terms, closed = formulas._gl_terms, formulas.closed_terms
        g = 2
        lift = FTerm(extra.coef, extra.shift,
                     extra.numfactors + ((1, 0, g), (0, 1, g)),
                     extra.den + Counter({1: 1}))
        monkeypatch.setattr(formulas, "_gl_terms",
                            lambda *a, **k: gl_terms(*a, **k) + [extra])
        monkeypatch.setattr(formulas, "closed_terms",
                            lambda *a, **k: closed(*a, **k) + [lift])
        raised = []
        quotient = formulas._exact_quotient

        def spy(*args):
            try:
                return quotient(*args)
            except NotDivisible as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(formulas, "_exact_quotient", spy)
        return raised

    def test_division_certificate_not_a_multiple(self, monkeypatch):
        """Plus 1 / (1 - w): the numerator is no multiple of the
        denominator, and the shared exact division says so."""
        raised = self.broken_pair(monkeypatch, FTerm(1, 0, (), Counter({1: 1})))
        with pytest.raises(NotPolynomialWithinBound):
            hp_moduli_fixed_det(2, 1, 2)
        assert len(raised) == 1

    def test_division_certificate_rows_above_the_bound(self, monkeypatch):
        """Plus w^10: the division is exact, but the quotient has a nonzero
        row above those that can hold total degree <= 6, and no row is
        decoded."""
        raised = self.broken_pair(monkeypatch, FTerm(1, 10, (), Counter()))
        decoded = []
        monkeypatch.setattr(ratfun, "_unband", lambda *args: decoded.append(args))
        with pytest.raises(NotPolynomialWithinBound):
            hp_moduli_fixed_det(2, 1, 2)
        assert raised == [] and decoded == []

    def test_division_certificate_degree_bound(self, monkeypatch):
        """Plus w^4: the division is exact, but the quotient's total degree
        8 is above the bound 2 (g - 1)(r^2 - 1) = 6."""
        raised = self.broken_pair(monkeypatch, FTerm(1, 4, (), Counter()))
        with pytest.raises(NotPolynomialWithinBound):
            hp_moduli_fixed_det(2, 1, 2)
        assert raised == []

    @staticmethod
    def old_route(r, d, g):
        """The fixed-determinant polynomial as it was computed before the
        shared band: the composition sum assembled on its own, its
        numerator lifted by the Jacobian factor and compared with the GL_r
        closed formula, then divided exactly by its denominator."""
        fd = assemble_exact(_gl_terms(r, d, g, abelian_drop=1))
        stack = hp_semistable_closed(GL(r), (d,), g)
        assert fd.wden + Counter({1: 1}) == stack.wden
        assert band_reference.mul_binomials(fd.num.terms, ((1, 0, g), (0, 1, g))) \
            == stack.num.terms
        q = fd.num.divide_exact(fd.wden)
        assert q.total_degree() <= 2 * (g - 1) * (r * r - 1)
        return q.terms

    @pytest.mark.parametrize("r,d,g", [
        (r, d, g) for r in range(1, 6)
        for d in [d for d in range(1, r + 1) if gcd(r, d) == 1] + [-1, r + 1]
        for g in (2, 3, 4)] + [(4, 1, 8), (4, 3, 8)])
    def test_matches_the_old_route(self, r, d, g):
        assert hp_moduli_fixed_det(r, d, g).terms == self.old_route(r, d, g)

    def test_large_genus_opt_in(self):
        assert hp_moduli_fixed_det(2, 1, 9) == \
            self.rank2_reference(9)

    @pytest.mark.parametrize("r,d,g", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_polynomial_with_dimension_bound(self, r, d, g):
        bound = 2 * (g - 1) * (r * r - 1)
        p = to_polynomial(hp_moduli_fixed_det(r, d, g), bound)
        assert p.total_degree() <= bound

    @pytest.mark.parametrize("r,d,g", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_poincare_duality(self, r, d, g):
        # the good-case moduli space is smooth projective of dimension
        # n = (g-1)(r^2-1), so h^{p,q} = h^{n-p,n-q}
        n = (g - 1) * (r * r - 1)
        p = to_polynomial(hp_moduli_fixed_det(r, d, g), 2 * n)
        assert p.coeff(n, n) >= 1 and p.coeff(0, 0) == 1
        for (i, j), c in p.terms.items():
            assert p.coeff(n - i, n - j) == c, (i, j)


class TestSpecialize:
    def test_chi_t_rank3(self):
        p = to_polynomial(hp_moduli_fixed_det(3, 1, 2), 16)
        assert specialize(p, "chi_t") == chi_t_fixed_det_formula(3, 2)

    def test_chi_t_formula_value(self):
        # r=2, g=2: (1+t)(1-t^2)
        assert chi_t_fixed_det_formula(2, 2) == UniPoly({0: 1, 1: 1, 2: -1, 3: -1})

    def test_euler_signature_zero(self):
        p = to_polynomial(hp_moduli_fixed_det(2, 1, 2), 6)
        assert specialize(p, "euler") == 0
        assert specialize(p, "signature") == 0

    def test_poincare_specialization_of_stack(self):
        for name in ("GL1", "GL2", "GL3", "SL2", "SO5", "Sp2", "SO6"):
            spec = parse_group(name)
            for g in (2, 3):
                assert a_series(spec, g).diagonal().rat_eq(
                    stack_poincare_series(spec, g))

    def test_stack_poincare_gl1(self):
        # (1+t)^{2g} / (1-t^2)
        f = stack_poincare_series(GL(1), 2)
        assert f.rat_eq(RatFun1(UniPoly({0: 1, 1: 1}) ** 4,
                                UniPoly({0: 1, 2: -1})))
