"""Unit and property tests for the exact bivariate arithmetic layer."""

import re
from collections import Counter
from fractions import Fraction
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import band_reference
from hodge_series import ratfun
from hodge_series.ratfun import (
    ONE,
    U,
    V,
    BivarPoly,
    NotDivisible,
    NotPolynomialWithinBound,
    RatFun2,
    TruncSeries2,
    UniPoly,
    RatFun1,
    ZeroDenominatorAfterSubstitution,
    _band,
    _exact_quotient,
    _l1,
    _layout,
    _series_growth,
    _times_binomial,
    _unband,
    _wden,
    _width,
    to_polynomial,
)

W = BivarPoly.monomial(1, 1)


def poly(d):
    return BivarPoly(d)


class TestPolyOps:
    def test_mul_simple(self):
        assert (1 + U) * (1 + V) == poly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_pow_zero(self):
        assert (1 + W) ** 0 == ONE

    def test_difference_of_squares(self):
        assert (1 - W) * (1 + W) == 1 - BivarPoly.monomial(2, 2)

    def test_add_cancels(self):
        assert ((1 + U) - (1 + U)).is_zero()

    def test_zero_coefficients_dropped(self):
        assert poly({(1, 1): 0, (0, 0): 2}).terms == {(0, 0): 2}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly({(-1, 0): 1})


# (constructor from a coefficient dict, the dict it stores)
@pytest.mark.parametrize("build,stored", [
    (BivarPoly, lambda p: p.terms),
    (lambda terms: TruncSeries2(4, terms), lambda s: s.coeffs),
], ids=["BivarPoly", "TruncSeries2"])
class TestCoefficientValidation:
    def test_integral_fraction_stored_as_int(self, build, stored):
        stored = stored(build({(1, 0): Fraction(4, 2), (0, 1): 3}))
        assert stored == {(1, 0): 2, (0, 1): 3}
        assert all(type(c) is int for c in stored.values())

    def test_proper_fraction_rejected(self, build, stored):
        with pytest.raises(TypeError):
            build({(1, 0): Fraction(1, 2)})

    @pytest.mark.parametrize("key,exc", [
        ((0.5, 1), TypeError), ((1, 2.0), TypeError), ((Fraction(1, 2), 0), TypeError),
        ((-1, 1), ValueError), ((0, -3), ValueError)])
    def test_bad_exponent_rejected(self, build, stored, key, exc):
        """An exponent is an integer >= 0: a float or a proper fraction
        raises TypeError and a negative one ValueError; an integral
        Fraction is stored as an int."""
        with pytest.raises(exc):
            build({key: 1})
        (kept,) = stored(build({(Fraction(2), 1): 1}))
        assert kept == (2, 1) and all(type(x) is int for x in kept)


class TestExactConstructors:
    """A coefficient or exponent that is not an integer is refused, never
    rounded: a float (even an integral one) or a non-integral rational
    raises TypeError naming it.  UniPoly keeps non-integral rational
    coefficients, the values of a substitution, and refuses floats."""

    @pytest.mark.parametrize("terms,bad", [
        ({(1, 0): 2.7}, "2.7"), ({(0, 0): 0.5}, "0.5"), ({(0, 0): 3.0}, "3.0"),
        ({(0, 0): Fraction(1, 2)}, "Fraction(1, 2)"), ({(1.7, 0): 3}, "1.7"),
        ({(0, Fraction(3, 2)): 1}, "Fraction(3, 2)")])
    def test_bivar_poly(self, terms, bad):
        with pytest.raises(TypeError, match=re.escape(bad)):
            BivarPoly(terms)

    @pytest.mark.parametrize("coeffs,bad", [
        ({(0, 1): 1.9}, "1.9"), ({(0, 0): 0.0}, "0.0"), ({(5, 0): 0.5}, "0.5"),
        ({(1, 1): Fraction(-7, 3)}, "Fraction(-7, 3)")])
    def test_trunc_series(self, coeffs, bad):
        with pytest.raises(TypeError, match=re.escape(bad)):
            TruncSeries2(3, coeffs)

    @pytest.mark.parametrize("terms,bad", [
        ({1.7: 3}, "1.7"), ({2.0: 1}, "2.0"), ({Fraction(1, 2): 1}, "Fraction(1, 2)"),
        ({1: 0.5}, "0.5"), ({0: 2.0}, "2.0")])
    def test_uni_poly(self, terms, bad):
        with pytest.raises(TypeError, match=re.escape(bad)):
            UniPoly(terms)

    def test_integral_values_kept_exactly(self):
        assert BivarPoly({(Fraction(2), 1): Fraction(6, 3)}).terms == {(2, 1): 2}
        p = UniPoly({Fraction(2): Fraction(4, 2), 1: Fraction(1, 2)})
        assert p.terms == {2: 2, 1: Fraction(1, 2)}
        assert [type(k) for k in p.terms] == [int, int] and type(p.terms[2]) is int


class TestDivision:
    def test_exact(self):
        assert (1 - BivarPoly.monomial(2, 2)).divide_exact({1: 1}) == 1 + W

    def test_square(self):
        assert ((1 - W) ** 2).divide_exact({1: 1}) == 1 - W

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            (1 + U + W).divide_exact({1: 1})

    def test_zero_and_empty_multiset(self):
        assert BivarPoly().divide_exact({2: 3}).is_zero()
        assert (1 + U).divide_exact({}) == 1 + U

    def test_quotient_built_unchecked(self, monkeypatch):
        """The quotient comes off the band as nonzero ints at non-negative
        exponents and is not validated again, coefficient by coefficient."""
        num = (1 + U) ** 3 * (1 + V) ** 2 * (1 - W) * (1 - BivarPoly.monomial(3, 3)) ** 2
        expect = ((1 + U) ** 3 * (1 + V) ** 2).terms
        monkeypatch.setattr(ratfun, "_as_int", _no_validation)
        q = num.divide_exact({1: 1, 3: 2})
        assert q.terms == expect
        assert all(type(c) is int and c and i >= 0 and j >= 0
                   for (i, j), c in q.terms.items())


def _no_validation(c):
    raise AssertionError("coefficient validated again")


class TestDenominatorMultiset:
    @pytest.mark.parametrize("wden", [{0: 1}, {-1: 1}, {1: -1}, {1.0: 1},
                                      {1: 1.5}, {"1": 1}])
    def test_malformed_rejected(self, wden):
        with pytest.raises(ValueError):
            RatFun2(ONE, wden)
        with pytest.raises(ValueError):
            ONE.divide_exact(wden)

    def test_zero_multiplicity_dropped(self):
        r = RatFun2(ONE, {1: 0, 2: 1})
        assert r.wden == {2: 1}
        assert r.rat_eq(RatFun2(ONE, {2: 1}))

    def test_den_expands_the_product(self):
        assert RatFun2(ONE, {1: 2, 3: 1}).den == (1 - W) ** 2 * (1 - BivarPoly.monomial(3, 3))
        assert RatFun2(ONE).den == ONE


class TestRatOps:
    def test_semantic_zero(self):
        r = RatFun2(ONE, {1: 1})
        assert (r + (-r)).num.is_zero()
        assert (r - r).rat_eq(RatFun2(BivarPoly(), {1: 2}))

    def test_mul(self):
        r = RatFun2(1 + U, {1: 1}) * RatFun2(1 + V)
        assert r.rat_eq(RatFun2((1 + U) * (1 + V), {1: 1}))

    def test_rat_eq_examples(self):
        assert RatFun2(1 - BivarPoly.monomial(2, 2), {1: 1}).rat_eq(RatFun2(1 + W))
        assert not RatFun2(ONE, {1: 1}).rat_eq(RatFun2(ONE, {2: 1}))
        assert RatFun2(BivarPoly(), {1: 1}).rat_eq(RatFun2(BivarPoly(), {2: 1}))

    def test_rat_eq_equal_denominators(self):
        den = {2: 1, 1: 1}
        assert RatFun2(1 + V, den).rat_eq(RatFun2(1 + V, {1: 1, 2: 1}))
        assert not RatFun2(1 + U, den).rat_eq(RatFun2(1 + V, den))
        assert not RatFun2(1 + U, den).rat_eq(RatFun2(BivarPoly(), den))

    def test_rat_eq_equal_denominators_multiplies_nothing(self, monkeypatch):
        den = {1: 1, 2: 1}
        a, b = RatFun2(1 + U, den), RatFun2(1 + V, den)
        c = RatFun2(1 - BivarPoly.monomial(2, 2), {1: 1})
        products = []
        mul = BivarPoly.__mul__

        def counting(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(BivarPoly, "__mul__", counting)
        assert a.rat_eq(a) and not a.rat_eq(b)
        assert products == []
        # unequal denominators: only the side lacking 1 - uv is multiplied
        assert c.rat_eq(RatFun2(1 + W))
        assert len(products) == 1


class TestExpand:
    def test_geometric(self):
        s = RatFun2(ONE, {1: 1}).expand(3)
        assert s == TruncSeries2(3, {(0, 0): 1, (1, 1): 1})

    def test_derived_square_case(self):
        # (1+u)^2 (1+v)^2 / (1-uv) expanded to total degree 2:
        # (1+2u+u^2)(1+2v+v^2)(1+uv+...) = 1 + 2u + 2v + u^2 + 5uv + v^2 + ...
        r = RatFun2((1 + U) ** 2 * (1 + V) ** 2, {1: 1})
        assert r.expand(2) == TruncSeries2(
            2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 5, (0, 2): 1})

    def test_alternating(self):
        # (1 - w) / (1 - w^2) = 1 / (1 + w)
        s = RatFun2(1 - W, {2: 1}).expand(4)
        assert s == TruncSeries2(4, {(0, 0): 1, (1, 1): -1, (2, 2): 1})

    def test_polynomial_truncated(self):
        # terms past the order are dropped, whatever their v-degree
        p = 1 + U ** 5 + V ** 3 + BivarPoly.monomial(1, 1)
        assert RatFun2(p).expand(2) == TruncSeries2(2, {(0, 0): 1, (1, 1): 1})


class TestSeriesOps:
    def test_mul(self):
        s = TruncSeries2(2, {(0, 0): 1, (1, 1): 1})
        assert s * s == TruncSeries2(2, {(0, 0): 1, (1, 1): 2})

    def test_add_to_zero(self):
        a = TruncSeries2(3, {(0, 0): 1, (1, 0): 1})
        assert (a + (-a)).is_zero()

    def test_mismatched_orders_take_min(self):
        a = TruncSeries2(5, {(0, 0): 1, (2, 2): 1})
        b = TruncSeries2(3, {(1, 1): 1})
        assert (a + b) == TruncSeries2(3, {(0, 0): 1, (1, 1): 1})
        assert (a * b).order == 3


class TestSubstitute:
    def test_diagonal(self):
        f = RatFun2(ONE, {1: 1}).diagonal()
        assert f.rat_eq(RatFun1(UniPoly.constant(1), UniPoly({0: 1, 2: -1})))

    def test_u_minus_one(self):
        p = (1 + U) * (1 + V)
        assert p.subs_u(-1).is_zero()

    def test_both(self):
        val = (W * (1 + U) * (1 + V)).subs_uv(-1, 1)
        assert val == 0

    def test_zero_denominator(self):
        # u = v = -1 kills 1 - uv
        with pytest.raises(ZeroDenominatorAfterSubstitution):
            RatFun2(ONE, {2: 1, 1: 1}).subs_uv(-1, -1)

    def test_rational_value(self):
        assert (1 + U).subs_u(Fraction(1, 2)) == UniPoly.constant(Fraction(3, 2))

    def test_float_value_refused_by_subs_u(self):
        """A float is refused by name, not rounded through binary; the
        rational 1/10 substitutes exactly."""
        with pytest.raises(TypeError, match=re.escape("0.1")):
            (1 + U).subs_u(0.1)
        assert (1 + U).subs_u(Fraction(1, 10)) == UniPoly.constant(Fraction(11, 10))

    @pytest.mark.parametrize("uval,vval", [(0.1, 1), (1, 0.1), (1.0, 1)])
    def test_float_value_refused_by_subs_uv(self, uval, vval):
        p = BivarPoly({(1, 0): 1, (0, 1): 1})
        with pytest.raises(TypeError, match="is not rational"):
            p.subs_uv(uval, vval)
        assert BivarPoly({(1, 0): 1}).subs_uv(Fraction(1, 10), 1) == Fraction(1, 10)

    SAMPLE = (1 + U) ** 3 * (1 - V) ** 2 * (1 + W) - 5 * U ** 4 * V

    @staticmethod
    def forbid_fraction_arithmetic(monkeypatch):
        def refuse(*args):
            raise AssertionError("Fraction arithmetic at an integral value")
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(Fraction, name, refuse)

    @pytest.mark.parametrize("val", [-1, 1, Fraction(-1)])
    def test_integral_value_in_ints(self, monkeypatch, val):
        ref = {}
        for (i, j), c in self.SAMPLE.terms.items():
            ref[j] = ref.get(j, 0) + c * Fraction(val) ** i
        self.forbid_fraction_arithmetic(monkeypatch)
        got = self.SAMPLE.subs_u(val)
        monkeypatch.undo()
        assert got == UniPoly(ref)
        assert all(type(c) is int for c in got.terms.values())

    @pytest.mark.parametrize("uval,vval", [(-1, -1), (-1, 1), (Fraction(-1), 1),
                                           (1, Fraction(-1))])
    def test_integral_values_in_ints(self, monkeypatch, uval, vval):
        ref = sum(c * Fraction(uval) ** i * Fraction(vval) ** j
                  for (i, j), c in self.SAMPLE.terms.items())
        self.forbid_fraction_arithmetic(monkeypatch)
        got = self.SAMPLE.subs_uv(uval, vval)
        monkeypatch.undo()
        assert type(got) is int and got == ref

    @pytest.mark.parametrize("uval,vval,expect", [
        (2, 2, Fraction(-5, 3)), (-1, 2, Fraction(2, 3)), (3, -1, Fraction(3, 4)),
        (Fraction(1, 2), 3, Fraction(-9))])
    def test_ratfun_quotient_is_exact(self, uval, vval, expect):
        """RatFun2.subs_uv divides two ints (or Fractions) exactly: the
        quotient is a Fraction, never a float."""
        got = RatFun2((1 + U) * (1 + V) - W, {1: 1}).subs_uv(uval, vval)
        assert type(got) is Fraction and got == expect

    def test_non_integral_value_in_fractions(self):
        half = Fraction(1, 2)
        got = self.SAMPLE.subs_u(half)
        ref = {}
        for (i, j), c in self.SAMPLE.terms.items():
            ref[j] = ref.get(j, 0) + c * half ** i
        assert got == UniPoly(ref)
        assert any(type(c) is Fraction for c in got.terms.values())
        assert self.SAMPLE.subs_uv(half, -1) == sum(
            c * half ** i * (-1) ** j for (i, j), c in self.SAMPLE.terms.items())


class TestToPolynomial:
    def test_basic(self):
        assert to_polynomial(RatFun2(1 - BivarPoly.monomial(2, 2), {1: 1}), 2) == 1 + W

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(RatFun2(ONE, {1: 1}), 10)

    def test_bound_too_small(self):
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(RatFun2(1 - BivarPoly.monomial(4, 4), {1: 1}), 2)

    def test_no_expansion_or_product(self, monkeypatch):
        # the exact quotient is the certificate: no series, no product
        def forbidden(*args):
            raise AssertionError("called")

        r = RatFun2(1 - BivarPoly.monomial(3, 3) + U - U * W * W, {1: 1})
        monkeypatch.setattr(RatFun2, "expand", forbidden)
        monkeypatch.setattr(BivarPoly, "__mul__", forbidden)
        assert to_polynomial(r, 5).terms == {(0, 0): 1, (1, 1): 1, (2, 2): 1,
                                             (1, 0): 1, (2, 1): 1}


class TestSerialization:
    def test_sorted(self):
        trip = ((1 + U + V) ** 2).json_terms()
        assert trip == sorted(trip)

    def test_big_coefficients_as_strings(self):
        p = BivarPoly({(0, 0): 10 ** 40})
        assert p.json_terms() == [[0, 0, str(10 ** 40)]]


# -- property-based checks ---------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4),
    max_size=5,
).map(BivarPoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def band_lift(p, factors):
    """p * prod (1 + u^a v^b)^e over the (a, b, e) triples of factors,
    lifted in band: p's terms packed on a band wider by sum e |a - b|
    columns, in sum e b more rows, so that no shift b * W + a - b wraps,
    then e ``_times_binomial`` shift-adds per factor, cut at the band's end.
    The product's l1 norm is at most p's times 2^(sum e), which sets the
    slot width."""
    terms, lo, W, rows = _layout(p.terms)
    lo -= sum(e * max(b - a, 0) for a, b, e in factors)
    W += sum(e * abs(a - b) for a, b, e in factors)
    n = (rows + sum(e * b for _, b, e in factors)) * W
    B = _width(_l1(terms.values()) << sum(e for _, _, e in factors))
    X = _band(terms, lo, W, n, B)
    for a, b, e in factors:
        X = _times_binomial(X, b * W + a - b, e, add, n, B)
    return _unband(X, n, lo, W, B)


binomial_factors = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=3)


@settings(max_examples=80, deadline=None)
@given(small_polys, binomial_factors)
@example(BivarPoly(), [(1, 0, 2), (0, 1, 2)])
@example(1 + U * V ** 2, [(1, 3, 2)])                # a < b
@example(V - 2 * U ** 3, [(3, 1, 1), (0, 2, 3)])      # a > b, then a < b
@example(1 - W, [(2, 2, 2), (0, 0, 1)])              # a = b, and the constant 2
@example(1 + U + V, [(1, 2, 0), (2, 0, 0)])           # e = 0 only
@example(U ** 2, [])
def test_mul_binomials_is_the_product(p, factors):
    """p * prod (1 + u^a v^b)^e lifted in band (``band_lift``) equals the
    plain product."""
    expected = p
    for a, b, e in factors:
        expected = expected * (1 + BivarPoly.monomial(a, b)) ** e
    assert BivarPoly(band_lift(p, factors)) == expected


wdens = st.dictionaries(st.integers(1, 4), st.integers(0, 3), max_size=3)


def den_poly(wden):
    """prod (1 - (uv)^k)^m by plain BivarPoly products."""
    p = ONE
    for k, m in wden.items():
        p = p * (1 - BivarPoly.monomial(k, k)) ** m
    return p


@settings(max_examples=40, deadline=None)
@given(small_polys, wdens, small_polys, wdens)
def test_expand_multiplicative(n1, d1, n2, d2):
    r1, r2 = RatFun2(n1, d1), RatFun2(n2, d2)
    lhs = (r1 * r2).expand(6)
    rhs = r1.expand(6) * r2.expand(6)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_polys, wdens, st.integers(0, 8))
def test_expand_times_denominator_is_numerator(n, d, order):
    s = RatFun2(n, d).expand(order)
    assert s * TruncSeries2(order, den_poly(d).terms) == TruncSeries2(order, n.terms)


@settings(max_examples=40, deadline=None)
@given(small_polys, wdens, st.integers(0, 6), st.integers(0, 6))
def test_expand_truncation_consistent(n, d, big, small):
    big, small = max(big, small), min(big, small)
    r = RatFun2(n, d)
    assert TruncSeries2(small, r.expand(big).coeffs) == r.expand(small)


@settings(max_examples=40, deadline=None)
@given(small_polys, wdens, wdens)
def test_rat_eq_implies_equal_expansion(n, d, scale):
    r = RatFun2(n, d)
    scaled = RatFun2(n * den_poly(scale), Counter(d) + Counter(scale))
    assert r.rat_eq(scaled)
    assert r.expand(6) == scaled.expand(6)


@settings(max_examples=40, deadline=None)
@given(small_polys, wdens, small_polys, wdens)
def test_rat_eq_equivalence_relation(n1, d1, n2, d2):
    a, b = RatFun2(n1, d1), RatFun2(n2, d2)
    assert a.rat_eq(a)
    assert a.rat_eq(b) == b.rat_eq(a)
    # transitivity along a chain of rescalings
    c = RatFun2(n1 * den_poly(d2), Counter(d1) + Counter(d2))
    assert a.rat_eq(c)
    if a.rat_eq(b):
        assert c.rat_eq(b)


nonzero_polys = small_polys.filter(bool)


@settings(max_examples=60, deadline=None)
@given(small_polys, wdens)
def test_divide_exact_round_trip(a, wden):
    assert (a * den_poly(wden)).divide_exact(wden) == a


@settings(max_examples=60, deadline=None)
@given(small_polys, wdens, wdens)
def test_divide_exact_quotient_or_not_divisible(p, other, wden):
    # a multiple of another product divides only sometimes, e.g. 1 - w^2 by 1 - w
    a = p * den_poly(other)
    try:
        q = a.divide_exact(wden)
    except NotDivisible:
        return
    assert q * den_poly(wden) == a


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, wdens)
def test_to_polynomial_exact_bound(a, wden):
    n = a.total_degree()
    r = RatFun2(a * den_poly(wden), wden)
    assert to_polynomial(r, n) == a
    if n >= 1:
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(r, n - 1)


big_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            band_reference.big_coefs, max_size=5).map(BivarPoly)


class TestSlotWidth:
    """The packed band against the list band of ``band_reference``, with
    coefficients up to 2^200 and multiplicities that carry them across
    2^63 and 2^127."""

    @settings(max_examples=60, deadline=None)
    @given(big_polys, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                         st.integers(0, 6)), max_size=3))
    @example(BivarPoly({(0, 0): (1 << 62) + 1}), [(1, 0, 2)])
    @example(BivarPoly({(1, 2): -(1 << 126) - 1}), [(0, 1, 1), (2, 0, 1)])
    def test_mul_binomials(self, p, factors):
        assert band_lift(p, factors) == band_reference.mul_binomials(p.terms, factors)

    @settings(max_examples=60, deadline=None)
    @given(big_polys, wdens, wdens)
    @example(BivarPoly({(0, 0): (1 << 62) + 1}), {}, {1: 2})
    @example(BivarPoly({(0, 0): 1 << 60}), {12: 2}, {1: 2})  # quotient 1.5 * 2^63
    def test_divide_exact(self, p, other, wden):
        a = p * den_poly(other)
        try:
            expect = band_reference.divide_exact(a.terms, wden)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                a.divide_exact(wden)
            return
        assert a.divide_exact(wden).terms == expect

    @settings(max_examples=60, deadline=None)
    @given(big_polys, wdens, st.integers(0, 12))
    @example(BivarPoly({(0, 0): (1 << 126) + 1}), {1: 3}, 12)
    def test_expand(self, p, wden, order):
        assert RatFun2(p, wden).expand(order) == band_reference.expand(p.terms, wden, order)


def width_at_least(module, B):
    """Patch module._width to give slots of at least B bits."""
    real = ratfun._width
    return patch.object(module, "_width", lambda bound: max(real(bound), B))


@pytest.mark.parametrize("B", [64, 128, 192])
class TestRowDivision:
    """The running sums of ``_over_den``, one int per row, against the list
    band of ``band_reference`` with slots of at least 64, 128 and 192 bits:
    the split into rows and the join read slots of every width."""

    @settings(max_examples=30, deadline=None)
    @given(big_polys, wdens, wdens, st.integers(0, 12))
    @example(BivarPoly({(0, 0): (1 << 62) + 1}), {3: 2}, {1: 2}, 12)
    @example(BivarPoly({(2, 1): -(1 << 126) - 1, (0, 3): 1}), {1: 1}, {2: 3}, 9)
    def test_against_the_list_band(self, B, p, other, wden, order):
        a = p * den_poly(other)
        with width_at_least(ratfun, B):
            try:
                expect = band_reference.divide_exact(a.terms, wden)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    a.divide_exact(wden)
            else:
                assert a.divide_exact(wden).terms == expect
            assert RatFun2(a, wden).expand(order) == band_reference.expand(a.terms, wden, order)

    @pytest.mark.parametrize("terms,wden", [
        ({(3, 3): 1}, {1: 1}),
        ({(6, 4): (1 << 126) + 1, (2, 4): -1}, {2: 1}),
        ({(4, 4): 7, (5, 4): -(1 << 62)}, {1: 1, 3: 1})])
    def test_only_the_top_row_is_not_divisible(self, B, terms, wden):
        """A numerator whose only nonzero row is the top one keeps it after
        the running sums, and the top rows are the certificate."""
        with width_at_least(ratfun, B):
            with pytest.raises(NotDivisible):
                BivarPoly(terms).divide_exact(wden)
        with pytest.raises(NotDivisible):
            band_reference.divide_exact(terms, wden)


class TestExactQuotient:
    """``_exact_quotient``, the band-level exact division that
    ``BivarPoly.divide_exact`` and the fixed-determinant path share."""

    def quotient(self, a, wden, rows_extra=0, top=None):
        """a's band with rows_extra zero rows on top, divided by wden, under
        the total degree bound top if one is given."""
        wden = _wden(wden)
        terms, lo, W, rows = _layout(a.terms)
        rows += rows_extra
        B = _width(_l1(terms.values()) * _series_growth(wden, rows))
        return _exact_quotient(_band(terms, lo, W, rows * W, B), rows, lo, W, wden, B, top)

    @settings(max_examples=40, deadline=None)
    @given(small_polys, wdens, st.integers(0, 3))
    def test_round_trip_with_spare_rows(self, a, wden, extra):
        """Zero rows above the numerator, as on a band laid out for a wider
        sum, change neither the quotient nor the certificate."""
        assert self.quotient(a * den_poly(wden), wden, extra) == a

    @pytest.mark.parametrize("extra", [0, 2])
    def test_not_a_multiple(self, extra):
        with pytest.raises(NotDivisible):
            self.quotient((1 - W) * (1 + U) + W ** 3, {1: 1}, extra)

    @settings(max_examples=60, deadline=None)
    @given(small_polys, wdens, st.integers(0, 3), st.integers(-1, 8))
    def test_degree_bound(self, a, wden, extra, top):
        """Given a total degree bound, the quotient comes back exactly when
        its total degree is within it, else NotPolynomialWithinBound."""
        num = a * den_poly(wden)
        if a.total_degree() <= top:
            assert self.quotient(num, wden, extra, top) == a
        else:
            with pytest.raises(NotPolynomialWithinBound):
                self.quotient(num, wden, extra, top)

    def test_rows_above_the_bound_are_not_decoded(self, monkeypatch):
        """Row j holds total degrees >= 2 j + lo only, so under the bound
        top the rows from (top - lo) // 2 + 1 on must be zero and are not
        decoded: 1 + u^3 + w^3, on rows 0..3 of 7 quotient rows."""
        decoded = []
        real = ratfun._unband

        def spy(X, n, lo, W, B):
            decoded.append(n // W)
            return real(X, n, lo, W, B)

        monkeypatch.setattr(ratfun, "_unband", spy)
        a = 1 + U ** 3 + W ** 3
        assert self.quotient(a * (1 - W), {1: 1}, 3, 6) == a
        assert decoded == [4]
        with pytest.raises(NotPolynomialWithinBound):
            self.quotient(a * (1 - W), {1: 1}, 3, 5)
        assert decoded == [4]
