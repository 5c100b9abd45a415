"""Unit and property tests for the exact bivariate arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodge_series.ratfun import (
    ONE,
    U,
    V,
    BivarPoly,
    NonIntegralExpansion,
    NonUnitDenominator,
    NotDivisible,
    NotPolynomialWithinBound,
    RatFun2,
    TruncSeries2,
    UniPoly,
    RatFun1,
    ZeroDenominatorAfterSubstitution,
    to_polynomial,
    w_power,
)

W = w_power(1)


def poly(d):
    return BivarPoly(d)


class TestPolyOps:
    def test_mul_simple(self):
        assert (1 + U) * (1 + V) == poly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_pow_zero(self):
        assert (1 + W) ** 0 == ONE

    def test_difference_of_squares(self):
        assert (1 - W) * (1 + W) == 1 - w_power(2)

    def test_add_cancels(self):
        assert ((1 + U) - (1 + U)).is_zero()

    def test_zero_coefficients_dropped(self):
        assert poly({(1, 1): 0, (0, 0): 2}).terms == {(0, 0): 2}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly({(-1, 0): 1})


class TestDivision:
    def test_exact(self):
        assert (1 - w_power(2)).divide_exact(1 - W) == 1 + W

    def test_square(self):
        assert ((1 + U) ** 2).divide_exact(1 + U) == 1 + U

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            (1 + U + V).divide_exact(1 + U)

    def test_non_divisible_coefficient(self):
        with pytest.raises(NotDivisible):
            poly({(1, 0): 3}).divide_exact(poly({(1, 0): 2}))


class TestRatOps:
    def test_semantic_zero(self):
        r = RatFun2(ONE, 1 - W)
        assert (r + (-r)).num.is_zero()
        assert (r - r).rat_eq(RatFun2(BivarPoly(), (1 - W) ** 2))

    def test_mul(self):
        r = RatFun2(1 + U, 1 - W) * RatFun2(1 + V)
        assert r.rat_eq(RatFun2((1 + U) * (1 + V), 1 - W))

    def test_rat_eq_examples(self):
        assert RatFun2(1 - w_power(2), 1 - W).rat_eq(RatFun2(1 + W))
        assert not RatFun2(ONE, 1 - W).rat_eq(RatFun2(ONE, 1 - w_power(2)))
        assert RatFun2(BivarPoly(), 1 + U).rat_eq(RatFun2(BivarPoly(), 1 + V))

    def test_rat_eq_equal_denominators(self):
        den = (1 + U) * (1 - W)
        assert RatFun2(1 + V, den).rat_eq(RatFun2(1 + V, (1 - W) * (1 + U)))
        assert not RatFun2(1 + U, den).rat_eq(RatFun2(1 + V, den))
        assert not RatFun2(1 + U, den).rat_eq(RatFun2(BivarPoly(), den))

    def test_rat_eq_equal_denominators_multiplies_nothing(self, monkeypatch):
        den = (1 - W) * (1 - w_power(2))
        a, b = RatFun2(1 + U, den), RatFun2(1 + V, den)
        c = RatFun2(1 - w_power(2), 1 - W)
        products = []
        mul = BivarPoly.__mul__

        def counting(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(BivarPoly, "__mul__", counting)
        assert a.rat_eq(a) and not a.rat_eq(b)
        assert products == []
        # unequal denominators still cross-multiply
        assert c.rat_eq(RatFun2(1 + W))
        assert len(products) == 2


class TestExpand:
    def test_geometric(self):
        s = RatFun2(ONE, 1 - W).expand(3)
        assert s == TruncSeries2(3, {(0, 0): 1, (1, 1): 1})

    def test_derived_square_case(self):
        # (1+u)^2 (1+v)^2 / (1-uv) expanded to total degree 2:
        # (1+2u+u^2)(1+2v+v^2)(1+uv+...) = 1 + 2u + 2v + u^2 + 5uv + v^2 + ...
        r = RatFun2((1 + U) ** 2 * (1 + V) ** 2, 1 - W)
        assert r.expand(2) == TruncSeries2(
            2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 5, (0, 2): 1})

    def test_alternating(self):
        s = RatFun2(ONE, 1 + U).expand(2)
        assert s == TruncSeries2(2, {(0, 0): 1, (1, 0): -1, (2, 0): 1})

    def test_non_unit(self):
        with pytest.raises(NonUnitDenominator):
            RatFun2(ONE, U).expand(2)

    def test_non_integral(self):
        with pytest.raises(NonIntegralExpansion):
            RatFun2(ONE, BivarPoly.constant(2)).expand(1)

    def test_integral_with_constant_two(self):
        s = RatFun2(BivarPoly.constant(2) * (1 + U), BivarPoly.constant(2)).expand(2)
        assert BivarPoly(s.coeffs) == 1 + U


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
        f = RatFun2(ONE, 1 - W).diagonal()
        assert f.rat_eq(RatFun1(UniPoly.constant(1), UniPoly({0: 1, 2: -1})))

    def test_u_minus_one(self):
        p = (1 + U) * (1 + V)
        assert p.subs_u(-1).is_zero()

    def test_both(self):
        val = (W * (1 + U) * (1 + V)).subs_uv(-1, 1)
        assert val == 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorAfterSubstitution):
            RatFun2(ONE, 1 + U).subs_u(-1)

    def test_rational_value(self):
        assert (1 + U).subs_u(Fraction(1, 2)) == UniPoly.constant(Fraction(3, 2))


class TestToPolynomial:
    def test_basic(self):
        assert to_polynomial(RatFun2(1 - w_power(2), 1 - W), 2) == 1 + W

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(RatFun2(ONE, 1 - W), 10)

    def test_bound_too_small(self):
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(RatFun2(1 - w_power(4), 1 - W), 2)

    def test_general_denominator(self):
        assert to_polynomial(RatFun2((1 + U) * (1 + V), 1 + U), 1) == 1 + V

    def test_no_expansion_or_product(self, monkeypatch):
        # the exact quotient is the certificate: no series, no product
        def forbidden(*args):
            raise AssertionError("called")

        r = RatFun2(1 - w_power(3) + U - U * W * W, 1 - W)
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


@settings(max_examples=60, deadline=None)
@given(small_polys, st.integers(0, 2), st.integers(0, 2), st.integers(0, 4))
def test_mul_binomial_is_the_product(p, a, b, e):
    assert p.mul_binomial(a, b, e) == p * (1 + BivarPoly.monomial(a, b)) ** e


unit_dens = st.builds(
    lambda p: p + 1 - BivarPoly.constant(p.constant_term()),
    small_polys,
)


@settings(max_examples=40, deadline=None)
@given(small_polys, unit_dens, small_polys, unit_dens)
def test_expand_multiplicative(n1, d1, n2, d2):
    r1, r2 = RatFun2(n1, d1), RatFun2(n2, d2)
    lhs = (r1 * r2).expand(6)
    rhs = r1.expand(6) * r2.expand(6)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_polys, unit_dens, st.integers(0, 6), st.integers(0, 6))
def test_expand_truncation_consistent(n, d, big, small):
    big, small = max(big, small), min(big, small)
    r = RatFun2(n, d)
    assert TruncSeries2(small, r.expand(big).coeffs) == r.expand(small)


@settings(max_examples=40, deadline=None)
@given(small_polys, unit_dens, unit_dens)
def test_rat_eq_implies_equal_expansion(n, d, scale):
    r = RatFun2(n, d)
    scaled = RatFun2(n * scale, d * scale)
    assert r.rat_eq(scaled)
    assert r.expand(6) == scaled.expand(6)


@settings(max_examples=40, deadline=None)
@given(small_polys, unit_dens, small_polys, unit_dens)
def test_rat_eq_equivalence_relation(n1, d1, n2, d2):
    a, b = RatFun2(n1, d1), RatFun2(n2, d2)
    assert a.rat_eq(a)
    assert a.rat_eq(b) == b.rat_eq(a)
    # transitivity along a chain of rescalings
    c = RatFun2(n1 * d2, d1 * d2)
    assert a.rat_eq(c)
    if a.rat_eq(b):
        assert c.rat_eq(b)


nonzero_polys = small_polys.filter(bool)


@settings(max_examples=60, deadline=None)
@given(small_polys, nonzero_polys)
def test_divide_exact_round_trip(a, b):
    assert (a * b).divide_exact(b) == a


@settings(max_examples=60, deadline=None)
@given(small_polys, nonzero_polys)
def test_divide_exact_quotient_or_not_divisible(a, b):
    try:
        q = a.divide_exact(b)
    except NotDivisible:
        return
    assert q * b == a


@settings(max_examples=40, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_to_polynomial_exact_bound(a, b):
    n = a.total_degree()
    assert to_polynomial(RatFun2(a * b, b), n) == a
    if n >= 1:
        with pytest.raises(NotPolynomialWithinBound):
            to_polynomial(RatFun2(a * b, b), n - 1)
