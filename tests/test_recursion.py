"""Tests for stratum enumeration, the codimension formula, and the
recursion identity between full-stack and semistable series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodge_series.formulas import hp_semistable_classical, hp_semistable_closed
from hodge_series.recursion import (
    NonIntegralCodim,
    codim,
    enumerate_hn_types,
    hn_blocks_of,
    hn_gl_oracle,
    hn_types_to_csv,
    oracle_codim,
    recursion_rhs,
    verify_recursion,
)
from hodge_series.rootdata import GroupSpec, build_root_system, degrees_of, parse_group

GL = lambda r: GroupSpec((("GL", r),))


class TestCodim:
    def test_gl2_degree_zero_strata(self):
        rs = build_root_system(GL(2))
        for k in range(1, 5):
            for g in (2, 3):
                assert codim(rs, (k, -k), g) == 2 * k + g - 1

    def test_gl2_degree_one_strata(self):
        rs = build_root_system(GL(2))
        for k in range(1, 5):
            for g in (2, 3):
                assert codim(rs, (k, 1 - k), g) == 2 * k + g - 2

    def test_zero_slope(self):
        rs = build_root_system(GL(3))
        assert codim(rs, (0, 0, 0), 2) == 0

    def test_monotone_under_scaling(self):
        rs = build_root_system(parse_group("SO5"))
        mu = (Fraction(2), Fraction(1))
        for g in (2, 3):
            assert codim(rs, tuple(2 * m for m in mu), g) > codim(rs, mu, g)

    def test_non_integral(self):
        rs = build_root_system(GL(2))
        with pytest.raises(NonIntegralCodim):
            codim(rs, (Fraction(1, 3), 0), 2)


class TestEnumeration:
    def test_gl2_d0(self):
        types = enumerate_hn_types(GL(2), (0,), 2, 7)
        assert [(t.codim, t.delta_lift) for t in types] == [
            (3, (1, -1)), (5, (2, -2)), (7, (3, -3))]

    def test_gl2_d1(self):
        types = enumerate_hn_types(GL(2), (1,), 2, 2)
        assert [(t.codim, t.delta_lift) for t in types] == [(2, (1, 0))]

    def test_below_minimum_codim_empty(self):
        # GL_2, d = 0: minimum codimension is g + 1
        g = 2
        assert enumerate_hn_types(GL(2), (0,), g, g) == []
        assert len(enumerate_hn_types(GL(2), (0,), g, g + 1)) == 1

    def test_slope_condition_and_degree(self):
        rs = build_root_system(GL(3))
        datum = rs.datum
        for t in enumerate_hn_types(GL(3), (1,), 2, 12):
            assert sum(t.delta_lift) == 1
            for a in t.I:
                val = sum(f * m for f, m in
                          zip(datum.simple_roots[a], t.mu))
                assert val > 0
            assert t.mu == datum.project_to_center(t.I, t.delta_lift)

    def test_distinct_mu_within_parabolic(self):
        types = enumerate_hn_types(parse_group("SO7"), (1,), 2, 22)
        seen = {}
        for t in types:
            key = (t.I, t.mu)
            assert key not in seen, "duplicate stratum"
            seen[key] = t

    def test_deterministic_order(self):
        a = enumerate_hn_types(GL(3), (0,), 2, 15)
        b = enumerate_hn_types(GL(3), (0,), 2, 15)
        assert a == b
        assert a == sorted(a, key=lambda t: (t.codim, t.I, t.delta_lift))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [-4, -2, 0, 1, 3, 4])
    @pytest.mark.parametrize("g", [2, 3])
    def test_gl_oracle_bijection(self, r, d, g):
        spec = GL(r)
        rs = build_root_system(spec)
        types = enumerate_hn_types(spec, (d,), g, 24)
        mine = sorted((hn_blocks_of(rs, t), t.codim) for t in types)
        oracle = sorted((b, oracle_codim(b, g)) for b in hn_gl_oracle(r, d, 24, g))
        assert mine == oracle

    def test_oracle_examples(self):
        g = 3
        assert hn_gl_oracle(2, 0, g + 1, g) == [((1, 1), (1, -1))]
        assert hn_gl_oracle(2, 1, g, g) == [((1, 1), (1, 0))]
        assert hn_gl_oracle(3, 0, 0, 2) == []


class TestRecursion:
    SMALL = [("GL1", (0,)), ("GL2", (0, 1)), ("GL3", (0, 1, 2)),
             ("SL2", (0,)), ("SL3", (0,)), ("SO3", (0, 1)), ("SO5", (0, 1)),
             ("Sp1", (0,)), ("Sp2", (0,)), ("SO4", (0, 1)), ("SO6", (0, 1))]

    @pytest.mark.parametrize("name,degrees", SMALL)
    def test_rank_le_3_order_20(self, name, degrees):
        spec = parse_group(name)
        for d in degrees:
            for g in (2, 3):
                rep = verify_recursion(spec, (d,), g, 20)
                assert rep.match, (name, d, g, rep.first_mismatch)

    def test_gl1_rhs_is_stack_series(self):
        from hodge_series.formulas import a_series

        rhs = recursion_rhs(GL(1), (0,), 2, 10)
        assert rhs == a_series(GL(1), 2).expand(10)

    def test_rhs_matches_worked_rank2_expression(self):
        from hodge_series.formulas import hp_semistable_closed

        for d in (0, 1):
            rhs = recursion_rhs(GL(2), (d,), 2, 10)
            assert rhs == hp_semistable_closed(GL(2), (d,), 2).expand(10)

    @pytest.mark.parametrize("name,d,g,N", [
        ("GL2", (0,), 2, 8), ("GL4", (1,), 2, 20), ("SO7", (1,), 2, 20),
        ("SL3", (0,), 2, 20), ("GL2xSO5", (1, 1), 2, 20), ("Sp3", (0,), 3, 20)],
        ids=["GL2", "GL4", "SO7", "SL3", "GL2xSO5", "Sp3-g3"])
    def test_stable_under_larger_max_codim(self, name, d, g, N):
        # strata of codimension above the order contribute nothing; the
        # per-stratum shift-and-subtract sum is the reference for the one
        # factored sum of recursion_rhs
        from hodge_series.formulas import a_series_term, assemble_series, closed_series_for

        spec = parse_group(name)
        rs = build_root_system(spec)
        datum = rs.datum
        total = assemble_series([a_series_term(spec, g)], N)
        for hn in enumerate_hn_types(spec, d, g, 3 * N):
            if 2 * hn.codim > N:
                continue
            levi = datum.sub_datum(datum.complement(hn.I))
            series = closed_series_for(levi, levi.fund_fracs(hn.delta_lift), g, N)
            total = total - series.shift_uv(hn.codim, N)
        assert total == recursion_rhs(spec, d, g, N)

    @pytest.mark.parametrize("name", ["GL4", "SO7"])
    def test_strata_counts_contributing_strata(self, name):
        spec, N = parse_group(name), 20
        contributing = [hn for hn in enumerate_hn_types(spec, (1,), 2, N)
                        if 2 * hn.codim <= N]
        assert verify_recursion(spec, (1,), 2, N).strata == len(contributing)

    def test_product_group(self):
        spec = parse_group("GL1xGL2")
        rep = verify_recursion(spec, (0, 1), 2, 14)
        assert rep.match

    def test_mixed_product_group(self):
        spec = parse_group("GL2xSO5")
        for d in [(0, 0), (1, 1), (0, 1)]:
            rep = verify_recursion(spec, d, 2, 14)
            assert rep.match, (d, rep.first_mismatch)

    @pytest.mark.parametrize("name", ["SO7", "Sp3", "SO8"])
    def test_rank3_4_order_24(self, name):
        # order 24 reaches the strata whose denominator exponents
        # distinguish the two rho^I conventions (see test_rootdata); the
        # shipped nilradical convention must survive here
        spec = parse_group(name)
        for d in ((0,), (1,)) if name != "Sp3" else ((0,),):
            rep = verify_recursion(spec, d, 2, 24)
            assert rep.match, (name, d, rep.first_mismatch)

    def test_diagonal_specialization_consistent(self):
        # t-specializations of closed formula and recursion output agree
        from hodge_series.formulas import hp_semistable_closed_series

        for d in (0, 1):
            lhs = hp_semistable_closed_series(GL(2), (d,), 2, 12)
            rhs = recursion_rhs(GL(2), (d,), 2, 12)
            assert lhs.to_poly().diagonal() == rhs.to_poly().diagonal()


# factor -> rank; products are drawn with total rank <= 4
RANDOM_FACTORS = {"GL1": 1, "GL2": 2, "GL3": 3, "SL2": 1, "SL3": 2, "SO5": 2,
                  "SO7": 3, "Sp2": 2, "SO8": 4}


@st.composite
def group_degree_genus(draw):
    names = [draw(st.sampled_from(sorted(RANDOM_FACTORS)))]
    room = 4 - RANDOM_FACTORS[names[0]]
    fits = sorted(n for n, r in RANDOM_FACTORS.items() if r <= room)
    if fits and draw(st.booleans()):
        names.append(draw(st.sampled_from(fits)))
    spec = parse_group("x".join(names))
    return spec, draw(st.sampled_from(degrees_of(spec))), draw(st.sampled_from((2, 3)))


@settings(max_examples=25, deadline=None)
@given(group_degree_genus())
def test_random_group_cross_check(case):
    # closed formula against the recursion, and for a single factor against
    # the composition sum as well
    spec, d, g = case
    rep = verify_recursion(spec, d, g, 12)
    assert rep.match, rep.first_mismatch
    if len(spec.factors) == 1:
        (family, rank), = spec.factors
        assert hp_semistable_classical(family, rank, d, g).rat_eq(
            hp_semistable_closed(spec, d, g))


class TestCsv:
    def test_export(self):
        types = enumerate_hn_types(GL(2), (0,), 2, 5)
        text = hn_types_to_csv(types)
        lines = text.strip().split("\n")
        assert lines[0] == "I,delta,mu,codim"
        assert lines[1] == "1,1 -1,1 -1,3"
        assert lines[2] == "1,2 -2,2 -2,5"
