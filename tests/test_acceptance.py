"""Acceptance suite: the exact algebraic identities the package must satisfy.

Each test prints one PASS line when it completes (visible with pytest -s or
in the captured output summary); every assertion is exact, zero tolerance.

Criteria:
 1. rank-2 worked example (closed formula vs explicit two-term expression)
 2. rank-2 fixed-determinant polynomial identity and polynomiality
 3. classical composition sums == closed formula (exact to rank 4;
    series to order 24 for rank-5 type A)
 4. recursion identity at order 20 across the classical groups
 5. stratum enumeration == independent GL oracle up to codimension 24
 6. chi_t / Euler / signature corollaries for fixed determinant
 7. u = v = t specialization of the full-stack series
 8. nonnegativity and integrality of all semistable expansions to order 24
 9. period-matrix Hodge-class coefficients, exact rational arithmetic
"""

import random
from fractions import Fraction
from math import gcd

from hodge_series.formulas import (
    _classical_terms,
    _datum_fracs,
    a_series,
    assemble_series,
    chi_t_fixed_det_formula,
    hp_moduli_fixed_det,
    hp_moduli_space,
    closed_series_for,
    hp_semistable_classical,
    hp_semistable_closed,
    specialize,
    stack_poincare_series,
    to_polynomial,
)
from hodge_series.ratfun import BivarPoly, RatFun2, U, V
from hodge_series.recursion import (
    enumerate_hn_types,
    hn_blocks_of,
    hn_gl_oracle,
    oracle_codim,
    verify_recursion,
)
from hodge_series.rootdata import GroupSpec, build_root_system, parse_group
from hodge_series.vhs import (
    QC,
    basis_change_consistent,
    identity_times_i,
    theta_coefficients,
    validate_period_matrix,
)
from test_vhs import random_period_matrix

GL = lambda r: GroupSpec((("GL", r),))

#: configurations of the recursion criterion (also reused by criterion 8)
RECURSION_SPECS = (
    [("GL1", (0,)), ("GL2", (0, 1)), ("GL3", (0, 1, 2)), ("GL4", (0, 1, 2, 3)),
     ("SL3", (0,)), ("SO5", (0, 1)), ("SO7", (0, 1)), ("Sp2", (0,)),
     ("Sp3", (0,)), ("SO6", (0, 1)), ("SO8", (0, 1))]
)


def _mono(i, j):
    return BivarPoly.monomial(i, j)


def _abelian(g):
    return RatFun2((1 + U) ** g * (1 + V) ** g, {1: 1})


def _rank2_reference(d, g):
    head = _abelian(g) * RatFun2(
        (1 + _mono(2, 1)) ** g * (1 + _mono(1, 2)) ** g, {1: 1, 2: 1})
    e = g if d == 1 else g + 1
    tail = RatFun2(_mono(e, e), {2: 1}) * _abelian(g) * _abelian(g)
    return head - tail


def test_criterion_1_rank2_worked_example():
    for g in (2, 3, 4, 5):
        for d in (0, 1):
            got = hp_semistable_closed(GL(2), (d,), g)
            assert got.rat_eq(_rank2_reference(d, g)), (d, g)
    print("ACCEPTANCE 1 rank-2 worked example: PASS")


def test_criterion_2_fixed_determinant_polynomial():
    for g in (2, 3, 4, 5):
        b = (1 + _mono(2, 1)) * (1 + _mono(1, 2))
        c = _mono(1, 1) * (1 + U) * (1 + V)
        reference = sum((b ** (g - 1 - k) * c ** k for k in range(g)),
                        BivarPoly())
        fd = hp_moduli_fixed_det(2, 1, g)
        assert fd == reference, g
        # division route: (1-uv) * closed == reference * (1+u)^g (1+v)^g
        jac = (1 + U) ** g * (1 + V) ** g
        moduli = hp_moduli_space(GL(2), (1,), g)
        assert moduli.rat_eq(RatFun2(reference * jac)), g
        bound = 2 * (g - 1) * (2 * 2 - 1)
        assert to_polynomial(fd, bound) == reference, g
    print("ACCEPTANCE 2 fixed-determinant polynomial: PASS")


CLASSICAL_EXACT = (
    [("GL", r, d) for r in (1, 2, 3, 4) for d in range(r)]
    + [("SL", r, 0) for r in (2, 3, 4)]
    + [("SOodd", r, d) for r in (1, 2, 3) for d in (0, 1)]
    + [("Sp", r, 0) for r in (1, 2, 3)]
    + [("SOeven", r, d) for r in (2, 3) for d in (0, 1)]
)


def test_criterion_3_composition_sums_exact():
    for family, rank, d in CLASSICAL_EXACT:
        spec = GroupSpec(((family, rank),))
        for g in (2, 3):
            cl = hp_semistable_classical(family, rank, d, g)
            co = hp_semistable_closed(spec, (d,), g)
            assert cl.rat_eq(co), (family, rank, d, g)
    print("ACCEPTANCE 3a classical composition sums == closed formula (exact, rank <= 4): PASS")


def test_criterion_3_rank5_type_a_series():
    for family in ("GL", "SL"):
        degrees = range(5) if family == "GL" else (0,)
        for d in degrees:
            for g in (2, 3):
                s_cl = assemble_series(_classical_terms(family, 5, d, g), 24)
                s_co = closed_series_for(
                    *_datum_fracs(GroupSpec(((family, 5),)), (d,)), g, 24)
                assert s_cl == s_co, (family, d, g)
    print("ACCEPTANCE 3b classical composition sums == closed formula (rank-5 type A, order 24): PASS")


def test_criterion_4_recursion_identity():
    for name, degrees in RECURSION_SPECS:
        spec = parse_group(name)
        for d in degrees:
            for g in (2, 3):
                rep = verify_recursion(spec, (d,), g, 20)
                assert rep.match, (name, d, g, rep.first_mismatch)
    print("ACCEPTANCE 4 recursion identity (order 20): PASS")


def test_criterion_5_hn_oracle_equivalence():
    for r in (1, 2, 3, 4):
        spec = GL(r)
        datum = build_root_system(spec)
        for d in range(-4, 5):
            for g in (2, 3):
                types = enumerate_hn_types(spec, (d,), g, 24)
                mine = sorted((hn_blocks_of(datum, t), t.codim) for t in types)
                oracle = sorted((b, oracle_codim(b, g))
                                for b in hn_gl_oracle(r, d, 24, g))
                assert mine == oracle, (r, d, g)
    print("ACCEPTANCE 5 HN oracle equivalence (codim <= 24): PASS")


def test_criterion_6_specialization_corollaries():
    for r in (2, 3, 4):
        for d in range(1, r):
            if gcd(r, d) != 1:
                continue
            for g in (2, 3):
                bound = 2 * (g - 1) * (r * r - 1)
                p = to_polynomial(hp_moduli_fixed_det(r, d, g), bound)
                assert specialize(p, "chi_t") == chi_t_fixed_det_formula(r, g), \
                    (r, d, g)
                assert specialize(p, "euler") == 0, (r, d, g)
                assert specialize(p, "signature") == 0, (r, d, g)
                full = specialize(hp_moduli_space(GL(r), (d,), g), "chi_t")
                assert full.num.is_zero(), (r, d, g)
    print("ACCEPTANCE 6 specialization corollaries: PASS")


ALL_RANK_LE_4 = (
    [GL(r) for r in (1, 2, 3, 4)]
    + [GroupSpec((("SL", r),)) for r in (2, 3, 4)]
    + [GroupSpec((("SOodd", r),)) for r in (1, 2, 3, 4)]
    + [GroupSpec((("Sp", r),)) for r in (1, 2, 3, 4)]
    + [GroupSpec((("SOeven", r),)) for r in (2, 3, 4)]
)


def test_criterion_7_poincare_specialization():
    for spec in ALL_RANK_LE_4:
        for g in (2, 3):
            diag = a_series(spec, g).diagonal()
            assert diag.rat_eq(stack_poincare_series(spec, g)), (spec, g)
    print("ACCEPTANCE 7 Poincare specialization: PASS")


def test_criterion_8_nonnegative_integral_expansions():
    for name, degrees in RECURSION_SPECS:
        spec = parse_group(name)
        for d in degrees:
            for g in (2, 3):
                series = closed_series_for(*_datum_fracs(spec, (d,)), g, 24)
                bad = [k for k, c in series.coeffs.items() if c < 0]
                assert not bad, (name, d, g, bad[:3])
    print("ACCEPTANCE 8 nonnegative integral expansions (order 24): PASS")


def test_criterion_9_vhs():
    for g in (1, 2, 3, 4):
        A, B = theta_coefficients(identity_times_i(g))
        for i in range(g):
            for j in range(g):
                assert A[j][i] == (QC(Fraction(1, 2)) if i == j else QC())
                assert B[j][i] == (QC(0, Fraction(-1, 2)) if i == j else QC())
    rng = random.Random(20240817)
    for _ in range(20):
        g = rng.randrange(1, 5)
        pm = random_period_matrix(rng, g)
        ok, diag = validate_period_matrix(pm)
        assert ok, diag
        assert basis_change_consistent(pm)
    print("ACCEPTANCE 9 period-matrix Hodge classes: PASS")
