"""Tests for the classical root data, Levi data and lattice computations.

Expected values follow the standard tables of the classical types: exponents
(A_r: 1..r; B_r/C_r: 2,4,..,2r; D_r: 2,4,..,2r-2 and r), Cartan matrices,
pi_1 groups, and the fundamental-weight formulas in the standard coordinates.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import hodge_series.rootdata as rootdata
from hodge_series.rootdata import (
    DefinitionMismatch,
    GroupSpec,
    SingularSystem,
    UnsupportedRank,
    _adjugate,
    build_root_system,
    degrees_of,
    exponents_of,
    frac_rep,
    fund_weight_mod_Z,
    good_case,
    levi_datum,
    parse_degree,
    parse_group,
    invert_matrix,
    project_to_center,
    smith_invariants,
    solve_linear,
)

GL = lambda r: GroupSpec((("GL", r),))
SL = lambda r: GroupSpec((("SL", r),))
SOodd = lambda r: GroupSpec((("SOodd", r),))
Sp = lambda r: GroupSpec((("Sp", r),))
SOeven = lambda r: GroupSpec((("SOeven", r),))

ALL_RANK_LE_6 = (
    [GL(r) for r in range(1, 7)]
    + [SL(r) for r in range(2, 7)]
    + [SOodd(r) for r in range(1, 7)]
    + [Sp(r) for r in range(1, 7)]
    + [SOeven(r) for r in range(2, 7)]
)


class TestParsing:
    def test_basic(self):
        assert parse_group("GL3").factors == (("GL", 3),)
        assert parse_group("SO5").factors == (("SOodd", 2),)
        assert parse_group("SO8").factors == (("SOeven", 4),)
        assert parse_group("Sp3").factors == (("Sp", 3),)
        assert parse_group("GL2xGL3xSO5").factors == (
            ("GL", 2), ("GL", 3), ("SOodd", 2))

    def test_so2_rejected(self):
        with pytest.raises(UnsupportedRank):
            parse_group("SO2")

    def test_degree_parse(self):
        spec = parse_group("GL2xGL3xSO5")
        assert parse_degree("1,0,1", spec) == (1, 0, 1)
        with pytest.raises(ValueError):
            parse_degree("1,0", spec)
        with pytest.raises(ValueError):
            parse_degree("0,0,2", spec)

    def test_round_trip_names(self):
        for s in ("GL3", "SL4", "SO5", "SO8", "Sp3", "GL2xSO7"):
            assert str(parse_group(s)) == s


class TestRootSystems:
    def test_gl3(self):
        rs = build_root_system(GL(3))
        d = rs.datum
        assert d.simple_roots == ((1, -1, 0), (0, 1, -1))
        assert d.simple_coroots == ((1, -1, 0), (0, 1, -1))
        assert len(d.pos_roots) == 3
        assert d.cartan_matrix() == [[2, -1], [-1, 2]]

    def test_so5(self):
        rs = build_root_system(SOodd(2))
        d = rs.datum
        assert d.simple_roots == ((1, -1), (0, 1))
        assert d.simple_coroots == ((1, -1), (0, 2))
        assert len(d.pos_roots) == 4

    def test_sp2(self):
        rs = build_root_system(Sp(2))
        d = rs.datum
        assert d.simple_roots == ((1, -1), (0, 2))
        assert d.simple_coroots == ((1, -1), (0, 1))

    def test_so8(self):
        rs = build_root_system(SOeven(4))
        d = rs.datum
        assert d.simple_roots[-1] == (0, 0, 1, 1)
        assert len(d.pos_roots) == 12

    def test_pi1(self):
        assert build_root_system(GL(3)).pi1 == ((1, ()),)
        assert build_root_system(SL(4)).pi1 == ((0, ()),)
        assert build_root_system(SOodd(3)).pi1 == ((0, (2,)),)
        assert build_root_system(Sp(3)).pi1 == ((0, ()),)
        assert build_root_system(SOeven(3)).pi1 == ((0, (2,)),)

    def test_positive_root_count_rank_le_6(self):
        dims = {"GL": lambda r: r * r, "SL": lambda r: r * r - 1,
                "SOodd": lambda r: r * (2 * r + 1), "Sp": lambda r: r * (2 * r + 1),
                "SOeven": lambda r: r * (2 * r - 1)}
        for spec in ALL_RANK_LE_6:
            rs = build_root_system(spec)
            fam, r = spec.factors[0]
            assert rs.num_positive == (dims[fam](r) - rs.rank) // 2

    def test_product_block_structure(self):
        rs = build_root_system(parse_group("GL2xSO5"))
        assert rs.rank == 4
        assert rs.num_positive == 1 + 4
        assert rs.center_dim == 1


def _reference_block(fam, r):
    """Textbook positive roots of one factor, as forms on its block:
    e_i - e_j (i < j) for every family, e_i + e_j for the orthogonal and
    symplectic ones, plus e_i (SO_odd) or 2 e_i (Sp); SL in the coroot
    basis, where alpha_i + ... + alpha_j is the sum of Cartan rows i..j."""
    if fam == "SL":
        n = r - 1
        cartan = [[2 if a == b else (-1 if abs(a - b) == 1 else 0) for b in range(n)]
                  for a in range(n)]
        return n, {tuple(map(sum, zip(*cartan[i:j + 1])))
                   for i in range(n) for j in range(i, n)}

    def e(*pairs):
        v = [0] * r
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    pairs = list(itertools.combinations(range(r), 2))
    roots = {e((i, 1), (j, -1)) for i, j in pairs}
    if fam != "GL":
        roots |= {e((i, 1), (j, 1)) for i, j in pairs}
    if fam == "SOodd":
        roots |= {e((i, 1)) for i in range(r)}
    if fam == "Sp":
        roots |= {e((i, 2)) for i in range(r)}
    return r, roots


def _reference_roots(spec):
    """The factors' reference roots, padded to the product's lattice."""
    blocks = [_reference_block(fam, r) for fam, r in spec.factors]
    width = sum(n for n, _ in blocks)
    out, start = set(), 0
    for n, roots in blocks:
        out |= {(0,) * start + f + (0,) * (width - start - n) for f in roots}
        start += n
    return out


BUILDER_SPECS = (ALL_RANK_LE_6 + [fam(8) for fam in (GL, SL, SOodd, Sp, SOeven)]
                 + [parse_group("GL2xSO5"), parse_group("GL3xSp2xSO8")])


class TestPositiveRootClosure:
    @pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
    def test_forms_match_textbook_lists(self, spec):
        d = build_root_system(spec).datum
        assert len(set(d.pos_roots)) == len(d.pos_roots)
        assert set(d.pos_roots) == _reference_roots(spec)

    @pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
    def test_coefficients_non_negative_and_reproduce_form(self, spec):
        d = build_root_system(spec).datum
        assert len(d.pos_coeffs) == len(d.pos_roots)
        for form, cf in zip(d.pos_roots, d.pos_coeffs):
            assert len(cf) == d.num_simple and min(cf) >= 0
            expansion = [sum(c * a[x] for c, a in zip(cf, d.simple_roots))
                         for x in range(d.n)]
            assert tuple(expansion) == form


@pytest.fixture
def fresh_root_systems():
    """Build every root system anew, and drop what was built in the test."""
    build_root_system.cache_clear()
    yield
    build_root_system.cache_clear()


class TestBuilderChecks:
    def test_positive_root_count_check_fires(self, monkeypatch, fresh_root_systems):
        monkeypatch.setitem(rootdata._POS_COUNT, "SOodd", lambda r: r * r + 1)
        with pytest.raises(AssertionError, match="positive root count"):
            build_root_system(parse_group("GL2xSO5"))

    def test_pi1_check_fires(self, monkeypatch, fresh_root_systems):
        monkeypatch.setitem(rootdata._EXPECTED_PI1, "Sp", (0, (2,)))
        with pytest.raises(AssertionError, match="pi_1 mismatch"):
            build_root_system(Sp(3))


class TestExponents:
    def test_tables(self):
        assert exponents_of(GL(3)) == (1, 2, 3)
        assert exponents_of(SL(4)) == (2, 3, 4)
        assert exponents_of(SOodd(2)) == (2, 4)
        assert exponents_of(Sp(3)) == (2, 4, 6)
        assert exponents_of(SOeven(4)) == (2, 4, 4, 6)
        assert exponents_of(SOeven(2)) == (2, 2)

    def test_tables_rank_le_6(self):
        for spec in ALL_RANK_LE_6:
            fam, r = spec.factors[0]
            if fam == "GL":
                expect = tuple(range(1, r + 1))
            elif fam == "SL":
                expect = tuple(range(2, r + 1))
            elif fam in ("SOodd", "Sp"):
                expect = tuple(2 * k for k in range(1, r + 1))
            else:
                expect = tuple(sorted([2 * k for k in range(1, r)] + [r]))
            assert exponents_of(spec) == expect, spec

    def test_product(self):
        # GL2 contributes {1, 2}, SO5 contributes {2, 4}; rank 4 in total
        assert exponents_of(parse_group("GL2xSO5")) == (1, 2, 2, 4)

    def test_matches_trivial_levi(self):
        for spec in ALL_RANK_LE_6:
            rs = build_root_system(spec)
            assert exponents_of(spec) == levi_datum(rs, ()).exponents


class TestLeviData:
    def test_gl3_alpha1(self):
        rs = build_root_system(GL(3))
        ld = levi_datum(rs, (0,))
        assert ld.dim_z == 2
        assert ld.exponents == (1, 1, 2)
        assert ld.dim_u == 2

    def test_gl2_alpha1(self):
        rs = build_root_system(GL(2))
        ld = levi_datum(rs, (0,))
        assert ld.dim_z == 2
        assert ld.exponents == (1, 1)
        assert ld.dim_u == 1

    def test_full_parabolic(self):
        for spec in ALL_RANK_LE_6:
            rs = build_root_system(spec)
            full = tuple(range(rs.datum.num_simple))
            assert levi_datum(rs, full).dim_u == rs.num_positive
            assert levi_datum(rs, ()).dim_u == 0


class TestRhoPairings:
    def test_gl2(self):
        rs = build_root_system(GL(2))
        assert rs.datum.two_rho_pairings((0,)) == {0: 2}

    def test_gl3(self):
        rs = build_root_system(GL(3))
        assert rs.datum.two_rho_pairings((0,)) == {0: 3}
        assert rs.datum.two_rho_pairings((0, 1)) == {0: 2, 1: 2}

    def test_module_level_op(self):
        from hodge_series.rootdata import rho_pairing

        rs = build_root_system(GL(3))
        assert rho_pairing(rs, (0,), 0) == 3
        with pytest.raises(DefinitionMismatch):
            rho_pairing(build_root_system(SOodd(3)), (1,), 1)
        assert rho_pairing(build_root_system(SOodd(3)), (1,), 1, strict=False) == 4

    def test_type_a_conventions_agree_to_rank_4(self):
        for spec in [GL(r) for r in range(2, 5)] + [SL(r) for r in range(2, 5)]:
            rs = build_root_system(spec)
            k = rs.datum.num_simple
            for size in range(1, k + 1):
                for I in itertools.combinations(range(k), size):
                    pair = rs.datum.two_rho_pairings(I, strict=True)
                    assert all(v > 0 for v in pair.values())

    def test_conventions_differ_in_type_b(self):
        # recorded divergence of the two rho^I conventions: B_3, I = middle
        # root (Levi GL_2 x SO_3).  Nilradical half-sum gives 4; the
        # "<beta, alpha^vee> > 0 for some alpha in I" condition gives 5.
        # The composition-sum expansion for SO_7 and the recursion identity
        # both require 4, which is what non-strict evaluation returns.
        rs = build_root_system(SOodd(3))
        assert rs.datum.two_rho_pairings((1,)) == {1: 4}
        with pytest.raises(DefinitionMismatch):
            rs.datum.two_rho_pairings((1,), strict=True)

    def test_conventions_differ_in_type_a_rank_5(self):
        # GL_5 with non-adjacent walls I = {alpha_1, alpha_3}: the Levi is
        # GL_1 x GL_2 x GL_2 and the block-boundary factor of the type A
        # composition sum forces 2 rho^I(alpha_1^vee) = r_1 + r_2 = 3, the
        # nilradical value; the pairing condition would give 4.
        rs = build_root_system(GL(5))
        assert rs.datum.two_rho_pairings((0, 2))[0] == 3
        with pytest.raises(DefinitionMismatch):
            rs.datum.two_rho_pairings((0, 2), strict=True)

    def test_nonstrict_positive_everywhere(self):
        for spec in ALL_RANK_LE_6:
            rs = build_root_system(spec)
            if rs.rank > 4:
                continue
            k = rs.datum.num_simple
            for size in range(1, k + 1):
                for I in itertools.combinations(range(k), size):
                    pair = rs.datum.two_rho_pairings(I)
                    assert all(v > 0 for v in pair.values())


class TestFundWeights:
    def test_gl2(self):
        rs = build_root_system(GL(2))
        assert fund_weight_mod_Z(rs, 0, (1,)) == Fraction(1, 2)
        assert fund_weight_mod_Z(rs, 0, (0,)) == 1

    def test_gl3(self):
        rs = build_root_system(GL(3))
        assert fund_weight_mod_Z(rs, 0, (1,)) == Fraction(2, 3)
        assert fund_weight_mod_Z(rs, 1, (1,)) == Fraction(1, 3)

    def test_so5(self):
        rs = build_root_system(SOodd(2))
        assert fund_weight_mod_Z(rs, 0, (1,)) == 1
        assert fund_weight_mod_Z(rs, 1, (1,)) == Fraction(1, 2)

    def test_lift_independence(self):
        rng = random.Random(7)
        for spec in (GL(3), SOodd(2), SOeven(3), Sp(2)):
            rs = build_root_system(spec)
            d = rs.datum
            for _ in range(25):
                X = tuple(rng.randrange(-3, 4) for _ in range(d.n))
                lam = [0] * d.n
                for cv in d.simple_coroots:
                    c = rng.randrange(-2, 3)
                    lam = [a + c * b for a, b in zip(lam, cv)]
                shifted = tuple(a + b for a, b in zip(X, lam))
                for va, vb in zip(d.fund_weight_values(X),
                                  d.fund_weight_values(shifted)):
                    assert (va - vb).denominator == 1


class TestFracRep:
    def test_zero(self):
        assert frac_rep(0) == 1

    def test_negative_half(self):
        assert frac_rep(Fraction(-1, 2)) == Fraction(1, 2)

    def test_seven_thirds(self):
        assert frac_rep(Fraction(7, 3)) == Fraction(1, 3)


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=40))
def test_frac_rep_properties(x):
    r = frac_rep(x)
    assert 0 < r <= 1
    assert (x - r).denominator == 1


class TestProjectToCenter:
    def test_full_parabolic_is_identity(self):
        rs = build_root_system(GL(2))
        assert project_to_center(rs, (0,), (3, -5)) == (3, -5)

    def test_gl2_stratum(self):
        rs = build_root_system(GL(2))
        # full parabolic subset: nothing projected out
        assert project_to_center(rs, (0,), (2, -2)) == (2, -2)

    def test_gl2_center(self):
        rs = build_root_system(GL(2))
        assert project_to_center(rs, (), (1, 0)) == (Fraction(1, 2), Fraction(1, 2))

    def test_idempotent_linear(self):
        rng = random.Random(11)
        for spec in (GL(3), SOodd(3), Sp(2), SOeven(3)):
            rs = build_root_system(spec)
            d = rs.datum
            k = d.num_simple
            for _ in range(10):
                I = tuple(i for i in range(k) if rng.random() < 0.5)
                X = tuple(rng.randrange(-3, 4) for _ in range(d.n))
                Y = tuple(rng.randrange(-3, 4) for _ in range(d.n))
                mu = d.project_to_center(I, X)
                assert d.project_to_center(I, mu) == mu
                sx = tuple(2 * a + 3 * b for a, b in zip(X, Y))
                lhs = d.project_to_center(I, sx)
                muy = d.project_to_center(I, Y)
                rhs = tuple(2 * a + 3 * b for a, b in zip(mu, muy))
                assert lhs == rhs
                levi = d.complement(I)
                for b in levi:
                    assert sum(f * m for f, m in zip(d.simple_roots[b], mu)) == 0

    def test_nilradical_degree_integral(self):
        # sum over nilradical roots of beta(mu) is an integer for lattice mu
        rng = random.Random(3)
        for spec in ALL_RANK_LE_6:
            rs = build_root_system(spec)
            d = rs.datum
            k = d.num_simple
            for _ in range(8):
                I = tuple(i for i in range(k) if rng.random() < 0.5)
                X = tuple(rng.randrange(-2, 3) for _ in range(d.n))
                mu = d.project_to_center(I, X)
                iset = set(I)
                tot = Fraction(0)
                for form, cf in zip(d.pos_roots, d.pos_coeffs):
                    if any(cf[i] for i in iset):
                        tot += sum(f * m for f, m in zip(form, mu))
                assert tot.denominator == 1


class TestGoodCase:
    def test_gl_coprime(self):
        for r in range(1, 6):
            for d in range(-4, 5):
                assert good_case(GL(r), (d,)) == (gcd(r, d) == 1)

    def test_gl2_zero(self):
        assert not good_case(GL(2), (0,))

    def test_simply_connected(self):
        assert not good_case(Sp(2), (0,))
        assert not good_case(SL(3), (0,))

    def test_so3_odd_degree(self):
        assert good_case(SOodd(1), (1,))
        assert not good_case(SOodd(1), (0,))

    def test_product(self):
        spec = parse_group("GL2xGL3")
        assert good_case(spec, (1, 1))
        assert not good_case(spec, (1, 0))


class TestDegrees:
    def test_degrees_of(self):
        assert degrees_of(GL(3)) == [(0,), (1,), (2,)]
        assert degrees_of(Sp(2)) == [(0,)]
        assert degrees_of(parse_group("SO5xSO8")) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]


class TestLinearAlgebra:
    def test_solve(self):
        assert solve_linear([[2, 1], [1, 1]], [3, 2]) == [1, 1]

    def test_smith_gl(self):
        assert smith_invariants([[1, -1, 0], [0, 1, -1]]) == [1, 1]

    def test_smith_so(self):
        # SO_5 coroot rows
        assert smith_invariants([[1, -1], [0, 2]]) == [1, 2]


def _reference_det(m):
    """Fraction Gaussian elimination, kept here as an independent reference."""
    n = len(m)
    mat = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n, scale=1):
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def _square(entries):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


int_matrices = _square(st.integers(-4, 4))
rat_matrices = _square(st.fractions(-3, 3, max_denominator=4))


class TestAdjugate:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices)
    def test_adjugate_identity_and_det(self, a):
        det, adj = _adjugate(a)
        assert det == _reference_det(a)
        if det:
            assert _matmul(a, adj) == _identity(len(a), det)
        else:
            assert adj is None

    @settings(max_examples=60, deadline=None)
    @given(int_matrices, st.data())
    def test_singular_gives_zero_and_solve_raises(self, a, data):
        # repeat a row (scaled), so the matrix is singular
        i = data.draw(st.integers(0, len(a) - 1))
        j = data.draw(st.integers(0, len(a) - 1))
        k = data.draw(st.integers(-2, 2))
        if i == j:
            a[i] = [0] * len(a)
        else:
            a[j] = [k * x for x in a[i]]
        assert _adjugate(a) == (0, None)
        with pytest.raises(SingularSystem):
            solve_linear(a, [1] * len(a))
        with pytest.raises(SingularSystem):
            invert_matrix(a)

    @settings(max_examples=40, deadline=None)
    @given(rat_matrices, st.data())
    def test_rational_front_ends_round_trip(self, a, data):
        n = len(a)
        if _reference_det(a) == 0:
            with pytest.raises(SingularSystem):
                invert_matrix(a)
            return
        x = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                               min_size=n, max_size=n))
        b = [sum(c * xi for c, xi in zip(row, x)) for row in a]
        assert solve_linear(a, b) == x
        inv = invert_matrix(a)
        assert _matmul(a, inv) == _identity(n)
        assert _matmul(inv, a) == _identity(n)

    def test_empty_matrix(self):
        assert _adjugate([]) == (1, [])
