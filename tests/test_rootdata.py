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
    GroupSpec,
    SingularSystem,
    UnsupportedRank,
    _adjugate,
    _dot,
    build_root_system,
    degrees_of,
    frac_rep,
    good_case,
    parse_degree,
    parse_group,
    invert_matrix,
    smith_invariants,
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
        d = build_root_system(GL(3))
        assert d.simple_roots == ((1, -1, 0), (0, 1, -1))
        assert d.simple_coroots == ((1, -1, 0), (0, 1, -1))
        assert len(d.pos_roots) == 3
        assert d.cartan_matrix() == [[2, -1], [-1, 2]]

    def test_so5(self):
        d = build_root_system(SOodd(2))
        assert d.simple_roots == ((1, -1), (0, 1))
        assert d.simple_coroots == ((1, -1), (0, 2))
        assert len(d.pos_roots) == 4

    def test_sp2(self):
        d = build_root_system(Sp(2))
        assert d.simple_roots == ((1, -1), (0, 2))
        assert d.simple_coroots == ((1, -1), (0, 1))

    def test_so8(self):
        d = build_root_system(SOeven(4))
        assert d.simple_roots[-1] == (0, 0, 1, 1)
        assert len(d.pos_roots) == 12

    def test_pi1(self):
        # pi_1 = Z^n / (coroot lattice): free rank n minus the number of
        # elementary divisors of the coroots, torsion the divisors above 1
        expected = {"GL": (1, ()), "SL": (0, ()), "SOodd": (0, (2,)),
                    "Sp": (0, ()), "SOeven": (0, (2,))}
        for spec in ALL_RANK_LE_6:
            (fam, r), = spec.factors
            n, _, coroots, _ = rootdata._block(fam, r)
            divs = smith_invariants(coroots)
            assert (n - len(divs), tuple(x for x in divs if x > 1)) == expected[fam], spec

    def test_positive_root_count_rank_le_6(self):
        dims = {"GL": lambda r: r * r, "SL": lambda r: r * r - 1,
                "SOodd": lambda r: r * (2 * r + 1), "Sp": lambda r: r * (2 * r + 1),
                "SOeven": lambda r: r * (2 * r - 1)}
        for spec in ALL_RANK_LE_6:
            d = build_root_system(spec)
            fam, r = spec.factors[0]
            assert len(d.pos_roots) == (dims[fam](r) - d.n) // 2

    def test_product_block_structure(self):
        d = build_root_system(parse_group("GL2xSO5"))
        assert d.n == 4
        assert len(d.pos_roots) == 1 + 4
        assert d.dim_z == 1

    def test_datum_keeps_spec_and_lifts(self):
        spec = parse_group("GL2xSO5")
        d = build_root_system(spec)
        assert d.spec == spec
        assert d.lift_degree((3, 1)) == (3, 0, 0, 1)
        levi = d.sub_datum((0,))
        assert levi.spec is None
        with pytest.raises(ValueError, match="no degree lifts"):
            levi.lift_degree((0, 0))


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
        d = build_root_system(spec)
        assert len(set(d.pos_roots)) == len(d.pos_roots)
        assert set(d.pos_roots) == _reference_roots(spec)

    @pytest.mark.parametrize("spec", BUILDER_SPECS, ids=str)
    def test_coefficients_non_negative_and_reproduce_form(self, spec):
        d = build_root_system(spec)
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
        assert build_root_system(GL(3)).exponent_list() == (1, 2, 3)
        assert build_root_system(SL(4)).exponent_list() == (2, 3, 4)
        assert build_root_system(SOodd(2)).exponent_list() == (2, 4)
        assert build_root_system(Sp(3)).exponent_list() == (2, 4, 6)
        assert build_root_system(SOeven(4)).exponent_list() == (2, 4, 4, 6)
        assert build_root_system(SOeven(2)).exponent_list() == (2, 2)

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
            assert build_root_system(spec).exponent_list() == expect, spec

    def test_product(self):
        # GL2 contributes {1, 2}, SO5 contributes {2, 4}; rank 4 in total
        assert build_root_system(parse_group("GL2xSO5")).exponent_list() == (1, 2, 2, 4)

    def test_matches_trivial_levi(self):
        for spec in ALL_RANK_LE_6:
            d = build_root_system(spec)
            assert d.exponent_list() == d.levi(()).exponents


class TestLeviData:
    def test_gl3_alpha1(self):
        ld = build_root_system(GL(3)).levi((0,))
        assert ld.dim_z == 2
        assert ld.exponents == (1, 1, 2)
        assert ld.dim_u == 2

    def test_gl2_alpha1(self):
        ld = build_root_system(GL(2)).levi((0,))
        assert ld.dim_z == 2
        assert ld.exponents == (1, 1)
        assert ld.dim_u == 1

    def test_full_parabolic(self):
        for spec in ALL_RANK_LE_6:
            d = build_root_system(spec)
            full = tuple(range(d.num_simple))
            assert d.levi(full).dim_u == len(d.pos_roots)
            assert d.levi(()).dim_u == 0


def _pairing_condition_values(d, I):
    """2 rho^I(alpha^vee) for alpha in I under the other candidate
    convention: rho^I half the sum of the positive roots beta with
    <beta, alpha^vee> > 0 for some alpha in I."""
    roots = [form for form in d.pos_roots
             if any(_dot(form, d.simple_coroots[b]) > 0 for b in I)]
    return {a: sum(_dot(form, d.simple_coroots[a]) for form in roots) for a in I}


class TestRhoPairings:
    def test_gl2(self):
        assert build_root_system(GL(2)).two_rho_pairings((0,)) == {0: 2}

    def test_gl3(self):
        d = build_root_system(GL(3))
        assert d.two_rho_pairings((0,)) == {0: 3}
        assert d.two_rho_pairings((0, 1)) == {0: 2, 1: 2}

    def test_single_wall_lookup(self):
        assert build_root_system(GL(3)).two_rho_pairings((0,))[0] == 3
        so7 = build_root_system(SOodd(3))
        assert so7.two_rho_pairings((1,))[1] == 4
        assert _pairing_condition_values(so7, (1,))[1] == 5

    def test_type_a_conventions_agree_to_rank_4(self):
        for spec in [GL(r) for r in range(2, 5)] + [SL(r) for r in range(2, 5)]:
            d = build_root_system(spec)
            k = d.num_simple
            for size in range(1, k + 1):
                for I in itertools.combinations(range(k), size):
                    pair = d.two_rho_pairings(I)
                    assert pair == _pairing_condition_values(d, I)
                    assert all(v > 0 for v in pair.values())

    def test_conventions_differ_in_type_b(self):
        # recorded divergence of the two rho^I conventions: B_3, I = middle
        # root (Levi GL_2 x SO_3).  Nilradical half-sum gives 4; the
        # "<beta, alpha^vee> > 0 for some alpha in I" condition gives 5.
        # The composition-sum expansion for SO_7 and the recursion identity
        # both require 4, which is what two_rho_pairings returns.
        d = build_root_system(SOodd(3))
        assert d.two_rho_pairings((1,)) == {1: 4}
        assert _pairing_condition_values(d, (1,)) == {1: 5}

    def test_conventions_differ_in_type_a_rank_5(self):
        # GL_5 with non-adjacent walls I = {alpha_1, alpha_3}: the Levi is
        # GL_1 x GL_2 x GL_2 and the block-boundary factor of the type A
        # composition sum forces 2 rho^I(alpha_1^vee) = r_1 + r_2 = 3, the
        # nilradical value; the pairing condition would give 4.
        d = build_root_system(GL(5))
        assert d.two_rho_pairings((0, 2))[0] == 3
        assert _pairing_condition_values(d, (0, 2))[0] == 4

    def test_nonstrict_positive_everywhere(self):
        for spec in ALL_RANK_LE_6:
            d = build_root_system(spec)
            if d.n > 4:
                continue
            k = d.num_simple
            for size in range(1, k + 1):
                for I in itertools.combinations(range(k), size):
                    pair = d.two_rho_pairings(I)
                    assert all(v > 0 for v in pair.values())


LIFT_SPECS = ([spec for spec in ALL_RANK_LE_6 if sum(r for _, r in spec.factors) <= 4]
              + [parse_group(s) for s in ("GL2xSO5", "GL1xSL3", "SO3xSO5",
                                          "GL2xGL2", "Sp2xSO4", "GL1xGL1xSO3")])


def _fracs(datum, d):
    """<varpi_a(d)> as Fractions n_a / D from the integer pair (D, nums),
    after checking that every n_a lies in (0, D]."""
    D, nums = datum.fund_residues(datum.lift_degree(d))
    assert all(0 < n <= D for n in nums)
    return tuple(Fraction(n, D) for n in nums)


class TestFundWeights:
    def test_gl2(self):
        d = build_root_system(GL(2))
        assert _fracs(d, (1,))[0] == Fraction(1, 2)
        assert _fracs(d, (0,))[0] == 1

    def test_gl3(self):
        d = build_root_system(GL(3))
        assert _fracs(d, (1,))[0] == Fraction(2, 3)
        assert _fracs(d, (1,))[1] == Fraction(1, 3)

    def test_so5(self):
        d = build_root_system(SOodd(2))
        assert _fracs(d, (1,))[0] == 1
        assert _fracs(d, (1,))[1] == Fraction(1, 2)

    def test_lift_independence(self):
        rng = random.Random(7)
        for spec in (GL(3), SOodd(2), SOeven(3), Sp(2)):
            d = build_root_system(spec)
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

    @pytest.mark.parametrize("spec", LIFT_SPECS, ids=str)
    def test_fund_fracs_invariant_under_coroot_shift_of_lift(self, spec):
        # any two lifts of d differ by the coroot lattice, and <varpi(d)>
        # must not see which lift was taken
        rng = random.Random(str(spec))
        d = build_root_system(spec)
        for degree in degrees_of(spec):
            X = d.lift_degree(degree)
            residues = d.fund_residues(X)
            for _ in range(10):
                shifted = list(X)
                for cv in d.simple_coroots:
                    c = rng.randrange(-5, 6)
                    shifted = [a + c * b for a, b in zip(shifted, cv)]
                assert d.fund_residues(tuple(shifted)) == residues


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
        d = build_root_system(GL(2))
        assert d.project_to_center((0,), (3, -5)) == (3, -5)

    def test_gl2_stratum(self):
        d = build_root_system(GL(2))
        # full parabolic subset: nothing projected out
        assert d.project_to_center((0,), (2, -2)) == (2, -2)

    def test_gl2_center(self):
        d = build_root_system(GL(2))
        assert d.project_to_center((), (1, 0)) == (Fraction(1, 2), Fraction(1, 2))

    def test_idempotent_linear(self):
        rng = random.Random(11)
        for spec in (GL(3), SOodd(3), Sp(2), SOeven(3)):
            d = build_root_system(spec)
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
            d = build_root_system(spec)
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
    def test_singular_gives_zero_and_invert_raises(self, a, data):
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
            invert_matrix(a)

    @settings(max_examples=40, deadline=None)
    @given(rat_matrices)
    def test_rational_front_ends_round_trip(self, a):
        n = len(a)
        if _reference_det(a) == 0:
            with pytest.raises(SingularSystem):
                invert_matrix(a)
            return
        inv = invert_matrix(a)
        assert _matmul(a, inv) == _identity(n)
        assert _matmul(inv, a) == _identity(n)

    def test_empty_matrix(self):
        assert _adjugate([]) == (1, [])
