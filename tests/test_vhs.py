"""Tests for the period-matrix / Hodge-class coefficient computations."""

import random
from fractions import Fraction

import pytest

from hodge_series.vhs import (
    QC,
    I,
    NotSquare,
    PeriodMatrix,
    basis_change_consistent,
    _det,
    _leading_minors_positive,
    _nonsingular,
    identity_times_i,
    theta_basis_invertible,
    theta_basis_matrix,
    theta_coefficients,
    validate_period_matrix,
)


def random_period_matrix(rng, g):
    """Random rational tau with Im = M^T M + I (exactly SPD)."""
    re = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(g)]
          for _ in range(g)]
    for i in range(g):
        for j in range(i):
            re[i][j] = re[j][i]
    m = [[rng.randrange(-2, 3) for _ in range(g)] for _ in range(g)]
    im = [[sum(m[k][i] * m[k][j] for k in range(g)) + (1 if i == j else 0)
           for j in range(g)] for i in range(g)]
    return PeriodMatrix.from_rows(
        [[QC(re[i][j], im[i][j]) for j in range(g)] for i in range(g)])


class TestQC:
    def test_arith(self):
        assert QC(1, 2) * QC(3, -1) == QC(5, 5)
        assert QC(1, 1) / QC(1, 1) == QC(1, 0)
        assert QC(0, 1) * QC(0, 1) == QC(-1, 0)

    def test_parse(self):
        assert QC.parse(["1/2", "-0.25"]) == QC(Fraction(1, 2), Fraction(-1, 4))


class TestValidation:
    def test_identity_valid(self):
        ok, diag = validate_period_matrix(identity_times_i(3))
        assert ok and not diag

    def test_not_symmetric(self):
        pm = PeriodMatrix.from_rows([[QC(0, 1), QC(1)], [QC(0), QC(0, 1)]])
        ok, diag = validate_period_matrix(pm)
        assert not ok
        assert any("symmetric" in d for d in diag)

    def test_negative_imaginary(self):
        pm = PeriodMatrix.from_rows([[QC(0, -1)]])
        ok, diag = validate_period_matrix(pm)
        assert not ok
        assert any("positive definite" in d for d in diag)

    def test_negative_definite_with_positive_determinant(self):
        # Im(tau) = diag(-1, -1): det = 1 > 0, but the first leading minor is -1
        pm = PeriodMatrix.from_rows([[QC(0, -1), QC(0)], [QC(0), QC(0, -1)]])
        ok, diag = validate_period_matrix(pm)
        assert not ok
        assert any("positive definite" in d for d in diag)

    def test_leading_minors_match_determinants(self):
        """One Bareiss pass agrees with a determinant per leading minor on
        M M^T + c I, c in -2..1: definite, semidefinite and indefinite."""
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 5)
            a = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            c = rng.randrange(-2, 2)
            m = [[sum(x * y for x, y in zip(a[i], a[j])) + (c if i == j else 0)
                  for j in range(n)] for i in range(n)]
            expect = all(_det([r[:k] for r in m[:k]]) > 0 for k in range(1, n + 1))
            assert _leading_minors_positive(m) == expect

    def test_not_square(self):
        with pytest.raises(NotSquare):
            PeriodMatrix.from_rows([[QC(0, 1), QC(0)]])


class TestThetaCoefficients:
    def test_diagonal_identity(self):
        g = 3
        A, B = theta_coefficients(identity_times_i(g))
        for i in range(g):
            for j in range(g):
                assert A[j][i] == (QC(Fraction(1, 2)) if i == j else QC())
                assert B[j][i] == (QC(0, Fraction(-1, 2)) if i == j else QC())

    def test_genus_one_formula(self):
        x, y = Fraction(3, 7), Fraction(5, 2)
        pm = PeriodMatrix.from_rows([[QC(x, y)]])
        A, B = theta_coefficients(pm)
        assert A[0][0] == QC(Fraction(1, 2), x / (2 * y))
        assert B[0][0] == QC(0, Fraction(-1, 2) / y)

    def test_invalid_matrix_rejected(self):
        pm = PeriodMatrix.from_rows([[QC(0, -1)]])
        with pytest.raises(ValueError):
            theta_coefficients(pm)

    @pytest.mark.parametrize("rows", [
        [[QC(1, 0)]],
        [[QC(0, 1), QC(0, 1)], [QC(0, 1), QC(0, 1)]],
        [[QC(0, 1), QC(2), QC(0)], [QC(2), QC(0, 2), QC(0, 1)],
         [QC(0), QC(0, 1), QC(Fraction(1, 3), Fraction(1, 2))]],
    ])
    def test_singular_imaginary_part_rejected(self, rows):
        """A singular Im(tau) (its first, second or last leading minor is 0)
        is not positive definite, so validation rejects it before any
        inversion."""
        with pytest.raises(ValueError, match=r"^invalid period matrix: .*positive definite"):
            theta_coefficients(PeriodMatrix.from_rows(rows))

    def test_conjugation_consistency(self):
        rng = random.Random(5)
        pm = random_period_matrix(rng, 3)
        A, B = theta_coefficients(pm)
        m = __import__("hodge_series.vhs", fromlist=["theta_basis_matrix"])
        full = m.theta_basis_matrix(pm)
        g = pm.g
        for j in range(g):
            for c in range(2 * g):
                assert full[g + j][c] == full[j][c].conj()


class TestBasisConsistency:
    def test_random_rational_tau(self):
        rng = random.Random(2024)
        for _ in range(20):
            g = rng.randrange(1, 5)
            pm = random_period_matrix(rng, g)
            ok, _ = validate_period_matrix(pm)
            assert ok
            assert basis_change_consistent(pm)
            assert theta_basis_invertible(pm)


def _elimination_nonsingular(m):
    """Reference: the former Gaussian elimination over Q(i), det as the
    signed product of the pivots."""
    n = len(m)
    mat = [[QC(x.re, x.im) for x in row] for row in m]
    det = QC(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if not mat[r][col].is_zero()), None)
        if piv is None:
            return False
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = QC(1) / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if not f.is_zero():
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return not det.is_zero()


class TestNonsingular:
    def test_singular_gaussian_matrix(self):
        # det [[1, i], [i, -1]] = -1 - i^2 = 0
        assert not _nonsingular([[QC(1), I], [I, QC(-1)]])
        assert _nonsingular([[QC(1), I], [I, QC(1)]])

    def test_random_period_matrices_match_elimination(self):
        rng = random.Random(77)
        for _ in range(10):
            m = theta_basis_matrix(random_period_matrix(rng, rng.randrange(1, 4)))
            assert _nonsingular(m) == _elimination_nonsingular(m) is True

    def test_random_matrices_match_elimination(self):
        # rank-deficient draws: the last row is a QC combination of the others
        rng = random.Random(78)
        seen = set()
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = [[QC(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
                 for _ in range(n)]
            if n > 1 and rng.random() < 0.5:
                c = [QC(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n - 1)]
                m[-1] = [sum((ci * row[j] for ci, row in zip(c, m[:-1])), QC())
                         for j in range(n)]
            expected = _elimination_nonsingular(m)
            seen.add(expected)
            assert _nonsingular(m) == expected
        assert seen == {True, False}


class TestJson:
    def test_round_trip(self):
        text = '{"g": 2, "tau": [[["0", "1"], ["1/2", "0.5"]], [["1/2", "0.5"], ["0", "2"]]]}'
        pm = PeriodMatrix.from_json(text)
        assert pm.g == 2
        assert pm.tau[0][1] == QC(Fraction(1, 2), Fraction(1, 2))
        ok, _ = validate_period_matrix(pm)
        assert ok

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            PeriodMatrix.from_json('{"g": 3, "tau": [[["0", "1"]]]}')
