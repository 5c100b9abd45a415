"""Variation of Hodge structure of the full stack from a period matrix.

A genus-g curve with a symplectic homology basis has a period matrix tau in
the Siegel upper half-space (symmetric, positive-definite imaginary part).
The odd universal cohomology classes come in two integral families a^j_k,
b^j_k dual to the chosen basis; the Hodge classes theta^j_k that span the
(d_k - 1, d_k) part are the combinations

    theta^j_k = sum_i A[j][i] a^i_k + sum_i B[j][i] b^i_k,
    A[j][i] = (delta_ij + sqrt(-1) (Re tau * Im tau^{-1})_{ij}) / 2,
    B[j][i] = -sqrt(-1)/2 * (Im tau^{-1})_{ij},

and theta-bar carries the conjugate coefficients.  Everything here is exact:
entries are complex numbers with Fraction real and imaginary parts, and
decimal strings in the JSON input format are converted to exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .rootdata import _adjugate, _scaled_rows, invert_matrix


class NotSquare(ValueError):
    """Period matrix input is not a square matrix."""


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def parse(value):
        """Accept "p/q" and decimal strings (both exactly representable)."""
        if isinstance(value, QC):
            return value
        if isinstance(value, (list, tuple)):
            re, im = value
            return QC(_rational_of(re), _rational_of(im))
        return QC(_rational_of(value))

    def conj(self):
        return QC(self.re, -self.im)

    def __add__(self, other):
        other = _qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self.__add__(_qc(other).__neg__())

    def __rsub__(self, other):
        return _qc(other).__sub__(self)

    def __mul__(self, other):
        other = _qc(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _qc(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by complex zero")
        return QC((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __eq__(self, other):
        other = _qc(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return "QC(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "%s %s %s*i" % (self.re, "+" if self.im > 0 else "-", abs(self.im))


I = QC(0, 1)


def _qc(x):
    if isinstance(x, QC):
        return x
    return QC(x)


def _rational_of(text):
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)  # exact decimal-string conversion


@dataclass(frozen=True)
class PeriodMatrix:
    g: int
    tau: tuple  # g x g of QC

    @staticmethod
    def from_rows(rows):
        g = len(rows)
        for row in rows:
            if len(row) != g:
                raise NotSquare("period matrix must be square")
        return PeriodMatrix(g, tuple(tuple(QC.parse(x) for x in row)
                                     for row in rows))

    @staticmethod
    def from_json(text):
        """Parse {"g": g, "tau": [[[re, im], ...], ...]}."""
        obj = json.loads(text)
        pm = PeriodMatrix.from_rows(obj["tau"])
        if pm.g != obj.get("g", pm.g):
            raise ValueError("declared genus does not match matrix size")
        return pm

    def real_part(self):
        return [[x.re for x in row] for row in self.tau]

    def imag_part(self):
        return [[x.im for x in row] for row in self.tau]


def identity_times_i(g):
    return PeriodMatrix.from_rows(
        [[QC(0, 1) if i == j else QC(0, 0) for j in range(g)] for i in range(g)])


def _leading_minors_positive(m):
    """Exact Sylvester criterion on a symmetric rational matrix, by one
    Bareiss pass without row swaps over its rows scaled to integers by
    s_i > 0: the k-th pivot is the k-th leading minor times s_1 ... s_k."""
    _, rows = _scaled_rows(m)
    prev = 1
    for k, top in enumerate(rows):
        p = top[k]
        if p <= 0:
            return False
        for i in range(k + 1, len(rows)):
            f = rows[i][k]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    return True


def _det(m):
    """Exact determinant of a square rational matrix: row i scaled by s_i
    gives an integer matrix of determinant det * prod s_i."""
    scales, rows = _scaled_rows(m)
    return Fraction(_adjugate(rows)[0], prod(scales))


def validate_period_matrix(pm: PeriodMatrix):
    """Exact Siegel-space membership test; returns (ok, diagnostics)."""
    if any(len(row) != pm.g for row in pm.tau) or len(pm.tau) != pm.g:
        raise NotSquare("period matrix must be g x g")
    diagnostics = []
    for i in range(pm.g):
        for j in range(i + 1, pm.g):
            if pm.tau[i][j] != pm.tau[j][i]:
                diagnostics.append("not symmetric at (%d, %d)" % (i, j))
    if not _leading_minors_positive(pm.imag_part()):
        diagnostics.append("imaginary part is not positive definite")
    return (not diagnostics), diagnostics


def _complex_matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(mid)), QC())
             for j in range(m)] for i in range(n)]


def theta_coefficients(pm: PeriodMatrix):
    """Matrices (A, B) with theta^j_k = sum_i A[j][i] a^i_k + B[j][i] b^i_k.

    Exact when tau is rational-complex; requires tau in the Siegel space.
    """
    ok, diag = validate_period_matrix(pm)
    if not ok:
        raise ValueError("invalid period matrix: " + "; ".join(diag))
    g = pm.g
    re, im = pm.real_part(), pm.imag_part()
    im_inv = invert_matrix(im)
    R = [[sum(re[i][k] * im_inv[k][j] for k in range(g)) for j in range(g)]
         for i in range(g)]
    half = Fraction(1, 2)
    A = [[QC(half if i == j else 0, half * R[i][j]) for i in range(g)]
         for j in range(g)]
    B = [[QC(0, -half * im_inv[i][j]) for i in range(g)] for j in range(g)]
    return A, B


def basis_change_consistent(pm: PeriodMatrix):
    """Check the inverse basis-change identities exactly.

    With A1[i][j], A2[i][j] the omega / omega-bar coefficients of the first
    dual basis family and B1, B2 those of the second, the holomorphic forms
    must satisfy omega_i = (first family)_i + sum_j tau_ij (second family)_j,
    i.e. A1 + tau B1 = Id and A2 + tau B2 = 0, plus the conjugate relations.
    """
    A, B = theta_coefficients(pm)
    g = pm.g
    A1 = [[A[j][i] for j in range(g)] for i in range(g)]
    B1 = [[B[j][i] for j in range(g)] for i in range(g)]
    A2 = [[A1[i][j].conj() for j in range(g)] for i in range(g)]
    B2 = [[B1[i][j].conj() for j in range(g)] for i in range(g)]
    tau = [list(row) for row in pm.tau]
    tau_bar = [[x.conj() for x in row] for row in pm.tau]
    lhs1 = _complex_matmul(tau, B1)
    lhs2 = _complex_matmul(tau, B2)
    lhs3 = _complex_matmul(tau_bar, B1)
    lhs4 = _complex_matmul(tau_bar, B2)
    for i in range(g):
        for j in range(g):
            ident = QC(1 if i == j else 0)
            if not (A1[i][j] + lhs1[i][j] == ident):
                return False
            if not (A2[i][j] + lhs2[i][j]).is_zero():
                return False
            # conjugate family: omega-bar_i = alpha*_i + sum tau-bar_ij beta*_j
            if not (A1[i][j] + lhs3[i][j]).is_zero():
                return False
            if not (A2[i][j] + lhs4[i][j] == ident):
                return False
    return True


def theta_basis_matrix(pm: PeriodMatrix):
    """The 2g x 2g change of basis from (a, b) to (theta, theta-bar)."""
    A, B = theta_coefficients(pm)
    g = pm.g
    top = [list(A[j]) + list(B[j]) for j in range(g)]
    bot = [[x.conj() for x in A[j]] + [x.conj() for x in B[j]] for j in range(g)]
    return top + bot


def _nonsingular(m):
    """Exact nonvanishing of det M for a square QC matrix M = A + iB: the
    real matrix [[A, -B], [B, A]] has determinant |det M|^2."""
    top = [[x.re for x in row] + [-x.im for x in row] for row in m]
    bot = [[x.im for x in row] + [x.re for x in row] for row in m]
    return _det(top + bot) != 0


def theta_basis_invertible(pm: PeriodMatrix):
    """Exact nonvanishing of det of the (a, b) -> (theta, theta-bar) map."""
    return _nonsingular(theta_basis_matrix(pm))
