"""Harder-Narasimhan strata: enumeration up to a codimension bound, the
codimension formula, and verification of the stratification recursion

    series(all bundles) = series(semistable)
                        + sum over nonsemistable strata of
                          (uv)^{codim} * series(semistable Levi bundles)

against the closed formula, coefficient by coefficient on truncated series.
Both sides are factored sums: the closed formula's terms for G, and the
stack series a(G) plus every closed-formula term of every stratum's Levi,
negated and shifted by w^{codim} (w = uv).  The check expands their
difference, one factored sum, once, and passes when it is zero.

A stratum is indexed by a pair (I, delta): a nonempty subset I of the simple
roots (the walls on which the slope is strictly positive) and a topological
type delta of semistable bundles for the Levi with simple roots Delta - I,
mapping to the ambient degree d.  The slope vector mu is the projection of
any lift of delta to the center of the Levi, and

    codim = sum over positive roots beta with beta(mu) > 0 of
            (beta(mu) + g - 1).

Enumeration bound.  Lifts of the admissible delta are exactly
X_d + sum_{a in I} n_a alpha_a^vee with integer n (the fiber of
pi_1 L -> pi_1 G over d is a torsor under the coroot classes of I).  The
positive roots beta with beta(mu) > 0 are precisely the nilradical roots of
I, each contributing beta(mu) + (g-1) >= s_a-coefficient-weighted amounts,
so with s_a = alpha_a(mu) > 0 and w_a = coefficient of alpha_a in the sum of
nilradical roots (w_a >= 1),

    codim = sum_a w_a s_a + (g - 1) dim U^I.

Hence the strata with walls I and codim <= maxCodim are the lattice points
s of the simplex {s_a > 0, sum_a w_a s_a <= maxCodim - (g-1) dim U^I}.

Everything is integer arithmetic, in s-space.  With K = Delta - I and det
the determinant of the Levi block A_KK of the Cartan matrix A, the scaled
walls det s are integers affine in n: det s = s0 + M n, where
M = det A_II - A_IK adj(A_KK) A_KI is det times the Schur complement of the
Levi block.  The lattice M Z^I has the lower-triangular basis H = M U
(``_hnf``: positive diagonal, U unimodular), so with n = U m the wall
det s_a = s0_a + sum_{b <= a} H_ab m_b depends on m_1..m_a only, and the
enumeration walks m one wall at a time (``_walk``): det s_a >= 1, and
w_a det s_a is at most det times the budget less what the earlier walls
took and the least the later ones need, sum_{b > a} w_b.  Every leaf is a
stratum, with codim * det = (g - 1) dim U^I * det + sum_a w_a det s_a: every
nilradical root, a non-negative combination of simple roots holding some
alpha_a with a in I, is positive once the walls are.  So the walk visits
the strata and the partial points above them, not the box around the
simplex.  A stratum found is kept as (I, lift, codim): its slope mu is
projected to the center of its Levi (``RootDatum.project_to_center``, from
the same cached Levi block) only when it is read, and mu's entries are the
only Fractions.  The recursion check reads I, the lift and codim alone, so
it projects nothing.  What does not depend on the degree
or the genus (the Levi block's det and adjugate, A_IK adj, H, U and w_a)
is computed once per subset I and cached on the root datum.  Since every
det s_a >= 1, a stratum with walls I needs det * budget >= sum_a w_a; a
wall set without that room is skipped before its set-up (``_hn_setup``),
with det read off the cached Levi block and w_a off the datum's cached
coefficients of 2 rho.

A stratum's Levi terms are those of the closed formula of L^I, read off
the group's own Levi records by the wall set I (``formulas.closed_terms``
with I), with <varpi^{L^I}_beta(X)> as integer numerators over the det of
the Levi block, from ``RootDatum.fund_residues(X, I)``: the recursion
builds no Levi root datum and no Fraction.

The recursion passes maxCodim = order // 2: a stratum enters shifted by
(uv)^{codim}, of total degree 2 codim, so strata with 2 codim > order
contribute nothing to the truncated series and are never enumerated.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from .formulas import (_datum_residues, a_series_term, assemble_series,
                       closed_series_for, closed_terms)
from .ratfun import TruncSeries2
from .rootdata import (
    GroupSpec,
    RootDatum,
    _dot,
    build_root_system,
)


class NonIntegralCodim(ArithmeticError):
    """The codimension formula returned a non-integer."""


@dataclass(frozen=True)
class HNType:
    """One nonsemistable stratum: walls I, a lift of delta and codim, on the
    root datum of its group.  The slope mu is projected from the lift on
    its first read and kept; the datum takes no part in comparison."""

    I: tuple
    delta_lift: tuple
    codim: int
    datum: RootDatum = field(compare=False, repr=False)

    @cached_property
    def mu(self):
        """The projection of delta_lift to the center of L^I, as Fractions."""
        return self.datum.project_to_center(self.I, self.delta_lift)


def codim(datum, mu, g):
    """sum of (beta(mu) + g - 1) over positive roots with beta(mu) > 0."""
    mu = tuple(Fraction(m) for m in mu)
    total = Fraction(0)
    count = 0
    for form in datum.pos_roots:
        val = sum(f * m for f, m in zip(form, mu))
        if val > 0:
            total += val
            count += 1
    total += count * (g - 1)
    if total.denominator != 1:
        raise NonIntegralCodim("codimension %s is not an integer" % (total,))
    return int(total)


@dataclass(frozen=True)
class _HNSetup:
    """Degree- and genus-independent integer data of the strata with walls I.

    With K = keep = Delta - I, A the Cartan matrix and (det, adj) the
    determinant and adjugate of its Levi block A_KK
    (``RootDatum._cartan_block``), s = det * alpha_I(mu) is affine in the
    lift X = X0 + sum_a n_a alpha_a^vee: s = s0 + M n with
    s0 = det alpha_I(X0) - R alpha_K(X0), R = A_IK adj, and
    M = det A_II - R A_KI, det times the Schur complement of the Levi block.
    H = M U is its Hermite form (``_hnf``), lower-triangular with a positive
    diagonal, and U is unimodular, so n = U m walks the same lattice with
    s = s0 + H m.  weights holds w_a, the coefficient of alpha_a in 2 rho,
    for a in I.
    """

    keep: tuple
    det: int
    R: tuple
    H: tuple
    U: tuple
    weights: tuple


def _hnf(rows):
    """(H, U) with rows * U = H, H lower-triangular with a positive diagonal
    and U unimodular, for a nonsingular square integer matrix.  Row by row,
    each entry right of the diagonal is cleared against the diagonal by one
    extended-gcd column operation of determinant 1, all in integers."""
    k = len(rows)
    H = [list(r) for r in rows]
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = H[i][i], H[i][j]
            if not b:
                continue
            # x a + y b = gcd(a, b), by the extended Euclidean algorithm
            x, y, x1, y1, r, r1 = 1, 0, 0, 1, a, b
            while r1:
                t = r // r1
                x, y, x1, y1, r, r1 = x1, y1, x - t * x1, y - t * y1, r1, r - t * r1
            p, q = a // r, b // r
            for row in H + U:
                row[i], row[j] = x * row[i] + y * row[j], p * row[j] - q * row[i]
        if H[i][i] < 0:
            for row in H + U:
                row[i] = -row[i]
    return H, U


def _hn_setup(datum, I) -> _HNSetup:
    """The _HNSetup of walls I, cached on the datum."""
    cached = datum._cache.get(("hn", I))
    if cached is not None:
        return cached
    keep, det, adj = datum._cartan_block(I)
    A = datum._cartan_rows()
    R = [[sum(A[a][k] * adj[i][j] for i, k in enumerate(keep)) for j in range(len(keep))]
         for a in I]
    M = [[det * A[a][b] - sum(r * A[k][b] for r, k in zip(row, keep)) for b in I]
         for a, row in zip(I, R)]
    H, U = _hnf(M)
    w = _two_rho_coeffs(datum)
    cached = datum._cache[("hn", I)] = _HNSetup(
        keep, det, tuple(map(tuple, R)), tuple(map(tuple, H)),
        tuple(map(tuple, U)), tuple(w[a] for a in I))
    return cached


def _two_rho_coeffs(datum):
    """The coefficient of each simple root alpha_a in 2 rho, cached on the
    datum.  For a in I it is w_a, the coefficient of alpha_a in the sum of
    the nilradical roots of I: the other positive roots lack alpha_a."""
    cached = datum._cache.get("two_rho")
    if cached is None:
        cached = datum._cache["two_rho"] = tuple(map(sum, zip(*datum.pos_coeffs)))
    return cached


def _walk(s0, H, weights, room, m=()):
    """Every integer m with s = s0 + H m >= 1 and sum_a w_a s_a <= room,
    as (m, room - sum_a w_a s_a), for H lower-triangular with a positive
    diagonal.  s_a depends on m_1..m_a only, so m_a is drawn, after
    m_1..m_{a-1}, from the interval 1 <= s_a, w_a s_a <= the room left less
    sum_{b > a} w_b (the least the later walls take): no point outside the
    simplex is visited."""
    a = len(m)
    if a == len(s0):
        yield m, room
        return
    row, w = H[a], weights[a]
    c, h = s0[a] + sum(map(mul, row, m)), row[a]
    for x in range(-((c - 1) // h), (room - sum(weights[a + 1:]) - w * c) // (w * h) + 1):
        yield from _walk(s0, H, weights, room - w * (c + h * x), m + (x,))


def enumerate_hn_types(spec: GroupSpec, d, g, max_codim):
    """All nonsemistable strata of codimension <= max_codim, each once.

    Deterministic order: by codimension, then by the tuple I of wall indices
    (lexicographically, so (0, 1) comes before (1,)), then by the lift
    lexicographically.
    """
    if max_codim < 0:
        return []
    datum = build_root_system(spec)
    X0 = datum.lift_degree(d)
    alpha0 = [_dot(a, X0) for a in datum.simple_roots]
    w = _two_rho_coeffs(datum)
    found = []
    for levi in datum.levis()[1:]:
        I = levi.I
        budget = max_codim - (g - 1) * levi.dim_u
        if budget <= 0:
            continue
        # every s_a >= 1, so a stratum needs det * budget >= sum_a w_a: a
        # wall set without that room holds none and gets no set-up
        if datum._cartan_block(I)[1] * budget < sum(w[a] for a in I):
            continue
        hn = _hn_setup(datum, I)
        det = hn.det
        aK = [alpha0[k] for k in hn.keep]
        s0 = [det * alpha0[a] - _dot(row, aK) for a, row in zip(I, hn.R)]
        # codim * det = (g - 1) dim U * det + sum w_a s_a = max_codim * det
        # less the room the walk leaves
        for m, room in _walk(s0, hn.H, hn.weights, det * budget):
            total = max_codim * det - room
            if total % det:
                raise NonIntegralCodim(
                    "codimension %s/%s is not an integer" % (total, det))
            X = list(X0)
            for row, a in zip(hn.U, I):
                na = _dot(row, m)
                X = [x + na * c for x, c in zip(X, datum.simple_coroots[a])]
            found.append(HNType(I, tuple(X), total // det, datum))
    found.sort(key=lambda t: (t.codim, t.I, t.delta_lift))
    return found


def hn_gl_oracle(r, d, max_codim, g):
    """Independent combinatorial enumeration of GL_r strata.

    Returns ordered block data ((r_1, d_1), ..., (r_l, d_l)) with sum r_i = r,
    sum d_i = d, strictly decreasing slopes d_i / r_i, l >= 2 and

        codim = sum_{i < j} (r_j d_i - r_i d_j + r_i r_j (g - 1)) <= max_codim.

    Search bounds, all in integer arithmetic: every pair contributes a
    positive amount to the codimension, so partial sums prune monotonically;
    the top slope lies in [d/r, d/r + max_codim]; the leading slope of every
    tail is at least the tail average; adjacent slopes strictly decrease.
    """
    out = []

    def rec(blocks, rem_r, rem_d, partial):
        if rem_r == 0:
            if rem_d == 0 and len(blocks) >= 2:
                out.append(tuple(blocks))
            return
        prev = blocks[-1] if blocks else None
        for r_i in range(1, rem_r + 1):
            d_lo = -((-r_i * rem_d) // rem_r)  # ceil(r_i * rem_d / rem_r)
            if prev is None:
                d_hi = (r_i * d + r_i * max_codim * r) // r
            else:
                d_hi = (prev[1] * r_i - 1) // prev[0]  # strict slope decrease
            if r_i == rem_r:
                if not (d_lo <= rem_d <= d_hi):
                    continue
                d_lo = d_hi = rem_d
            for d_i in range(d_lo, d_hi + 1):
                step = sum(r_i * db - rb * d_i + rb * r_i * (g - 1)
                           for rb, db in blocks)
                if partial + step > max_codim:
                    continue  # later blocks only add positive pair terms
                blocks.append((r_i, d_i))
                rec(blocks, rem_r - r_i, rem_d - d_i, partial + step)
                blocks.pop()

    rec([], r, d, 0)
    out.sort(key=lambda b: (oracle_codim(b, g), b))
    return out


def oracle_codim(blocks, g):
    total = 0
    for i in range(len(blocks)):
        ri, di = blocks[i]
        for j in range(i + 1, len(blocks)):
            rj, dj = blocks[j]
            total += rj * di - ri * dj + ri * rj * (g - 1)
    return total


def hn_blocks_of(datum, hn: HNType):
    """GL-only: convert a stratum to ordered (rank, degree) block data."""
    (fam, r), = datum.spec.factors
    if fam != "GL":
        raise ValueError("block data only defined for a single GL factor")
    walls = sorted(i + 1 for i in hn.I)
    blocks = []
    prev = 0
    for w in walls + [r]:
        if w > prev:
            blocks.append((w - prev, sum(hn.delta_lift[prev:w])))
            prev = w
    return tuple(blocks)


def hn_types_to_csv(types):
    """CSV table of strata: I bitmask, delta lift, mu, codim."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["I", "delta", "mu", "codim"])
    for t in types:
        mask = sum(1 << i for i in t.I)
        writer.writerow([
            mask,
            " ".join(str(x) for x in t.delta_lift),
            " ".join(str(m) for m in t.mu),
            t.codim,
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the recursion identity
# ---------------------------------------------------------------------------


def recursion_rhs(spec: GroupSpec, d, g, order) -> TruncSeries2:
    """Full-stack series minus the shifted semistable Levi series of every
    nonsemistable stratum, to total degree <= order.

    The Levi semistable series are produced by the closed formula of the
    Levi L^I, read off the group's records, with the stratum's topological
    type, so agreement with the closed formula for G simultaneously
    validates the formula on all Levi subgroups.
    """
    strata = enumerate_hn_types(spec, d, g, order // 2)
    return assemble_series(_rhs_terms(spec, g, strata, 1), order)


def _rhs_terms(spec, g, strata, sign):
    """sign times the factored terms of recursion_rhs over the given strata:
    a(G), and each stratum's Levi closed-formula terms negated and shifted
    by w^{codim}."""
    datum = build_root_system(spec)
    a = a_series_term(spec, g)
    a.coef *= sign
    terms = [a]
    for hn in strata:
        terms += closed_terms(datum, datum.fund_residues(hn.delta_lift, hn.I), g,
                              -sign, hn.codim, hn.I)
    return terms


@dataclass(frozen=True)
class RecursionReport:
    match: bool
    first_mismatch: tuple | None  # (i, j, lhs, rhs)
    order: int
    strata: int  # contributing strata: codim <= order // 2


def verify_recursion(spec: GroupSpec, d, g, order) -> RecursionReport:
    """Compare the closed formula with the stratification recursion.

    Both sides are sums of factored terms, so they agree to total degree
    <= order exactly when one truncated sum is zero: the closed-formula
    terms of G, minus a(G), plus every stratum's shifted Levi terms.  When it
    is not, its least nonzero coefficient (i, j) is the first mismatch: the
    closed series gives lhs there, and rhs is lhs minus the sum's
    coefficient."""
    datum, residues = _datum_residues(spec, d)
    strata = enumerate_hn_types(spec, d, g, order // 2)
    n = len(strata)
    diff = assemble_series(closed_terms(datum, residues, g)
                           + _rhs_terms(spec, g, strata, -1), order)
    if diff.is_zero():
        return RecursionReport(True, None, order, n)
    i, j = min(diff.coeffs)
    lc = closed_series_for(datum, residues, g, order).coeff(i, j)
    return RecursionReport(False, (i, j, lc, lc - diff.coeff(i, j)), order, n)
