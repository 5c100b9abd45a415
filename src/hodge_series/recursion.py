"""Harder-Narasimhan strata: enumeration up to a codimension bound, the
codimension formula, and verification of the stratification recursion

    series(all bundles) = series(semistable)
                        + sum over nonsemistable strata of
                          (uv)^{codim} * series(semistable Levi bundles)

against the closed formula, coefficient by coefficient on truncated series.
The side checked against it, series(all) minus the shifted Levi series, is
one factored sum expanded once: the stack series a(G) plus every closed-formula
term of every stratum's Levi, negated and shifted by w^{codim} (w = uv).

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

Hence 0 < s_a <= (maxCodim - (g-1) dim U^I) / w_a for every a in I, a box in
s-space; its preimage under the affine bijection n -> s (computed by exact
interval arithmetic on the inverse matrix) is a finite integer box in
n-space that provably contains every admissible stratum.

The recursion passes maxCodim = order // 2: a stratum enters shifted by
(uv)^{codim}, of total degree 2 codim, so strata with 2 codim > order
contribute nothing to the truncated series and are never enumerated.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .formulas import (a_series_term, assemble_series, closed_series_for,
                       closed_terms)
from .ratfun import TruncSeries2
from .rootdata import (
    GroupSpec,
    build_root_system,
    invert_matrix,
    validate_degree,
)


class NonIntegralCodim(ArithmeticError):
    """The codimension formula returned a non-integer."""


@dataclass(frozen=True)
class HNType:
    """One nonsemistable stratum: walls I, a lift of delta, slope mu, codim."""

    I: tuple
    delta_lift: tuple
    mu: tuple
    codim: int


def codim(datum_or_rs, mu, g):
    """sum of (beta(mu) + g - 1) over positive roots with beta(mu) > 0."""
    datum = getattr(datum_or_rs, "datum", datum_or_rs)
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


def _interval_dot(row, lo, hi):
    """Exact [min, max] of sum_i row[i] * x_i over the box lo <= x <= hi."""
    a = b = Fraction(0)
    for c, l, h in zip(row, lo, hi):
        if c >= 0:
            a += c * l
            b += c * h
        else:
            a += c * h
            b += c * l
    return a, b


def enumerate_hn_types(spec: GroupSpec, d, g, max_codim):
    """All nonsemistable strata of codimension <= max_codim, each once.

    Deterministic order: by codimension, then by the bitmask of I, then by
    the lift lexicographically.
    """
    if max_codim < 0:
        return []
    d = validate_degree(d, spec)
    rs = build_root_system(spec)
    datum = rs.datum
    X0 = rs.lift_degree(d)
    k = datum.num_simple
    found = []
    for mask in range(1, 1 << k):
        I = tuple(i for i in range(k) if (mask >> i) & 1)
        iset = set(I)
        nil_flags = [any(cf[i] for i in iset) for cf in datum.pos_coeffs]
        dim_u = sum(nil_flags)
        budget = max_codim - (g - 1) * dim_u
        if budget <= 0:
            continue
        # w_a = coefficient of alpha_a in the sum of the nilradical roots
        weights = {a: 0 for a in I}
        for cf, is_nil in zip(datum.pos_coeffs, nil_flags):
            if is_nil:
                for a in I:
                    weights[a] += cf[a]
        s_hi = [Fraction(budget, weights[a]) for a in I]
        s_lo = [Fraction(0)] * len(I)
        # affine map n -> s = (alpha_a(mu))_a:  s = M n + s0
        proj = datum.project_to_center
        mu0 = proj(I, X0)
        pcs = [proj(I, datum.simple_coroots[b]) for b in I]
        s0 = [Fraction(sum(f * m for f, m in zip(datum.simple_roots[a], mu0)))
              for a in I]
        M = [[sum(f * m for f, m in zip(datum.simple_roots[a], pc))
              for pc in pcs] for a in I]
        Minv = invert_matrix(M)
        ranges = []
        for gi in range(len(I)):
            lo, hi = _interval_dot(
                Minv[gi],
                [l - s for l, s in zip(s_lo, s0)],
                [h - s for h, s in zip(s_hi, s0)])
            ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
        # nilradical-root values as integers scaled by a common denominator:
        # beta(mu(n)) = base[r] / D + sum_a n_a * step[r][a] / D
        nil_roots = [form for form, is_nil in zip(datum.pos_roots, nil_flags)
                     if is_nil]
        base_f = [sum(f * m for f, m in zip(form, mu0)) for form in nil_roots]
        step_f = [[sum(f * m for f, m in zip(form, pc)) for pc in pcs]
                  for form in nil_roots]
        denoms = {x.denominator for x in base_f}
        for row in step_f:
            denoms.update(x.denominator for x in row)
        D = 1
        for q in denoms:
            D = D * q // math.gcd(D, q)
        base = [int(x * D) for x in base_f]
        step = [[int(x * D) for x in row] for row in step_f]
        # positions of the simple roots alpha_a within nil_roots
        simple_rows = [nil_roots.index(datum.simple_roots[a]) for a in I]
        gshift = (g - 1) * D
        bound = max_codim * D
        for n in itertools.product(*ranges):
            vals = [b + sum(na * st for na, st in zip(n, strow))
                    for b, strow in zip(base, step)]
            if any(vals[simple_rows[gi]] <= 0 for gi in range(len(I))):
                continue
            total = 0
            ok = True
            for v in vals:
                # all nilradical values are positive once the walls are
                if v > 0:
                    total += v + gshift
                    if total > bound:
                        ok = False
                        break
            if not ok:
                continue
            if total % D:
                raise NonIntegralCodim(
                    "codimension %s/%s is not an integer" % (total, D))
            c = total // D
            X = list(X0)
            for na, a in zip(n, I):
                cv = datum.simple_coroots[a]
                for ci in range(datum.n):
                    X[ci] += na * cv[ci]
            X = tuple(X)
            mu = tuple(m0 + sum(na * pc[ci] for na, pc in zip(n, pcs))
                       for ci, m0 in enumerate(mu0))
            found.append(HNType(I, X, mu, c))
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


def hn_blocks_of(rs, hn: HNType):
    """GL-only: convert a stratum to ordered (rank, degree) block data."""
    (fam, r), = rs.spec.factors
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

    The Levi semistable series are produced by the closed formula applied to
    the Levi root datum with the stratum's topological type, so agreement
    with the closed formula for G simultaneously validates the formula on
    all Levi subgroups.
    """
    return _rhs(spec, g, order, enumerate_hn_types(spec, d, g, order // 2))


def _rhs(spec, g, order, strata):
    """recursion_rhs over strata of codim <= order // 2, as one factored sum:
    a(G) plus each Levi closed-formula term, negated and shifted by w^{codim}."""
    datum = build_root_system(spec).datum
    terms = [a_series_term(spec, g)]
    for hn in strata:
        levi = datum.sub_datum(datum.complement(hn.I))
        terms += [replace(t, coef=-t.coef, shift=t.shift + hn.codim)
                  for t in closed_terms(levi, levi.fund_fracs(hn.delta_lift), g)]
    return assemble_series(terms, order)


@dataclass(frozen=True)
class RecursionReport:
    match: bool
    first_mismatch: tuple | None  # (i, j, lhs, rhs)
    order: int
    strata: int  # contributing strata: codim <= order // 2


def verify_recursion(spec: GroupSpec, d, g, order) -> RecursionReport:
    """Compare the closed formula with the stratification recursion."""
    d = validate_degree(d, spec)
    rs = build_root_system(spec)
    fracs = rs.datum.fund_fracs(rs.lift_degree(d))
    lhs = closed_series_for(rs.datum, fracs, g, order)
    strata = enumerate_hn_types(spec, d, g, order // 2)
    rhs = _rhs(spec, g, order, strata)
    n = len(strata)
    if lhs == rhs:
        return RecursionReport(True, None, order, n)
    for (i, j) in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        lc, rc = lhs.coeff(i, j), rhs.coeff(i, j)
        if lc != rc:
            return RecursionReport(False, (i, j, lc, rc), order, n)
    return RecursionReport(False, None, order, n)
