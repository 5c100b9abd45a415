"""Generating functions: classifying-stack series, full-stack series, the
closed formula for semistable stacks, classical-type composition sums, and
moduli-space specializations.

Every function here returns exact objects from :mod:`hodge_series.ratfun`.

The central object is the closed formula for the two-variable series of the
semistable locus: a sum over subsets I of the simple roots of

    (-1)^{dim Z(L^I) - dim Z_G} * a(L^I)
        * (uv)^{(g-1) dim U^I} / prod_{a in I} (1 - (uv)^{2 rho^I(a^vee)})
        * (uv)^{sum_{a in I} 2 rho^I(a^vee) <varpi_a(d)>}

where a(L) is the degree-independent series of the stack of all L-bundles,

    a(L) = ((1+u)^g (1+v)^g / (1-uv))^{dim Z(L)}
           * prod_{k > dim Z(L)} (1+u^{d_k} v^{d_k-1})^g (1+u^{d_k-1} v^{d_k})^g
                                 / ((1-(uv)^{d_k-1}) (1-(uv)^{d_k})),

with d_k the exponents of L.  Every exponent of w = uv in a term is an
integer, and it is computed in integers: the root datum hands over the
degree as integers (D, n_a), <varpi_a(d)> = n_a / D with D the determinant
of the Cartan block (``RootDatum.fund_residues``), so the exponent of subset
I is the quotient of (g-1) dim U^I * D + sum 2 rho^I(a^vee) n_a by D, a
nonzero remainder raises ``NonIntegralExponent``, and no Fraction is built
between the degree's lift and the band.  ``closed_terms`` reads the rest of
each term from a template per Levi record and genus (``_templates``): the
sign, (g-1) dim U^I, the numerator factors of a(L^I) and its denominator
with the walls' factors in it, built from the root datum's cached Levi
records (``RootDatum.levis``) and cached beside them.  The closed formula of
a Levi L^I, which the recursion subtracts for every stratum with walls I,
reads the same group records: its subset J of Delta - I has the template of
the record of I u J, with (g-1) (dim U^{I u J} - dim U^I) and the wall
pairings sums(I u J)[beta] - sums(I)[beta] for beta in J, keyed by beta's
position in Delta - I, cached per genus and I; no Levi root datum is built.
The parts of a(L) depend only on dim Z(L) and the exponents of L, so every
template reads them from one table per datum and genus, built once per Levi
type, in one canonical layout (``_a_parts``): equal Levi types have equal
numerator tuples.  Every denominator in sight
is a product of factors (1 - (uv)^k), so terms are carried in factored form
(a numerator product plus a multiset of w-exponents).  One pass serves the
exact and the truncated sum.  A term's numerator is that of a(L^I), which
depends only on dim Z(L^I) and the exponents of L^I, so the pass groups the
terms by numerator (GL8: 128 terms, 22 groups).  A group with denominator
gden, the union of its members' denominators, sums coef * w^shift * (gden /
den) over its members into one short integer polynomial C(w): it first sums
coef * w^shift over the members with equal den, then multiplies each
nonzero sum once by gden / den.  The whole sum lives on one band of
:mod:`hodge_series.ratfun`, a single Python int with one signed B-bit slot
per coefficient, where every factor (1 + u^a v^b) and every 1 - w^k is one
C-level shift-add by a fixed slot shift: a letter.  A group's term over the
common denominator is its C(w), laid out as one band column (the leaf),
times its letters: its numerator factors and the factors of the common
denominator over gden.  The groups share most of their letters, so the sum
is taken by Horner's rule over them: the letters common to every group are
applied once, to the sum of the rest, and the groups split on the letter
held by the most of them, which is applied once to the sum of those that
hold it.  The slot width B is fixed before the first pass, from a bound on
every partial sum: a letter (1 +- x^s)^e at most multiplies the l1 norm by
2^e, so sum over the groups of l1(C) * 2^(their letters' total
multiplicity) bounds them all.  The exact sum keeps the common denominator
as its multiset, and its order, the largest total degree of a group's
term over the common denominator, is read off the groups in the same pass,
so its band cuts nothing and stops at the top of the highest term; the
truncated sum divides by the common denominator once, as running sums
along w, in slots widened beforehand for that division.  No gcd is ever
computed.

The classical-type composition sums are the same formula indexed by
compositions of the rank, with their Levis, dim U, wall pairings and
exponents written out by hand per type instead of read from the root datum;
their walls carry <varpi> as integer numerators over r (type A) or over 2
(types B, C and D).  They build every factored term through ``_levi_term``,
which turns (sign, Levi, dim U, walls, D) into an ``FTerm`` from the same
parts as a template (``_a_parts``, ``_exponent``); each sum reads the parts
of a(L) from its own table, keyed by (dim Z, sorted exponents), so
``_a_parts`` runs once per Levi type in a call, whatever order a
composition gives its blocks' exponents in.

Both sums are linear in their terms, so two sums are compared as one: the
terms of one side and those of the other with coef negated
(``classical_difference_terms``; the recursion check of
:mod:`hodge_series.recursion` likewise).  The sum is zero exactly when the
two sides are equal, exactly and to every order, since both sides skip the
same terms (2 shift > order).  Equal terms of the two sides have equal
canonical numerators, so they fall in one group and cancel in its C(w), in
integers, before the band: a classical difference sum that holds forms no
band at all.

The fixed-determinant polynomial is certified the same way
(``hp_moduli_fixed_det``).  The type A composition sum with one abelian
factor less per term, each term times the Jacobian factor
(1 + u)^g (1 + v)^g / (1 - uv), is the GL_r composition sum term for term,
so the GL_r closed formula's terms minus the lifted terms are one
difference sum, which must vanish; its equal terms cancel in their groups'
cofactors.  The first sum itself is then divided exactly by its
denominator on its own band and decoded once (``ratfun._exact_quotient``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import gcd
from operator import add, itemgetter, sub

from .ratfun import (
    BivarPoly,
    NotDivisible,
    NotPolynomialWithinBound,
    RatFun1,
    RatFun2,
    TruncSeries2,
    UniPoly,
    _exact_quotient,
    _l1,
    _over_den,
    _pack,
    _poly,
    _series_growth,
    _times_binomial,
    _times_den,
    _unband,
    _w_degree,
    _width,
    to_polynomial,
)
from .rootdata import (
    GroupSpec,
    NonIntegralExponent,
    RootDatum,
    build_root_system,
    good_case,
    validate_degree,
)

class NotGoodCase(ValueError):
    """Moduli-space series requested for a degree with strictly semistables."""


class NotCoprime(ValueError):
    """Fixed-determinant series requires coprime rank and degree."""


class FactorizationFailed(AssertionError):
    """The fixed-determinant series times the Jacobian series is not the
    GL_r semistable stack series."""


def _check_genus(g):
    if g < 2:
        raise ValueError("genus must be at least 2")


# ---------------------------------------------------------------------------
# factored terms
# ---------------------------------------------------------------------------


class FTerm(namedtuple("FTerm", "coef shift numfactors den")):
    """coef * w^shift * prod (1 + u^a v^b)^e / prod (1 - w^k)^mult, with
    numfactors a tuple of (a, b, e) and den a dict w-exponent k ->
    multiplicity m >= 1 of 1 - w^k.  A named tuple: ``_replace`` gives a
    changed copy."""

    __slots__ = ()


def _common_den(dens):
    """Max-multiplicity common denominator of the given denominators, as a
    dict w-exponent -> multiplicity, positive multiplicities only."""
    common = {}
    for den in dens:
        for k, m in den.items():
            if m > common.get(k, 0):
                common[k] = m
    return common


def _group_cofactor(group):
    """(gden, C) for the terms of one group: gden the union of their
    denominators, and C(w) the sum of coef * w^shift * prod (1 - w^k)^m over
    gden - den, trimmed of trailing zeros.

    The terms are first summed per denominator, as sum coef * w^shift, so
    each cofactor is multiplied once per distinct denominator, and a
    denominator whose sum cancels (as equal terms of the two sides of a
    difference sum do) is skipped; the factors a denominator already has in
    full are skipped too."""
    buckets = {}
    for t in group:
        key = frozenset(t.den.items())
        b = buckets.get(key)
        if b is None:
            buckets[key] = (t.den, {t.shift: t.coef})
        else:
            b[1][t.shift] = b[1].get(t.shift, 0) + t.coef
    gden = _common_den(den for den, _ in buckets.values())
    C = []
    for den, w in buckets.values():
        if not any(w.values()):
            continue
        s = [0] * (max(w) + 1)
        for x, c in w.items():
            s[x] = c
        _times_den(s, [(k, m - den.get(k, 0)) for k, m in gden.items()
                       if m != den.get(k, 0)])
        C += repeat(0, len(s) - len(C))
        C[:len(s)] = map(add, C, s)
    while C and not C[-1]:
        C.pop()
    return gden, C


def _over_common_den(terms, order=None):
    """Numerators times their cofactors over the common denominator, laid
    out for one band (layout in :mod:`hodge_series.ratfun`); given an order,
    terms with 2 * shift > order are skipped.

    One pass groups the terms by numerator factors (their Levi type); a
    group's denominator gden is the union of its members' denominators, and
    common is the union of the groups' gden, those of groups that cancel
    included.  The group's w-parts sum to one short list C(w), one cofactor
    product per distinct denominator (``_group_cofactor``), which is laid
    out as a band column: the group's leaf, at the offset of C's lowest
    nonzero power.  What multiplies the leaf is a multiset of letters, band
    shifts with their sign: b * W + a - b with multiplicity e for each
    numerator factor (1 + u^a v^b)^e, and k * W with multiplicity m for
    each factor (1 - w^k)^m of common - gden.  The package's canonical
    numerators (``_a_parts``) never repeat an (a, b); a general term list
    may, and its repeats add their multiplicities.  A group whose C cancels
    adds nothing and is dropped; so is one whose leaf starts at or past the
    band's end.

    [lo, lo + W) covers p - q over the numerators of the groups kept, read
    in one loop over each group's numerator factors together with their
    total degree.  Without an order the sum is exact: its order is the
    largest total degree of a group's term over the common denominator,
    deg(numerator factors) + 2 (wdeg(common) - wdeg(gden) + deg C), which
    that term reaches, so nothing is cut, and every column of the band has
    w-degree below its row count (``ratfun._exact_quotient``).  The band has
    n = ((order - lo) // 2 + 1) * W slots, enough for total degree <= order.

    Returns (common, lo, W, n, items, bound), an item (letters, off, column)
    for each group, column the nonzero part of C from its lowest power on;
    ``_band_sum`` sums them.  A letter (1 +- x^s)^e multiplies the l1 norm
    by at most 2^e and cutting the band never raises it, so bound, the sum
    over the items of l1(C) * 2^(sum of their multiplicities), bounds the
    l1 norm of every partial sum that ``_horner`` forms, cut or not."""
    groups = {}
    for t in terms:
        if order is None or 2 * t.shift <= order:
            groups.setdefault(t.numfactors, []).append(t)
    cofactors = [(nf, *_group_cofactor(group)) for nf, group in groups.items()]
    common = _common_den(gden for _, gden, _ in cofactors)
    wcommon = _w_degree(common)
    lo = hi = top = 0
    kept = []
    for numfactors, gden, C in cofactors:
        if not C:
            continue
        low = high = deg = 0
        for a, b, e in numfactors:
            if a < b:
                low += e * (a - b)
            else:
                high += e * (a - b)
            deg += e * (a + b)
        lo, hi = min(lo, low), max(hi, high)
        top = max(top, deg + 2 * (wcommon - _w_degree(gden) + len(C) - 1))
        kept.append((numfactors, gden, C))
    if order is None:
        order = top
    W = hi - lo + 1
    n = ((order - lo) // 2 + 1) * W
    items, bound = [], 0
    for numfactors, gden, C in kept:
        # C's leading zeros (the w^shift) only move the leaf's offset
        t0 = next(x for x, c in enumerate(C) if c)
        off = t0 * W - lo
        if off >= n:
            continue
        letters = {}
        for a, b, e in numfactors:
            f = (b * W + a - b, add)
            letters[f] = letters.get(f, 0) + e
        for k, m in common.items():
            letters[k * W, sub] = m - gden.get(k, 0)
        letters = {f: e for f, e in letters.items() if e > 0}
        bound += _l1(C) << sum(letters.values())
        items.append((letters, off, C[t0:]))
    return common, lo, W, n, items, bound


def _band_sum(items, n, W, B):
    """The band of n slots of width B summing the items of
    ``_over_common_den``: each column packed as a leaf, its entries W slots
    apart and cut at the band's end, then ``_horner``."""
    if not items:
        return 0
    leaves = []
    for letters, off, col in items:
        m = min((len(col) - 1) * W + 1, n - off)
        leaves.append((letters, off, _pack(
            [(x * W, c) for x, c in enumerate(col[:-(-m // W)])], m, B)))
    off, X = _horner(leaves, n, B)
    return X << off * B


def _horner(items, n, B):
    """Sum over the items (letters, off, X) of the band X times prod over
    letters (shift, op) -> e of (1 +- x^shift)^e, as (off, X) cut at the
    band's end n; the letter dicts are emptied in place.

    The letters common to every item are applied once, to the sum.  Of the
    rest, the letter f held by the most items splits them: the items holding
    it are summed by recursion with f^m taken out, m their least
    multiplicity, and f^m is applied to that sum; the others go round
    again.  Letters that no two items share are applied item by item.  The
    recursion only enters items that lose m copies of f, so its depth is
    bounded by the letters of one item, not by the number of items."""
    shared = dict(items[0][0])
    for letters, _, _ in items[1:]:
        shared = {f: min(e, letters[f]) for f, e in shared.items() if f in letters}
    for letters, _, _ in items:
        _take(letters, shared)
    total = None
    while items:
        held = {}
        for letters, _, _ in items:
            for f in letters:
                held[f] = held.get(f, 0) + 1
        f, count = max(held.items(), key=itemgetter(1), default=(None, 0))
        if count < 2:
            for item in items:
                total = _add_at(total, _apply(*item, n, B), B)
            break
        with_f = [item for item in items if f in item[0]]
        items = [item for item in items if f not in item[0]]
        fm = {f: min(letters[f] for letters, _, _ in with_f)}
        for letters, _, _ in with_f:
            _take(letters, fm)
        total = _add_at(total, _apply(fm, *_horner(with_f, n, B), n, B), B)
    return _apply(shared, *total, n, B)


def _take(letters, part):
    """Remove the letters of part, with their multiplicities, from the
    letters held (a superset), in place."""
    for f, e in part.items():
        if letters[f] == e:
            del letters[f]
        else:
            letters[f] -= e


def _apply(letters, off, X, n, B):
    """(off, X) with X multiplied by its letters, smallest shift first, and
    cut at n - off slots.  Every shift is causal, so the slots below the
    cut are exact, and a letter whose shift reaches the cut changes none of
    them."""
    cap = n - off
    for (shift, op), e in sorted(letters.items(), key=lambda fe: fe[0][0]):
        if shift < cap:
            X = _times_binomial(X, shift, e, op, cap, B)
    return off, X


def _add_at(total, part, B):
    """The sum of two (off, X) partial sums, aligned by offset at the lower
    one; total None is the empty sum."""
    if total is None:
        return part
    (o1, X1), (o2, X2) = sorted((total, part), key=itemgetter(0))
    return o1, X1 + (X2 << (o2 - o1) * B)


def assemble_exact(terms) -> RatFun2:
    """Sum factored terms over the max-multiplicity common denominator, on
    the band of the exact order read off the groups, so nothing is cut."""
    common, lo, W, n, items, bound = _over_common_den(terms)
    B = _width(bound)
    return RatFun2(_poly(_unband(_band_sum(items, n, W, B), n, lo, W, B)), common)


def assemble_series(terms, order) -> TruncSeries2:
    """Sum of the power-series expansions of factored terms to total degree
    <= order: the common-denominator sum divided by each 1 - w^k as running
    sums along w, at a slot width that holds both."""
    common, lo, W, n, items, bound = _over_common_den(terms, order)
    B = _width(bound * _series_growth(common, n // W))
    X = _over_den(_band_sum(items, n, W, B), n, common, W, B)
    return TruncSeries2(order, _unband(X, n, lo, W, B))


# ---------------------------------------------------------------------------
# stack series of all bundles (degree independent)
# ---------------------------------------------------------------------------


def _a_parts(m, nonab_exps, g):
    """Numerator factors and denominator multiset of a(L), from dim Z(L) = m
    and the exponents of L after its m leading ones, in the canonical
    layout: the abelian pair (1, 0, g m), (0, 1, g m) first when m > 0,
    then one pair (d, d - 1, g c), (d - 1, d, g c) per distinct exponent d,
    in increasing order, c the multiplicity of d.  Equal Levi types get
    equal numerators, whatever order their exponents come in, and no two
    factors have the same (a, b)."""
    numf = []
    den = {}
    if m:
        numf += [(1, 0, g * m), (0, 1, g * m)]
        den[1] = m
    for d in sorted(set(nonab_exps)):
        c = nonab_exps.count(d)
        numf += [(d, d - 1, g * c), (d - 1, d, g * c)]
        den[d - 1] = den.get(d - 1, 0) + c
        den[d] = den.get(d, 0) + c
    return tuple(numf), den


def _exponent(x, D):
    """The w-exponent x / D, which must be an integer."""
    q, rem = divmod(x, D)
    if rem:
        raise NonIntegralExponent("non-integer (uv)-exponent %d/%d" % (x, D))
    return q


def _levi_term(parts, coef, m, nonab_exps, dim_u, walls, g, D=1):
    """coef * a(L) * w^{(g-1) dim_u + sum r n / D} / prod (1 - w^r), where L
    has dim Z(L) = m and non-abelian exponents nonab_exps, and walls lists
    the pairs (r, n) = (2 rho^I(alpha^vee), D <varpi_alpha(d)>), n an
    integer.  The parts of a(L) are read from the table parts, keyed by
    (m, sorted nonab_exps), and put in it on a miss; the term gets its own
    copy of the denominator."""
    kind = m, tuple(sorted(nonab_exps))
    if kind not in parts:
        parts[kind] = _a_parts(*kind, g)
    numf, den = parts[kind]
    den = den.copy()
    for r, _ in walls:
        den[r] = den.get(r, 0) + 1
    return FTerm(coef, _exponent((g - 1) * dim_u * D + sum(r * n for r, n in walls), D),
                 numf, den)


def a_series_term(spec: GroupSpec, g) -> FTerm:
    datum = build_root_system(spec)
    m = datum.dim_z
    return _levi_term({}, 1, m, datum.exponent_list()[m:], 0, (), g)


def a_series(spec: GroupSpec, g) -> RatFun2:
    """Series of the stack of all G-bundles of a fixed degree (any degree)."""
    _check_genus(g)
    return assemble_exact([a_series_term(spec, g)])


def hp_classifying(spec: GroupSpec) -> RatFun2:
    """Series of the classifying stack: 1 / prod_k (1 - (uv)^{d_k})."""
    exps = build_root_system(spec).exponent_list()
    return assemble_exact([FTerm(1, 0, (), {k: exps.count(k) for k in exps})])


# ---------------------------------------------------------------------------
# the closed formula
# ---------------------------------------------------------------------------


def _templates(datum: RootDatum, g, I=()):
    """One template (sign, (g - 1) dim U, numfactors, den, walls) per
    parabolic subset J of the Levi L^I, J a subset of Delta - I in the
    bitmask order of Delta - I: the parts of J's term in L^I's closed
    formula that do not depend on the degree, den with one factor 1 - w^r
    per wall (position, r) already in it.  Each is read off the group's own
    records of I and I u J (``RootDatum.levis``): the Levi of J in L^I is
    L^{I u J}, its nilradical in L^I has dim U(I u J) - dim U(I) roots, and
    each beta in J has the wall pairing sums(I u J)[beta] - sums(I)[beta],
    keyed by beta's position in Delta - I.  I = () gives G's own closed
    formula.  The numfactors and base den of a(L^{I u J}) come from one
    table per datum and genus, keyed by Levi type (dim Z, exponents), so
    ``_a_parts`` runs once per type and every template of that type, for
    any I, shares its numfactors.  Cached on the datum beside its records,
    per genus and I; the terms built from a template share its numfactors
    and den."""
    I = tuple(sorted(I))
    key = ("templates", g, I)
    cached = datum._cache.get(key)
    if cached is None:
        levis, mask = datum.levis(), datum._mask(I)
        top, keep = levis[mask], datum.complement(I)
        a = datum._cache.setdefault(("a", g), {})
        out = []
        for jmask in range(1 << len(keep)):
            J = [(p, b) for p, b in enumerate(keep) if jmask >> p & 1]
            L = levis[mask | sum(1 << b for _, b in J)]
            kind = L.dim_z, L.exponents
            if kind not in a:
                a[kind] = _a_parts(L.dim_z, L.exponents[L.dim_z:], g)
            numf, den = a[kind]
            den = den.copy()
            walls = tuple((p, L.sums[b] - top.sums[b]) for p, b in J)
            for _, r in walls:
                den[r] = den.get(r, 0) + 1
            out.append(((-1) ** len(J), (g - 1) * (L.dim_u - top.dim_u), numf, den, walls))
        cached = datum._cache[key] = tuple(out)
    return cached


def closed_terms(datum: RootDatum, residues, g, coef=1, shift=0, I=()):
    """Factored terms of coef * w^shift times the closed formula of the
    Levi L^I (I = () for the group) for the given <varpi_a(d)> data, one per
    parabolic subset of L^I, from the datum's templates.  The data are the
    integers (D, nums) of ``RootDatum.fund_residues``, <varpi_a(d)> =
    n_a / D, so each exponent is the integer quotient of
    (g - 1) dim U * D + sum r n_a by D."""
    D, nums = residues
    return [FTerm(sign * coef,
                  shift + _exponent(base * D + sum(r * nums[a] for a, r in walls), D),
                  numf, den)
            for sign, base, numf, den, walls in _templates(datum, g, I)]


def closed_ratfun(datum: RootDatum, residues, g) -> RatFun2:
    return assemble_exact(closed_terms(datum, residues, g))


def closed_series_for(datum: RootDatum, residues, g, order) -> TruncSeries2:
    return assemble_series(closed_terms(datum, residues, g), order)


def _datum_residues(spec, d):
    """The root datum of spec and its <varpi_a(d)> data (D, nums)."""
    datum = build_root_system(spec)
    return datum, datum.fund_residues(datum.lift_degree(d))


def hp_semistable_closed(spec: GroupSpec, d, g) -> RatFun2:
    """Closed formula for the series of the semistable stack of degree d."""
    _check_genus(g)
    return closed_ratfun(*_datum_residues(spec, d), g)


# ---------------------------------------------------------------------------
# classical types as composition sums
# ---------------------------------------------------------------------------


def _compositions(r):
    """All compositions of r, lexicographically."""
    if r == 0:
        return [()]
    out = []
    for first in range(1, r + 1):
        for rest in _compositions(r - first):
            out.append((first,) + rest)
    return sorted(out)


def _e2(comp):
    total, run = 0, 0
    for c in comp:
        total += run * c
        run += c
    return total


def _gl_exps(comp):
    """Non-abelian exponents of GL_{r_1} x ... x GL_{r_l}: 2, ..., r_i each."""
    return tuple(k for s in comp for k in range(2, s + 1))


def _bc_exps(m):
    """Non-abelian exponents of SO_{2m+1} and of Sp_m: 2, 4, ..., 2m."""
    return tuple(range(2, 2 * m + 1, 2))


def _d_exps(m):
    """Non-abelian exponents of SO_{2m}: 2, 4, ..., 2m-2 and m (Euler class)."""
    return tuple(range(2, 2 * m - 1, 2)) + (m,)


def _chain_walls(comp):
    """Walls between adjacent GL blocks, each with integral pairing: (r, 2),
    the pairing 1 as a numerator over 2."""
    return [(comp[i] + comp[i + 1], 2) for i in range(len(comp) - 1)]


def _gl_terms(r, d, g, abelian_drop=0):
    """Type A composition sum; abelian_drop=1 gives the SL_r normalization
    and, with d kept, the fixed-determinant one (one less abelian factor per
    term).  The walls carry <-p d / r> as numerators over r."""
    parts, terms = {}, []
    for comp in _compositions(r):
        l = len(comp)
        walls = []
        p = 0
        for i in range(l - 1):
            p += comp[i]
            walls.append((comp[i] + comp[i + 1], -p * d % r or r))
        terms.append(_levi_term(parts, (-1) ** (l - 1), l - abelian_drop, _gl_exps(comp),
                                _e2(comp), walls, g, r))
    return terms


def _bc_terms(r, n, g, c):
    """Composition sum for SO_{2r+1} (c=0, n = 2 <d/2>) and Sp_r (c=1, n
    unused).

    Both types have the same Levis and exponents; they differ only in the
    pairings of the last simple root, which are shifted by c.  The walls
    carry their <varpi> as numerators over 2.
    """
    u_full = r * (r + 1) // 2
    parts, terms = {}, []
    for comp in _compositions(r):
        l, m = len(comp), comp[-1]
        e2 = _e2(comp)
        # Levi GL_{r_1} x ... x GL_{r_l} (last simple root crossed)
        last = (m + 1, 2) if c else (2 * m, n)
        terms.append(_levi_term(parts, (-1) ** l, l, _gl_exps(comp), e2 + u_full,
                                _chain_walls(comp) + [last], g, 2))
        # Levi GL_{r_1} x ... x GL_{r_{l-1}} x SO_{2m+1} (or Sp_m)
        walls = _chain_walls(comp[:-1])
        if l > 1:
            walls.append((comp[-2] + 2 * m + c, 2))
        terms.append(_levi_term(parts, (-1) ** (l - 1), l - 1,
                                _gl_exps(comp[:-1]) + _bc_exps(m),
                                e2 + u_full - m * (m + 1) // 2, walls, g, 2))
    return terms


def _so_even_terms(r, d, g):
    """Type D composition sum for SO_{2r} (r >= 2), degree d in Z/2.

    Compositions with last part 1 index Levis GL_{r_1} x ... x GL_{r_{l-1}}
    x GL_1 (both fork roots crossed); compositions with last part >= 2 index
    both the two twisted all-GL Levis (hence the factor 2) and the Levis with
    an SO_{2 r_l} tail.  The walls carry their <varpi> as numerators over 2.
    """
    n = d % 2 or 2
    u_full = r * (r - 1) // 2
    parts, terms = {}, []
    for comp in _compositions(r):
        l, m = len(comp), comp[-1]
        e2 = _e2(comp)
        if m == 1 and l >= 2:
            walls = _chain_walls(comp[:-1]) + [(comp[-2] + 1, n)] * 2
            terms.append(_levi_term(parts, (-1) ** l, l, _gl_exps(comp), e2 + u_full,
                                    walls, g, 2))
        if m >= 2:
            # two conjugate all-GL Levis contribute identically
            walls = _chain_walls(comp) + [(2 * (m - 1), n)]
            terms.append(_levi_term(parts, 2 * (-1) ** l, l, _gl_exps(comp),
                                    e2 + u_full, walls, g, 2))
            # Levi GL_{r_1} x ... x GL_{r_{l-1}} x SO_{2m}
            walls = _chain_walls(comp[:-1])
            if l > 1:
                walls.append((comp[-2] + 2 * m - 1, 2))
            terms.append(_levi_term(parts, (-1) ** (l - 1), l - 1,
                                    _gl_exps(comp[:-1]) + _d_exps(m),
                                    e2 + u_full - m * (m - 1) // 2, walls, g, 2))
    return terms


def _classical_terms(family, rank, d, g):
    _check_genus(g)
    spec = GroupSpec(((family, rank),))
    (d,) = validate_degree(d, spec)
    if family == "GL":
        return _gl_terms(rank, d, g)
    if family == "SL":
        return _gl_terms(rank, 0, g, abelian_drop=1)
    if family == "SOodd":
        return _bc_terms(rank, d % 2 or 2, g, 0)
    if family == "Sp":
        return _bc_terms(rank, None, g, 1)
    if family == "SOeven":
        return _so_even_terms(rank, d, g)
    raise ValueError("unknown family %r" % (family,))


def hp_semistable_classical(family, rank, d, g) -> RatFun2:
    """The type-specific composition sum for a single classical factor."""
    return assemble_exact(_classical_terms(family, rank, d, g))


def classical_difference_terms(family, rank, d: int, g):
    """The composition sum's factored terms followed by the closed formula's
    with coef negated: one list, whose exact sum (or truncated sum, to any
    order) is zero exactly when the two sides agree."""
    terms = _classical_terms(family, rank, d, g)
    datum, residues = _datum_residues(GroupSpec(((family, rank),)), (d,))
    return terms + closed_terms(datum, residues, g, -1)


# ---------------------------------------------------------------------------
# moduli spaces (good case) and specializations
# ---------------------------------------------------------------------------


def hp_moduli_space(spec: GroupSpec, d, g) -> RatFun2:
    """(1-uv)^m times the semistable-stack series, m = dim Z_G, good case only.

    Each closed-formula term has (1-uv)^{dim Z(L^I)}, dim Z(L^I) >= m, in its
    denominator, so the factor is dropped from every term's denominator
    before the sum: the cofactors over the common denominator, and with them
    the numerator, are those of the stack series."""
    _check_genus(g)
    d = validate_degree(d, spec)
    if not good_case(spec, d):
        raise NotGoodCase("degree %s admits strictly semistable bundles" % (d,))
    datum, residues = _datum_residues(spec, d)
    z = datum.dim_z
    return assemble_exact([
        t._replace(den={k: m - z if k == 1 else m for k, m in t.den.items()
                        if k != 1 or m > z})
        for t in closed_terms(datum, residues, g)])


def _jacobian_lift(t, g, coef=1):
    """coef times the term t times (1 + u)^g (1 + v)^g / (1 - uv), the
    series of the Jacobian: a term of a(L) with dim Z(L) = m becomes the
    term of a(L) with one abelian factor more, in the canonical layout of
    ``_a_parts``.  There the pair (1 + u)^{g m} (1 + v)^{g m} leads the
    numerator factors (a non-abelian pair has exponent d >= 2) and becomes
    the pair of exponent g (m + 1), prepended when m = 0; the denominator
    gains one 1 - uv."""
    nf = t.numfactors
    e = g
    if nf and nf[0][:2] == (1, 0):
        e += nf[0][2]
        nf = nf[2:]
    den = t.den.copy()
    den[1] = den.get(1, 0) + 1
    return FTerm(coef * t.coef, t.shift, ((1, 0, e), (0, 1, e)) + nf, den)


def hp_moduli_fixed_det(r, d, g) -> BivarPoly:
    """The polynomial of the moduli space of semistable bundles with fixed
    determinant, rank r, degree d, gcd(r, d) = 1, certified twice.

    By Harder-Narasimhan, (1 + u)^g (1 + v)^g / (1 - uv) times the
    fixed-determinant series F (the type A composition sum with one abelian
    factor less per term) is the GL_r semistable stack series S (its closed
    formula).  The first certificate is one difference sum: the closed
    formula's terms minus F's own terms, each lifted by the Jacobian factor
    (``_jacobian_lift``).  The sum is linear, so its exact sum
    (``assemble_exact``) is zero exactly when the identity holds, else
    FactorizationFailed.  A lifted term of F is the term of the GL_r
    composition sum, with the same canonical numerator as the closed
    formula's term of its Levi type, so equal terms of the two sides cancel
    in integers in their group's cofactor and no band is formed at all, at
    any rank.  The second: F, summed on its own band, divides exactly by
    its denominator (``ratfun._exact_quotient``, the one decode) into a
    polynomial of total degree at most twice the dimension
    (g - 1)(r^2 - 1), else NotPolynomialWithinBound."""
    _check_genus(g)
    if gcd(r, d) != 1:
        raise NotCoprime("need gcd(r, d) = 1, got (%d, %d)" % (r, d))
    terms = _gl_terms(r, d, g, abelian_drop=1)
    diff = closed_terms(*_datum_residues(GroupSpec((("GL", r),)), (d,)), g) + [
        _jacobian_lift(t, g, -1) for t in terms]
    if not assemble_exact(diff).num.is_zero():
        raise FactorizationFailed(
            "the Jacobian times the fixed-determinant series is not the GL%d stack series" % r)
    common, lo, W, n, items, bound = _over_common_den(terms)
    rows = n // W
    B = _width(bound * _series_growth(common, rows))
    top = 2 * (g - 1) * (r * r - 1)
    try:
        return _exact_quotient(_band_sum(items, n, W, B), rows, lo, W, common, B, top)
    except NotDivisible:
        raise NotPolynomialWithinBound(
            "not a polynomial of total degree <= %d" % top) from None


def specialize(x, kind):
    """Specializations: poincare (u=v=t), chi_t (u=-1), euler (u=v=-1),
    signature (u=-1, v=1).

    Everything is substituted directly: no package denominator f(uv) has a
    factor 1 + u or 1 + v to cancel first.  1 + u divides f(uv) exactly when
    f(uv) vanishes at u = -1, that is when f(-v) = 0 identically, which
    forces f = 0 (and 1 + v alike).  So a pole at the point is a true pole
    and raises ZeroDenominatorAfterSubstitution.
    """
    if kind == "poincare":
        return x.diagonal()
    if kind not in ("chi_t", "euler", "signature"):
        raise ValueError("unknown specialization %r" % (kind,))
    if kind == "chi_t":
        return x.subs_u(-1)
    return x.subs_uv(-1, -1 if kind == "euler" else 1)


def stack_poincare_series(spec: GroupSpec, g) -> RatFun1:
    """One-variable Poincare series of the full stack, as a product over the
    exponents: ((1+t)^{2g}/(1-t^2))^m prod (1+t^{2d-1})^{2g} /
    ((1-t^{2d-2})(1-t^{2d}))."""
    datum = build_root_system(spec)
    exps = datum.exponent_list()
    m = datum.dim_z
    num = UniPoly({0: 1, 1: 1}) ** (2 * g * m)
    den = UniPoly({0: 1, 2: -1}) ** m
    for d in exps[m:]:
        num = num * UniPoly({0: 1, 2 * d - 1: 1}) ** (2 * g)
        den = den * UniPoly({0: 1, 2 * d - 2: -1}) * UniPoly({0: 1, 2 * d: -1})
    return RatFun1(num, den)


def chi_t_fixed_det_formula(r, g) -> UniPoly:
    """prod_{k=2}^r (1 - (-t)^{k-1})^{g-1} (1 - (-t)^k)^{g-1}."""
    out = UniPoly.constant(1)
    for k in range(2, r + 1):
        for e in (k - 1, k):
            out = out * UniPoly({0: 1, e: -((-1) ** e)}) ** (g - 1)
    return out


__all__ = [
    "FTerm", "FactorizationFailed", "NotCoprime", "NotGoodCase",
    "a_series", "assemble_exact", "assemble_series",
    "chi_t_fixed_det_formula", "classical_difference_terms", "closed_ratfun",
    "closed_series_for", "closed_terms", "hp_classifying", "hp_moduli_fixed_det",
    "hp_moduli_space", "hp_semistable_classical", "hp_semistable_closed",
    "specialize", "stack_poincare_series", "to_polynomial",
]
