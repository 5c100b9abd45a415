"""Root data for the classical groups and their Levi subgroups.

The five supported families are GL_r, SL_r, SO_{2r+1}, Sp_r and SO_{2r}
(types A, A, B, C, D).  One table, ``_FAMILY``, holds each family's
printed name, least rank, pi_1 (which sets the valid degrees and their
representatives) and number of positive roots: parsing, printing, the
degree checks and the builder's sanity checks all read it, and ``_block``
alone adds the simple roots and coroots.  A group is described by a
``GroupSpec`` (an ordered product of such factors); ``build_root_system``
turns it into the group's own ``RootDatum``, explicit integer data on the
coweight lattice pi_1(H) = Z^n together with the per-factor lifts of
degree 1 (``RootDatum.lift_degree``):

* simple roots and positive roots are stored as linear forms (integer row
  vectors paired against lattice points),
* simple coroots are stored as lattice vectors.

A family block gives only the simple roots and coroots (and the lift of
degree 1).  The positive roots are their reflection closure: raising a root
beta by s_i(beta) = beta - <beta, alpha_i^vee> alpha_i whenever
<beta, alpha_i^vee> < 0 reaches every positive root from the simple ones,
and each root is found together with its simple-root coefficients, which
the height / dual-partition computation of the cohomology exponents reads.

The same ``RootDatum`` structure describes every Levi subgroup (restrict the
simple roots, keep the lattice), so all formula-level computations -- center
dimensions, exponents d_k, unipotent dimensions, the pairings 2 rho^I(alpha^v)
and fundamental-weight evaluations mod Z, as integer numerators over one
determinant -- are done uniformly here.

A root datum keeps one cached table of its positive roots: per root, its
support as a bitmask of the simple roots, its height and its pairings with
every simple coroot.  L^I is the product of the connected components of
Delta - I in the Dynkin graph, so one record per component, from one pass
over that table (its exponents, its number of positive roots and their
pairings with every simple coroot, summed), gives every Levi record: each
parabolic subset I has one cached ``LeviDatum``, ``RootDatum.levi(I)``,
summed from the records of its components (``RootDatum.levis``), and a
path of r nodes has r (r + 1) / 2 components against 2^r subsets.  The
closed formula of G and of each Levi L^I, the Levi
projections and the HN enumeration read these records, keyed by I, so no
Levi root datum is built for them.  A record is its five fields and holds
no link to its datum: what else is derived from it is a ``RootDatum``
call that takes I.  ``sub_datum`` builds a Levi's own root datum, fresh
and unlinked, for a caller that wants one.

Linear algebra is fraction-free over Z: one Bareiss elimination gives the
determinant and the adjugate of an integer matrix, so a solve is an integer
matrix-vector product over one denominator.  The Cartan matrix's rows
are cached once per datum, and the determinant and adjugate of its Levi
block per subset I (I = () is the whole matrix); the fundamental weights of each Levi and the projection to
its center, integer vectors over that determinant, read them;
invert_matrix is a rational front end that clears each row's
denominators first.

Conventions: a subset I of simple-root indices labels the standard parabolic
P^I whose Levi L^I has simple roots Delta \\ I; I = empty set gives L = G.
The symbol <x> always denotes the representative of x mod Z in (0, 1].
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul


class UnsupportedRank(ValueError):
    """Rank outside the allowed range for the requested family."""


class SingularSystem(ArithmeticError):
    """A linear system that must be invertible turned out singular."""


class NonIntegralExponent(ArithmeticError):
    """An exponent of (uv) that must be an integer is not."""


def frac_rep(x):
    """The unique representative of x mod Z lying in (0, 1], as a Fraction;
    <0> = 1."""
    from fractions import Fraction

    x = Fraction(x)
    r = x - (x.numerator // x.denominator)  # in [0, 1)
    return r if r else Fraction(1)


# ---------------------------------------------------------------------------
# fraction-free linear algebra over Z, with a rational front end
# ---------------------------------------------------------------------------


def _dot(form, vec):
    return sum(map(mul, form, vec))


def _adjugate(rows):
    """(det, adj) of a square integer matrix A, with A * adj = det * I.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [A | I]: every
    division is exact, so all intermediate entries stay integers.  A singular
    A gives (0, None).
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    # the rows now read [prev * I | E] with E * A = prev * I, prev = sign * det
    return sign * prev, [[sign * x for x in r[n:]] for r in m]


def _scaled_rows(rows):
    """(scales, integer rows): each rational row times the lcm of its
    denominators."""
    from fractions import Fraction

    scales, out = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        scales.append(s)
        out.append([int(x * s) for x in row])
    return scales, out


def invert_matrix(matrix):
    """Inverse of a square rational matrix, as Fractions.

    Row i scaled by s_i gives an integer S A, and A^{-1} = adj(S A) S / det.
    """
    from fractions import Fraction

    scales, rows = _scaled_rows(matrix)
    det, adj = _adjugate(rows)
    if not det:
        raise SingularSystem("singular %dx%d system" % (len(rows), len(rows)))
    return [[Fraction(x * s, det) for x, s in zip(row, scales)] for row in adj]


def smith_invariants(rows):
    """Elementary divisors of the integer matrix given by its rows.

    Returns the list of nonzero diagonal invariants d_1 | d_2 | ... ; the
    cokernel of the column lattice is Z^(n - len(divs)) + sum Z/d_i.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    rows_n, cols_n = len(m), len(m[0])
    divs = []
    top = 0
    while top < rows_n and top < cols_n:
        # find smallest nonzero pivot in the remaining block
        best = None
        for i in range(top, rows_n):
            for j in range(top, cols_n):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        reduced = False
        for i in range(top + 1, rows_n):
            q = m[i][top] // m[top][top]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            if m[i][top]:
                reduced = True
        for j in range(top + 1, cols_n):
            q = m[top][j] // m[top][top]
            if q:
                for row in m:
                    row[j] -= q * row[top]
            if m[top][j]:
                reduced = True
        if reduced:
            continue
        divs.append(abs(m[top][top]))
        top += 1
    # enforce divisibility chain
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            a, b = divs[i], divs[j]
            g = gcd(a, b)
            divs[i], divs[j] = g, a * b // g
    return sorted(divs)


# ---------------------------------------------------------------------------
# group specifications
# ---------------------------------------------------------------------------


#: one row per family, every fact of it but its simple roots and coroots
#: (``_block``): a factor of rank r prints as prefix followed by the number
#: scale * r + offset, the ranks start at least, pi1 is pi_1 as (free rank,
#: torsion invariants) and pos_count(r) is |Phi+|
_Family = namedtuple("_Family", "prefix scale offset least pi1 pos_count")
_FAMILY = {
    "GL": _Family("GL", 1, 0, 1, (1, ()), lambda r: r * (r - 1) // 2),
    "SL": _Family("SL", 1, 0, 2, (0, ()), lambda r: r * (r - 1) // 2),
    "SOodd": _Family("SO", 2, 1, 1, (0, (2,)), lambda r: r * r),
    "Sp": _Family("Sp", 1, 0, 1, (0, ()), lambda r: r * r),
    "SOeven": _Family("SO", 2, 0, 2, (0, (2,)), lambda r: r * (r - 1)),
}


def classical_factors(max_rank):
    """Every (family, rank) from the family's least rank to max_rank, in
    the order of the family table."""
    return [(fam, r) for fam, row in _FAMILY.items()
            for r in range(row.least, max_rank + 1)]


class GroupSpec(namedtuple("GroupSpec", "factors")):
    """An ordered product of classical factors, e.g. GL2 x SO5: factors is
    a tuple of (family, rank), checked on construction."""

    __slots__ = ()

    def __new__(cls, factors):
        if not factors:
            raise ValueError("a group needs at least one factor")
        for fam, r in factors:
            row = _FAMILY.get(fam)
            if row is None:
                raise ValueError("unknown family %r" % (fam,))
            if r < row.least:
                raise UnsupportedRank("%s is not supported: its family starts at %s" % (
                    _factor_name(fam, r), _factor_name(fam, row.least)))
        return tuple.__new__(cls, (factors,))

    def __str__(self):
        return "x".join(_factor_name(f, r) for f, r in self.factors)


def _factor_name(fam, r):
    row = _FAMILY[fam]
    return "%s%d" % (row.prefix, row.scale * r + row.offset)


_FACTOR_RE = re.compile(
    r"^(%s)([0-9]+)$" % "|".join(dict.fromkeys(f.prefix for f in _FAMILY.values())))

_DECIMAL_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(text):
    """The integer an ASCII decimal numeral writes, with an optional sign and
    surrounding whitespace; ValueError for the rest of what ``int`` takes,
    such as an underscore (1_0) or another script's digits."""
    text = str(text).strip()
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError("expected a decimal integer, got %r" % (text,))
    return int(text)


def parse_group(text) -> GroupSpec:
    """Parse "GL3", "SO8", "Sp2", or products like "GL2xGL3xSO5": a factor
    belongs to the family whose prefix it carries and whose scale * r +
    offset its number has, for some r (SO5 is SOodd of rank 2)."""
    factors = []
    for part in text.strip().split("x"):
        m = _FACTOR_RE.match(part.strip())
        if not m:
            raise ValueError("cannot parse group factor %r" % (part,))
        prefix, num = m.group(1), int(m.group(2))
        # the rows of one prefix share out every number between them
        fam, row = next((fam, row) for fam, row in _FAMILY.items()
                        if row.prefix == prefix and (num - row.offset) % row.scale == 0)
        factors.append((fam, (num - row.offset) // row.scale))
    return GroupSpec(tuple(factors))


def parse_degree(text, spec: GroupSpec):
    """Parse a comma-separated degree, one entry per factor."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != len(spec.factors):
        raise ValueError("degree needs %d components, got %d"
                         % (len(spec.factors), len(parts)))
    d = []
    for p in parts:
        try:
            d.append(parse_int(p))
        except ValueError:
            raise ValueError("degree entries must be integers, got %r" % (p,)) from None
    return validate_degree(tuple(d), spec)


def validate_degree(d, spec: GroupSpec):
    """d as a tuple of ints, one per factor, each in the factor's pi_1: any
    integer when pi_1 = Z, and 0 <= d < n when pi_1 = Z/n (n = 1 when
    pi_1 is trivial)."""
    if isinstance(d, int):
        d = (d,)
    d = tuple(int(x) for x in d)
    if len(d) != len(spec.factors):
        raise ValueError("degree needs %d components" % len(spec.factors))
    for (fam, r), di in zip(spec.factors, d):
        free, torsion = _FAMILY[fam].pi1
        n = prod(torsion)
        if free or 0 <= di < n:
            continue
        name = _factor_name(fam, r)
        if n == 1:
            raise ValueError("%s has trivial pi_1; degree must be 0" % name)
        raise ValueError("%s degrees live in Z/%d; use %s"
                         % (name, n, " or ".join(map(str, range(n)))))
    return d


def degrees_of(spec: GroupSpec):
    """All degree tuples, one representative per class: all of pi_1 = Z/n,
    and 0..r-1 when pi_1 = Z, since a line bundle moves the degree of a
    rank r factor by r."""
    out = [()]
    for fam, r in spec.factors:
        free, torsion = _FAMILY[fam].pi1
        out = [t + (x,) for t in out for x in range(r if free else prod(torsion))]
    return out


# ---------------------------------------------------------------------------
# the generic root datum
# ---------------------------------------------------------------------------


def _exponents(heights, dim_z):
    """Degrees d_1 <= ... <= d_n of the generators of H*(B-): dim_z ones,
    then one plus each part of the dual partition of the positive-root
    height multiset (the heights n_h of a root system form a partition whose
    dual lists the Weyl-group exponents)."""
    exps = []
    if heights:
        maxh = max(heights)
        count = [0] * (maxh + 1)
        for h in heights:
            count[h] += 1
        seq = count[1:]
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise AssertionError("height multiset is not a partition")
        for j in range(1, seq[0] + 1):
            exps.append(sum(1 for c in seq if c >= j))
    return tuple([1] * dim_z + sorted(e + 1 for e in exps))


class LeviDatum(namedtuple("LeviDatum", "I dim_z exponents dim_u sums")):
    """The Levi L^I of the standard parabolic P^I of a root datum, summed
    from the records of the connected components of Delta - I
    (``RootDatum._component``): dim Z(L^I), the exponents of L^I, dim U^I
    and sums, the nilradical roots' pairings summed against every simple
    coroot, zero off I, so sums[alpha] = 2 rho^I(alpha^vee) for alpha in I
    (``RootDatum.two_rho_pairings``)."""

    __slots__ = ()


class RootDatum:
    """Lattice Z^n with simple roots (forms), simple coroots (vectors) and
    positive roots; sufficient data for every formula in the package.

    A group's own datum (from ``build_root_system``) also keeps its
    ``spec`` and the lift of degree 1 per factor, read by ``lift_degree``;
    on a Levi sub-datum both are None."""

    __slots__ = ("n", "simple_roots", "simple_coroots", "pos_roots",
                 "pos_coeffs", "spec", "_lifts", "_cache")

    def __init__(self, n, simple_roots, simple_coroots, pos_roots, pos_coeffs,
                 spec=None, lifts=None):
        self.n = n
        self.simple_roots = tuple(tuple(f) for f in simple_roots)
        self.simple_coroots = tuple(tuple(c) for c in simple_coroots)
        self.pos_roots = tuple(tuple(f) for f in pos_roots)
        self.pos_coeffs = tuple(tuple(c) for c in pos_coeffs)
        self.spec, self._lifts = spec, lifts
        self._cache = {}

    # -- basics --------------------------------------------------------------

    @property
    def num_simple(self):
        return len(self.simple_roots)

    @property
    def dim_z(self):
        """Dimension of the center: lattice rank minus semisimple rank."""
        return self.n - len(self.simple_roots)

    def cartan_matrix(self):
        """A[i][j] = <alpha_i, alpha_j^vee>, as a new list of lists."""
        return [list(row) for row in self._cartan_rows()]

    def _cartan_rows(self):
        """The rows of the Cartan matrix as tuples, cached: what the Levi
        blocks and the HN set-up read."""
        cached = self._cache.get("cartan_rows")
        if cached is None:
            cached = self._cache["cartan_rows"] = tuple(
                tuple(_dot(a, cv) for cv in self.simple_coroots)
                for a in self.simple_roots)
        return cached

    def _roots(self):
        """The table of positive roots, cached: one row (support, height,
        pairings) per root, in the order of pos_roots, with the support a
        bitmask of the simple roots of nonzero coefficient and the pairings
        <beta, alpha_a^vee> with every simple coroot."""
        cached = self._cache.get("roots")
        if cached is None:
            cached = self._cache["roots"] = tuple(
                (sum(1 << i for i, c in enumerate(cf) if c), sum(cf),
                 tuple(_dot(form, cv) for cv in self.simple_coroots))
                for form, cf in zip(self.pos_roots, self.pos_coeffs))
        return cached

    def _mask(self, indices):
        """Bitmask of a set of simple-root indices; ValueError unless they
        are distinct and lie in range(num_simple)."""
        mask = 0
        for i in indices:
            if not 0 <= i < self.num_simple or mask >> i & 1:
                raise ValueError("simple-root indices must be distinct and in "
                                 "range(%d), got %r" % (self.num_simple, indices))
            mask |= 1 << i
        return mask

    # -- Levi restriction ------------------------------------------------------

    def sub_datum(self, levi_indices):
        """A fresh root datum of the Levi with the given simple-root indices:
        the positive roots whose support lies among them, scanned off the
        table, on the same lattice."""
        levi_indices = tuple(sorted(levi_indices))
        mask = self._mask(levi_indices)
        roots, coeffs = [], []
        for form, cf, (support, _, _) in zip(self.pos_roots, self.pos_coeffs, self._roots()):
            if not support & ~mask:
                roots.append(form)
                coeffs.append(tuple(cf[i] for i in levi_indices))
        return RootDatum(
            self.n,
            [self.simple_roots[i] for i in levi_indices],
            [self.simple_coroots[i] for i in levi_indices],
            roots, coeffs)

    def complement(self, parabolic_indices):
        keep = set(parabolic_indices)
        return tuple(i for i in range(self.num_simple) if i not in keep)

    # -- exponents -------------------------------------------------------------

    def exponent_list(self):
        """Degrees d_1 <= ... <= d_n of the generators of H*(B-), with
        dim Z leading ones (see ``_exponents``), cached."""
        cached = self._cache.get("exponents")
        if cached is None:
            cached = self._cache["exponents"] = _exponents(
                [sum(cf) for cf in self.pos_coeffs], self.dim_z)
        return cached

    # -- parabolic subsets --------------------------------------------------------

    def _component(self, mask):
        """(non-abelian exponents, |Phi+_C|, pairings) of the connected
        component C of the Dynkin graph given by its bitmask, cached: one
        pass over the table of positive roots, keeping the roots whose
        support lies in C, the positive roots of C.  The pairings are their
        sums against every simple coroot."""
        cached = self._cache.get(("component", mask))
        if cached is None:
            heights, pairings = [], []
            for support, height, pairs in self._roots():
                if not support & ~mask:
                    heights.append(height)
                    pairings.append(pairs)
            cached = self._cache[("component", mask)] = (
                _exponents(heights, 0), len(heights), tuple(map(sum, zip(*pairings))))
        return cached

    def levi(self, parabolic_indices):
        """The LeviDatum of the parabolic subset I: ``levis()[mask(I)]``."""
        return self.levis()[self._mask(parabolic_indices)]

    def levis(self):
        """The LeviDatum of every parabolic subset, in bitmask order of I
        (I = () first), cached.

        L^I is the product of the connected components C of Delta - I in
        the Dynkin graph (A_ij != 0, i != j), so its record is a sum over
        their records (``_component``): dim Z ones and then the sorted
        union of the components' exponents, dim U = |Phi+| - sum |Phi+_C|,
        and sums[b] = 2 - sum_C pairings_C[b] for b in I (the positive
        roots pair to 2 rho(alpha_b^vee) = 2), zero for b not in I.  The
        running sums are kept per simple-root set K = Delta - I: K's is
        that of its lowest node's component C plus that of K - C."""
        cached = self._cache.get("levis")
        if cached is None:
            k, npos = self.num_simple, len(self.pos_roots)
            cartan = self._cartan_rows()
            nbrs = [sum(1 << j for j, x in enumerate(row) if x and j != i)
                    for i, row in enumerate(cartan)]
            parts = [((), 0, (0,) * k)]  # per K: exponents, |Phi+_L|, pairings
            for keep in range(1, 1 << k):
                comp = grow = keep & -keep
                while grow:
                    reach = 0
                    while grow:
                        low = grow & -grow
                        reach |= nbrs[low.bit_length() - 1]
                        grow ^= low
                    grow = reach & keep & ~comp
                    comp |= grow
                exps, count, pairs = self._component(comp)
                rexps, rcount, rpairs = parts[keep & ~comp]
                parts.append((tuple(sorted(exps + rexps)), count + rcount,
                              tuple(map(add, pairs, rpairs))))
            full, out = (1 << k) - 1, []
            for mask in range(1 << k):
                I = tuple(i for i in range(k) if mask >> i & 1)
                exps, count, pairs = parts[full & ~mask]
                sums = tuple(2 - p if mask >> b & 1 else 0 for b, p in enumerate(pairs))
                if any(sums[a] <= 0 for a in I):
                    raise AssertionError("2 rho^I(alpha^vee) must be positive")
                dim_z = self.dim_z + len(I)
                out.append(LeviDatum(I, dim_z, (1,) * dim_z + exps, npos - count, sums))
            cached = self._cache["levis"] = tuple(out)
        return cached

    def two_rho_pairings(self, parabolic_indices):
        """Map alpha in I -> 2 rho^I(alpha^vee) for the parabolic subset I.

        Two candidate conventions exist for rho^I: half the sum of the
        nilradical roots (positive roots whose support meets I), and half the
        sum of the positive roots beta with <beta, alpha^vee> > 0 for some
        alpha in I.  They coincide through rank 2 and in many small cases but
        differ in general (first cases: B_3 with I the middle wall, values
        4 vs 5; A_4 with walls {1, 3}, values 3 vs 4).  All series identities
        in this package -- agreement of the closed formula with the
        stratification recursion and with the classical-type composition
        sums -- hold for the nilradical convention and fail for the other,
        so the nilradical value is what this method returns (read from
        levi(I)).
        """
        levi = self.levi(parabolic_indices)
        return {a: levi.sums[a] for a in levi.I}

    # -- fundamental weights and projections -------------------------------------

    def _cartan_block(self, parabolic_indices=()):
        """(keep, det, adj) of the Cartan matrix restricted to the simple
        roots keep = Delta - I of the Levi L^I, cached per I; I = () gives
        the whole Cartan matrix."""
        I = tuple(sorted(parabolic_indices))
        cached = self._cache.get(("cartan", I))
        if cached is None:
            self._mask(I)
            keep = self.complement(I)
            cartan = self._cartan_rows()
            cached = self._cache[("cartan", I)] = (
                keep, *_adjugate([[cartan[i][j] for j in keep] for i in keep]))
        return cached

    def _fund_numerators(self, X, parabolic_indices=()):
        """(keep, det, (det * varpi^{L^I}_beta(X))_beta), all integers, for
        the Levi L^I and its simple roots beta in keep = Delta - I: writing
        X = X_z + sum_b c_b beta_b^vee, the Levi Cartan system
        A c = (beta(X))_beta gives det A * c = adj(A) (beta(X))_beta."""
        keep, det, adj = self._cartan_block(parabolic_indices)
        rhs = [_dot(self.simple_roots[b], X) for b in keep]
        return keep, det, [_dot(row, rhs) for row in adj]

    def fund_weight_values(self, X):
        """(varpi_alpha(X))_alpha as Fractions, for a lattice point X.

        varpi_alpha vanishes on the center and pairs to delta with the simple
        coroots, so the values are the coroot-basis coordinates c of X after
        removing its central component (``_fund_numerators``).
        """
        from fractions import Fraction

        _, det, xs = self._fund_numerators(X)
        return tuple(Fraction(x, det) for x in xs)

    def lift_degree(self, d):
        """Canonical lift of d in pi_1 G to the coweight lattice.

        GL uses d * e_1 of its block, SO families d * e_r, SL and Sp lift to
        zero.  Any two lifts differ by the coroot lattice, and every formula
        consuming the lift is invariant under that ambiguity.  Only a
        group's own datum lifts degrees; a Levi sub-datum raises ValueError.
        """
        if self.spec is None:
            raise ValueError("a Levi sub-datum has no degree lifts")
        d = validate_degree(d, self.spec)
        return tuple(di * x for di, lift in zip(d, self._lifts) for x in lift)

    def fund_residues(self, X, parabolic_indices=()):
        """(D, nums) with <varpi_alpha(X)> = n_alpha / D, all integers: D =
        det A > 0 and n_alpha in (0, D] the numerator det A * varpi_alpha(X)
        reduced mod D; the only way degrees enter.  Given I, the values
        <varpi^{L^I}_beta(X)> of the Levi L^I at its simple roots beta in
        Delta - I, with D the det of the Levi block, equal to
        ``sub_datum(complement(I)).fund_residues(X)``."""
        _, det, xs = self._fund_numerators(X, parabolic_indices)
        return det, tuple(x % det or det for x in xs)

    def project_to_center(self, parabolic_indices, X):
        """Project X onto the center of the Levi L^I along the Levi coroots.

        Returns the unique mu with X - mu in Q-span{beta^vee : beta not in I}
        and beta(mu) = 0 for those beta: mu = X - sum_b c_b beta_b^vee with
        det A * c from ``_fund_numerators``, A the Levi's Cartan matrix, so
        det A * mu is an integer vector; det A > 0 for finite type.  The
        entries are Fractions.
        """
        from fractions import Fraction

        keep, det, cs = self._fund_numerators(X, parabolic_indices)
        mu = [det * x for x in X]
        for c, b in zip(cs, keep):
            mu = [m - c * v for m, v in zip(mu, self.simple_coroots[b])]
        return tuple(Fraction(m, det) for m in mu)


# ---------------------------------------------------------------------------
# per-family blocks (coordinates as in the classical coweight lattices)
# ---------------------------------------------------------------------------


def _unit(n, i, scale=1):
    v = [0] * n
    v[i] = scale
    return tuple(v)


def _block(fam, r):
    """Return (n, simple_roots, simple_coroots, lift of degree 1)."""
    if fam == "SL":
        # coweight lattice = coroot lattice, written in the coroot basis:
        # the simple roots are the rows of the Cartan matrix
        n = r - 1
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                   for j in range(n)] for i in range(n)]
        return n, cartan, [_unit(n, i) for i in range(n)], (0,) * n
    n = r
    chain = [tuple((j == i) - (j == i + 1) for j in range(n)) for i in range(r - 1)]
    if fam == "GL":
        return n, chain, chain, _unit(n, 0)
    if fam == "SOodd":
        return n, chain + [_unit(n, r - 1)], chain + [_unit(n, r - 1, 2)], _unit(n, r - 1)
    if fam == "Sp":
        return n, chain + [_unit(n, r - 1, 2)], chain + [_unit(n, r - 1)], (0,) * n
    if fam == "SOeven":
        last = chain[-1][:-1] + (1,)  # e_{r-1} + e_r
        return n, chain + [last], chain + [last], _unit(n, r - 1)
    raise ValueError(fam)


def _positive_roots(simple_roots, simple_coroots):
    """(forms, simple-root coefficients) of every positive root.

    A positive root beta other than alpha_i with <beta, alpha_i^vee> < 0
    reflects to the higher positive root s_i(beta) = beta - <beta,
    alpha_i^vee> alpha_i, and every positive root is reached from a simple
    root by such raising steps, so the closure of the simple roots under
    them is the whole positive system.
    """
    k = len(simple_roots)
    roots = {_unit(k, i): tuple(a) for i, a in enumerate(simple_roots)}
    todo = list(roots.items())
    while todo:
        cf, form = todo.pop()
        for i, (a, cv) in enumerate(zip(simple_roots, simple_coroots)):
            p = _dot(form, cv)
            if p < 0:
                up = cf[:i] + (cf[i] - p,) + cf[i + 1:]
                if up not in roots:
                    roots[up] = tuple(f - p * x for f, x in zip(form, a))
                    todo.append((up, roots[up]))
    return tuple(roots.values()), tuple(roots)


@lru_cache(maxsize=None)
def build_root_system(spec: GroupSpec) -> RootDatum:
    """The root datum of a product of factors, with its degree lifts.

    The factors' simple roots and coroots are placed side by side, and the
    positive roots, with their simple-root coefficients, are the reflection
    closure of the concatenated simple roots (``_positive_roots``).  Checks
    that the closure has (dim G - rank)/2 roots and that, per factor,
    pi_1 = pi_1 H / (coroot lattice) computed by Smith reduction matches the
    family table's (``_FAMILY``).
    """
    blocks = [_block(fam, r) for fam, r in spec.factors]
    width = sum(b[0] for b in blocks)
    simples, coroots = [], []
    n = 0
    for (fam, r), (bn, bs, bc, _) in zip(spec.factors, blocks):
        pad = lambda vec: (0,) * n + tuple(vec) + (0,) * (width - n - bn)
        simples.extend(map(pad, bs))
        coroots.extend(map(pad, bc))
        divs = smith_invariants(bc)
        pi1 = (bn - len(divs), tuple(d for d in divs if d > 1))
        if pi1 != _FAMILY[fam].pi1:
            raise AssertionError("pi_1 mismatch for %s%d: %s" % (fam, r, pi1))
        n += bn
    pos, coeffs = _positive_roots(simples, coroots)
    if len(pos) != sum(_FAMILY[fam].pos_count(r) for fam, r in spec.factors):
        raise AssertionError("positive root count wrong for %s" % (spec,))
    return RootDatum(width, simples, coroots, pos, coeffs, spec,
                     tuple(b[3] for b in blocks))


# ---------------------------------------------------------------------------
# GroupSpec-level operations
# ---------------------------------------------------------------------------


def good_case(spec: GroupSpec, d) -> bool:
    """True iff every semistable bundle of degree d is stable.

    A strictly semistable bundle exists iff some proper Levi L (Levi simple
    roots Delta - I, I nonempty) carries a degree with image d and the same
    slope mu_G(d).  Writing X_d - mu_G(d) = sum q_alpha alpha^vee, that
    membership holds for I iff q_alpha is an integer for every alpha in I,
    so shrinking I to a singleton shows: the good case holds iff no single
    q_alpha = varpi_alpha(X_d) is an integer.  With <q_alpha> = n_alpha / D
    and n_alpha in (0, D] (``fund_residues``), q_alpha is an integer
    exactly when n_alpha = D.
    """
    datum = build_root_system(spec)
    D, nums = datum.fund_residues(datum.lift_degree(d))
    return all(n != D for n in nums)
