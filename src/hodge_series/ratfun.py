"""Exact arithmetic for bivariate integer polynomials, rational functions and
truncated formal power series in two variables u, v.

All coefficients are arbitrary-precision Python ints, so every identity
checked with these types is exact.  Fractions appear only after
substituting a non-integral value for a variable and as the quotient of
``RatFun2.subs_uv``, and ``fractions`` is imported only there: a
substitution at integral points stays in ints, and the scalar checks test
for an int or a value with a ``denominator``.  A float is never rounded
into a coefficient or an exponent.  The module holds only what the
package computes with: the containers and their printing, the band and its
running sums, and substitution for the specializations.

* ``BivarPoly`` stores a sparse map ``(deg_u, deg_v) -> coeff`` with no zero
  coefficients: the package's factors, such as ``(1 + u^3 v^2)^g`` or
  ``1 - (uv)^k``, are very sparse.
* ``RatFun2`` is num / prod (1 - (uv)^k)^m, every denominator of the
  package, kept only as the multiset ``wden = {k: m}``; ``den`` expands it
  for printing and substitution.  Multisets map injectively to polynomials
  (1 - x^k is minus the product of the cyclotomic Phi_d over d | k, so Phi_d
  occurs sum_{d | k} m_k times and Moebius inversion recovers m), so equal
  multisets compare numerators alone; others bring both numerators over the
  union.  No gcd is ever computed.
* ``TruncSeries2`` truncates by total degree ``i + j <= order``; this matches
  the homogeneous filtration of Z[[u,v]].

The band lays out a polynomial whose p - q lie in [lo, lo + W) in rows of
W slots, one row per v-degree: u^p v^q sits in slot i = q * W + (p - q) - lo.
The band is carried as one Python int, X = sum c_i * 2^(B * i), each slot a
signed B-bit field, B a multiple of 64 (``_width``).  X is the band's
polynomial evaluated at 2^B, so sums and shifts of X are exact ring
operations: multiplying by u^a v^b is the slot shift b * W + a - b and by
w^k = (uv)^k the shift k * W; neither wraps, so each factor (1 + u^a v^b)
or (1 - w^k) is one C-level shift-add, X +- (X << shift * B)
(``_times_binomial``).  Each column is a polynomial in w, and dividing it
by 1 - w^k as a power series is a running sum over the rows: the band is
split once into one signed int per row, rows[j] += rows[j - k] bottom up
for each factor copy, and the rows are joined again (``_over_den``).
Cutting to n slots is the signed remainder of X modulo 2^(n * B)
(``_cut``).  A band is encoded and decoded once per result, as 64-bit
words through a memoryview: with 2^(B - 1) added to every slot no slot
borrows from the next, and flipping each slot's top bit turns
c + 2^(B - 1) into the two's complement of c (``_pack``, ``_unband``; the
zero band decodes nothing).

Only the cut, the row split and join, and the decode read slots, and all
are exact while every coefficient they read has |c| < 2^(B - 1).  B is
chosen once per band from an a-priori bound on the l1 norm of every part
of the band that a cut, a join or the decode reads: a factor
(1 +- x^s)^e at most multiplies the l1 norm by 2^e, cutting never raises
it, and dividing a band of R rows by prod (1 - w^k)^m as a truncated
series multiplies it by at most the sum of the first R coefficients of the
series 1 / prod (1 - w^k)^m, which are all non-negative
(``_series_growth``), every partial quotient included.

The running sums serve ``RatFun2.expand``, exact division and the
truncated sums of ``formulas``; the shift-adds alone serve the exact sums
of ``formulas``.  Exact division certifies itself: with
D = prod (1 - w^k)^m and K = sum k m, a column of degree < R is a multiple
of D exactly when the top K of its R rows are zero after the running sums,
and the quotient is the rows below them, cut and decoded once
(``_exact_quotient``).  Given a total degree bound, the rows that hold only
degrees above it must be zero as well and are not decoded.
``BivarPoly.divide_exact`` packs a polynomial's terms for it; the
fixed-determinant path of ``formulas`` hands it the band its sum was built
on, so that band is never decoded before the division.  Short polynomials
in w alone (the expanded denominator, the cofactors of ``formulas``) stay
integer lists.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import compress, repeat
from operator import add, and_, lshift, or_, sub


class NotDivisible(ArithmeticError):
    """Exact division failed: not a multiple of the denominator."""


class ZeroDenominatorAfterSubstitution(ZeroDivisionError):
    """A substitution made the denominator vanish identically."""


class NotPolynomialWithinBound(ArithmeticError):
    """to_polynomial could not verify polynomiality within the degree bound."""


def _as_int(c):
    """c as an int: an int, or a rational (a value with a denominator) whose
    denominator is 1.  A float or a non-integral rational raises TypeError,
    so a coefficient or exponent is never rounded."""
    if type(c) is int:
        return c
    if getattr(c, "denominator", None) != 1:
        raise TypeError("%r is not an integer" % (c,))
    return int(c)


def _rational(x):
    """Whether x is a rational scalar: an int, or a value with a
    denominator (a Fraction)."""
    return hasattr(x, "denominator")


class BivarPoly:
    """Sparse polynomial in Z[u, v]; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                c = _as_int(c)
                if c:
                    i, j = _as_int(i), _as_int(j)
                    if i < 0 or j < 0:
                        raise ValueError("negative exponent (%d, %d)" % (i, j))
                    clean[(i, j)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c):
        return BivarPoly({(0, 0): c})

    @staticmethod
    def monomial(i, j, c=1):
        return BivarPoly({(i, j): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max of i + j over the support; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        res = dict(self.terms)
        for k, c in other.terms.items():
            nc = res.get(k, 0) + c
            if nc:
                res[k] = nc
            else:
                res.pop(k, None)
        return _poly(res)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return BivarPoly.constant(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BivarPoly()
            return _poly({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res = {}
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                key = (i + k, j + l)
                nc = res.get(key, 0) + c * d
                if nc:
                    res[key] = nc
                else:
                    del res[key]
        return _poly(res)

    __rmul__ = __mul__

    def mul_trunc(self, other, order):
        """Product discarding all terms of total degree > order."""
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res = {}
        for (i, j), c in a.items():
            rem = order - i - j
            if rem < 0:
                continue
            for (k, l), d in b.items():
                if k + l > rem:
                    continue
                key = (i + k, j + l)
                nc = res.get(key, 0) + c * d
                if nc:
                    res[key] = nc
                else:
                    del res[key]
        return _poly(res)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = BivarPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- division ----------------------------------------------------------

    def divide_exact(self, wden, top=None):
        """Return q with self == q * prod (1 - (uv)^k)^m over wden = {k: m},
        else raise NotDivisible; given top, q must have total degree <= top,
        else NotPolynomialWithinBound: the exact division of self's band
        (``_exact_quotient``)."""
        wden = _wden(wden)
        terms, lo, W, rows = _layout(self.terms)
        B = _width(_l1(terms.values()) * _series_growth(wden, rows))
        return _exact_quotient(_band(terms, lo, W, rows * W, B), rows, lo, W, wden, B, top)

    # -- substitution ------------------------------------------------------

    def subs_u(self, val):
        """Substitute u := val (an int or a Fraction); returns UniPoly in v,
        with int coefficients when val is integral."""
        pu = _powers(val, (i for i, _ in self.terms))
        res = {}
        for (i, j), c in self.terms.items():
            res[j] = res.get(j, 0) + c * pu[i]
        return UniPoly(res)

    def subs_uv(self, uval, vval):
        """Substitute u := uval, v := vval; returns the exact value, an int
        when both values are integral: only a non-integral value makes it a
        Fraction."""
        pu = _powers(uval, (i for i, _ in self.terms))
        pv = _powers(vval, (j for _, j in self.terms))
        return sum(c * pu[i] * pv[j] for (i, j), c in self.terms.items())

    def diagonal(self):
        """Substitute u = v = t; returns UniPoly in t."""
        res = {}
        for (i, j), c in self.terms.items():
            res[i + j] = res.get(i + j, 0) + c
        return UniPoly(res)

    # -- serialization and printing -----------------------------------------

    def json_terms(self):
        """Sorted [i, j, "coeff"] triples (coefficients as decimal strings)."""
        return [[i, j, str(c)] for (i, j), c in sorted(self.terms.items())]

    def _format(self, power, times, scaled):
        """The terms by total degree, then (i, j): power formats an exponent
        above 1, times joins u to v and scaled a coefficient other than +-1
        to its monomial."""
        if not self.terms:
            return "0"
        top = max(map(max, self.terms))
        pw = ["", ""] + [power % e for e in range(2, top + 1)]
        parts = []
        for _, i, j, c in sorted([(i + j, i, j, c) for (i, j), c in self.terms.items()]):
            if i and j:
                mono = "u" + pw[i] + times + "v" + pw[j]
            elif i:
                mono = "u" + pw[i]
            elif j:
                mono = "v" + pw[j]
            else:
                parts.append(str(c))
                continue
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(scaled % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self._format("^%d", "*", "%d*%s")

    def __repr__(self):
        return "BivarPoly(%s)" % (str(self),)

    def latex(self):
        return self._format("^{%d}", "", "%d %s")


def _poly(terms):
    """A BivarPoly on terms as they stand, unchecked: for maps that hold
    only nonzero ints at non-negative exponents by construction, as the
    ring operations and ``_unband`` produce them."""
    out = BivarPoly.__new__(BivarPoly)
    out.terms = terms
    return out


ONE = BivarPoly.constant(1)
U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


# ---------------------------------------------------------------------------
# the band (layout in the module docstring) and denominator multisets
# ---------------------------------------------------------------------------


def _wden(wden):
    """A denominator multiset {k: m} as a Counter without zero
    multiplicities; ValueError unless every k >= 1 and m >= 0 is an int."""
    out = Counter()
    for k, m in dict(wden).items():
        if type(k) is not int or type(m) is not int or k < 1 or m < 0:
            raise ValueError("malformed denominator factor (1 - (uv)^%r)^%r" % (k, m))
        if m:
            out[k] = m
    return out


def _w_degree(wden):
    return sum(k * m for k, m in wden.items())


def _width(bound):
    """The slot width B of a band whose coefficients are bounded by bound:
    the least multiple of 64 with bound < 2^(B - 1)."""
    return bound.bit_length() // 64 * 64 + 64


def _series_growth(wden, rows):
    """The sum of the first rows coefficients of 1 / prod (1 - w^k)^m over
    wden, all of them non-negative, by running sums on that short w-list:
    dividing a band of rows rows by wden as a power series, cut to those
    rows, multiplies its l1 norm by at most this, at every cut on the way."""
    return sum(_running_sums([1] + [0] * (rows - 1), wden))


def _running_sums(rows, wden):
    """The list rows, a power series in w, divided in place by
    prod (1 - w^k)^m over wden and cut to its length: per factor copy,
    rows[j] += rows[j - k] bottom up."""
    for k, m in wden.items():
        for _ in range(m):
            for j in range(k, len(rows)):
                rows[j] += rows[j - k]
    return rows


def _l1(coeffs):
    return sum(map(abs, coeffs))


def _cut(X, n, B):
    """The band X cut to its first n slots: the signed remainder of X
    modulo 2^(n * B), exact while those slots hold |c| < 2^(B - 1)."""
    top = 1 << n * B
    r = X & (top - 1)
    return r - top if r and r.bit_length() == n * B else r


def _times_binomial(X, shift, e, op, cap, B):
    """The band X times (1 + x^shift)^e (op=add) or (1 - x^shift)^e
    (op=sub), x^shift a shift by shift slots: e shift-adds, each cut to cap
    slots once it reaches past them.  With the low cap slots in range, X
    reaches past them exactly when |X| >= 2^(cap * B - 1)."""
    s, top = shift * B, cap * B - 1
    for _ in range(e):
        X = op(X, X << s)
        if X.bit_length() > top:
            X = _cut(X, cap, B)
    return X


def _times_den(s, factors):
    """Multiply s, a list of coefficients of w, in place by prod (1 - w^k)^m
    over the (k, m) pairs of factors: per factor, s grows by k and
    s[y] -= s[y - k] top down (map reads the old s in full)."""
    for k, m in factors:
        for _ in range(m):
            s += repeat(0, k)
            s[k:] = map(sub, s[k:], s)


def _over_den(X, n, wden, W, B):
    """The band X of n = R * W slots divided by prod (1 - w^k)^m over wden
    as a power series along w, cut to its R rows: X is split once into one
    signed int per row, each factor copy is the running sum
    rows[j] += rows[j - k] bottom up (``_running_sums``), and the rows are
    joined again.  A row
    is an exact polynomial evaluated at 2^B whatever its slots hold, so only
    the split and the join read slots; with 2^(B - 1) added to every slot
    no slot borrows from the next, and both go through little-endian
    bytes."""
    size, bias, row_bias = W * B // 8, _bias(n, B), _bias(W, B)
    buf = (X + bias).to_bytes(n * B // 8, "little")
    rows = [int.from_bytes(buf[i:i + size], "little") - row_bias
            for i in range(0, len(buf), size)]
    rows = _running_sums(rows, wden)
    return int.from_bytes(b"".join((r + row_bias).to_bytes(size, "little") for r in rows),
                          "little") - bias


def _exact_quotient(X, rows, lo, W, wden, B, top=None):
    """The quotient of the band X of rows * W slots, laid out on
    [lo, lo + W), by prod (1 - w^k)^m over wden, decoded, else NotDivisible.
    Every column has w-degree < rows, so after the running sums its top
    K = sum k m rows are zero exactly when the column is a multiple of the
    denominator, and the quotient is the rows below them.  Given top, the
    quotient must also have total degree <= top, else
    NotPolynomialWithinBound: row j holds total degrees >= 2 j + lo only,
    so the rows from (top - lo) // 2 + 1 on must be zero too, and only the
    rows below them are decoded.  B must hold the running sums
    (``_series_growth``)."""
    X = _over_den(X, rows * W, wden, W, B)
    cut = max(rows - _w_degree(wden), 0) * W
    q = _cut(X, cut, B)
    if q != X:
        raise NotDivisible("not a multiple of the denominator")
    if top is None:
        return _poly(_unband(q, cut, lo, W, B))
    cut = min(cut, max((top - lo) // 2 + 1, 0) * W)
    p = _poly(_unband(q, cut, lo, W, B)) if _cut(q, cut, B) == q else None
    if p is None or p.total_degree() > top:
        raise NotPolynomialWithinBound("not a polynomial of total degree <= %d" % top)
    return p


def _layout(terms, order=None):
    """(terms, lo, W, rows) of a (p, q) -> c map: the terms of total degree
    <= order (all of them without an order), [lo, lo + W) spanning their
    p - q, and the rows of their band: up to the top v-degree or, given an
    order, the (order - lo) // 2 + 1 rows that total degree reaches."""
    if order is not None:
        terms = {k: c for k, c in terms.items() if k[0] + k[1] <= order}
    lo = min((p - q for p, q in terms), default=0)
    W = max((p - q for p, q in terms), default=0) - lo + 1
    rows = (max((q for _, q in terms), default=-1) + 1 if order is None
            else (order - lo) // 2 + 1)
    return terms, lo, W, rows


def _bias(n, B):
    """The int whose n slots of B bits each hold 2^(B - 1)."""
    return int.from_bytes((bytes(B // 8 - 1) + b"\x80") * n, "little")


def _words(buf, fmt):
    """buf as 64-bit words, fmt "q" signed or "Q" unsigned, word 0 the
    lowest of the int that ``int.from_bytes(buf, sys.byteorder)`` reads."""
    words = memoryview(buf).cast(fmt)
    return words[::-1] if sys.byteorder == "big" else words


def _pack(entries, n, B):
    """The band sum c * 2^(B * i) over the list of (i, c) entries, at
    distinct slots i < n, each |c| < 2^(B - 1).  Each c is written as its
    B-bit two's complement, k = B // 64 words with the top one signed;
    flipping the top bit of every slot turns that into c + 2^(B - 1), and
    taking the bias 2^(B - 1) off every slot leaves the signed sum."""
    k = B // 64
    buf = bytearray(n * B // 8)
    for j in range(k - 1):
        low, s = _words(buf, "Q")[j::k], 64 * j
        for i, c in entries:
            low[i] = c >> s & 0xFFFFFFFFFFFFFFFF
    top, s = _words(buf, "q")[k - 1::k], 64 * (k - 1)
    for i, c in entries:
        top[i] = c >> s
    bias = _bias(n, B)
    return (int.from_bytes(buf, sys.byteorder) ^ bias) - bias


def _band(terms, lo, W, n, B):
    """The band of n slots of width B holding a (p, q) -> c map laid out on
    [lo, lo + W)."""
    return _pack([(q * W + p - q - lo, c) for (p, q), c in terms.items()], n, B)


def _unband(X, n, lo, W, B):
    """(p, q) -> c of the nonzero slots of a band X of n slots, each
    |c| < 2^(B - 1), the inverse of ``_pack``: with the bias added to every
    slot no slot borrows from the next, and flipping each slot's top bit
    leaves c as its B-bit two's complement, read as k = B // 64 words, the
    top one signed.  Row by row, the nonzero slots are picked out with
    their keys at C level.  The zero band decodes nothing."""
    if not X:
        return {}
    bias = _bias(n, B)
    words = _words(((X + bias) ^ bias).to_bytes(n * B // 8, sys.byteorder), "q")
    k = B // 64
    out = {}
    for q in range(-(-n // W)):
        a, b = q * W * k, (q + 1) * W * k
        row = words[a + k - 1:b:k]
        for j in range(k - 2, -1, -1):
            row = list(map(or_, map(lshift, row, repeat(64)),
                           map(and_, words[a + j:b:k], repeat(0xFFFFFFFFFFFFFFFF))))
        out.update(zip(compress(zip(range(lo + q, lo + q + W), repeat(q)), row),
                       compress(row, row)))
    return out


def _den_poly(wden):
    """prod (1 - (uv)^k)^m over wden, expanded."""
    s = [1]
    _times_den(s, wden.items())
    return BivarPoly({(x, x): c for x, c in enumerate(s)})


class TruncSeries2:
    """Truncated power series: coefficients on total degree i + j <= order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("negative truncation order")
        self.order = order
        clean = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = _as_int(c)
                if c:
                    i, j = _as_int(i), _as_int(j)
                    if i < 0 or j < 0:
                        raise ValueError("negative exponent (%d, %d)" % (i, j))
                    if i + j <= order:
                        clean[(i, j)] = c
        self.coeffs = clean

    def coeff(self, i, j):
        return self.coeffs.get((i, j), 0)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other):
        order = min(self.order, other.order)
        res = {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= order}
        for k, c in other.coeffs.items():
            if k[0] + k[1] > order:
                continue
            nc = res.get(k, 0) + c
            if nc:
                res[k] = nc
            else:
                res.pop(k, None)
        return TruncSeries2(order, res)

    def __neg__(self):
        return TruncSeries2(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries2(self.order, {k: c * other for k, c in self.coeffs.items()})
        order = min(self.order, other.order)
        prod = BivarPoly(self.coeffs).mul_trunc(BivarPoly(other.coeffs), order)
        return TruncSeries2(order, prod.terms)

    __rmul__ = __mul__

    def json_obj(self):
        return {"order": self.order,
                "coeffs": [[i, j, str(c)] for (i, j), c in sorted(self.coeffs.items())]}

    def __str__(self):
        return "%s + O(deg %d)" % (BivarPoly(self.coeffs), self.order + 1)

    def __repr__(self):
        return "TruncSeries2(order=%d, %s)" % (self.order, BivarPoly(self.coeffs))


class RatFun2:
    """num / prod (1 - (uv)^k)^m, the denominator kept as the multiset
    wden = {k: m}; no gcd normalization is ever performed."""

    __slots__ = ("num", "wden")

    def __init__(self, num, wden=None):
        if isinstance(num, int):
            num = BivarPoly.constant(num)
        self.num = num
        self.wden = _wden(wden or {})

    @property
    def den(self):
        """The expanded denominator, for printing and substitution."""
        return _den_poly(self.wden)

    def _num_over(self, wden):
        """num times the factors of wden, a superset of self.wden, that
        self.wden lacks."""
        rest = wden - self.wden
        return self.num * _den_poly(rest) if rest else self.num

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _coerce_rat(other)
        common = self.wden | other.wden
        return RatFun2(self._num_over(common) + other._num_over(common), common)

    __radd__ = __add__

    def __neg__(self):
        return RatFun2(-self.num, self.wden)

    def __sub__(self, other):
        return self.__add__(_coerce_rat(other).__neg__())

    def __mul__(self, other):
        other = _coerce_rat(other)
        return RatFun2(self.num * other.num, self.wden + other.wden)

    __rmul__ = __mul__

    def rat_eq(self, other):
        """Semantic equality: both numerators over the union of the
        multisets.  Equal multisets are equal denominators, and the
        numerators decide alone, multiplied by nothing."""
        other = _coerce_rat(other)
        common = self.wden | other.wden
        return self._num_over(common) == other._num_over(common)

    def __eq__(self, other):
        if isinstance(other, (RatFun2, BivarPoly, int)):
            return self.rat_eq(other)
        return NotImplemented

    # -- expansion -----------------------------------------------------------

    def expand(self, order):
        """Power-series expansion to total degree <= order: the running sums
        over the band of the numerator's terms up to that degree."""
        terms, lo, W, rows = _layout(self.num.terms, order)
        n = rows * W
        B = _width(_l1(terms.values()) * _series_growth(self.wden, rows))
        X = _over_den(_band(terms, lo, W, n, B), n, self.wden, W, B)
        return TruncSeries2(order, _unband(X, n, lo, W, B))

    # -- substitution ----------------------------------------------------------

    def subs_u(self, val):
        return RatFun1(self.num.subs_u(val), self.den.subs_u(val))

    def subs_uv(self, uval, vval):
        """Substitute u := uval, v := vval; returns the exact quotient, a
        Fraction."""
        from fractions import Fraction

        den = self.den.subs_uv(uval, vval)
        if den == 0:
            raise ZeroDenominatorAfterSubstitution(
                "(u, v) := (%s, %s) kills denominator" % (uval, vval))
        return Fraction(self.num.subs_uv(uval, vval), den)

    def diagonal(self):
        """Substitute u = v = t."""
        return RatFun1(self.num.diagonal(), self.den.diagonal())

    def __str__(self):
        if not self.wden:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun2(%s)" % (str(self),)

    def latex(self):
        if not self.wden:
            return self.num.latex()
        return "\\frac{%s}{%s}" % (self.num.latex(), self.den.latex())


def _coerce_rat(x):
    if isinstance(x, RatFun2):
        return x
    if isinstance(x, (BivarPoly, int)):
        return RatFun2(x)
    raise TypeError("cannot coerce %r to RatFun2" % (x,))


def to_polynomial(r, degree_bound):
    """Certify that r is a polynomial of total degree <= degree_bound.

    The candidate is the exact quotient of num by the denominator
    (``BivarPoly.divide_exact``); that it exists is the certificate.
    Raises NotPolynomialWithinBound when the denominator does not divide
    num or the quotient's total degree exceeds the bound.
    """
    if degree_bound < 0:
        raise ValueError("negative degree bound")
    r = _coerce_rat(r)
    try:
        return r.num.divide_exact(r.wden, degree_bound)
    except NotDivisible:
        raise NotPolynomialWithinBound(
            "not a polynomial of total degree <= %d" % degree_bound) from None


# ---------------------------------------------------------------------------
# univariate helpers (results of substitution; coefficients may be Fractions)
# ---------------------------------------------------------------------------


def _powers(val, exponents):
    """[val^0, ..., val^top], top the largest of exponents, in ints when val
    is integral and in Fractions otherwise; an int val is kept as it is.  A
    value that is not rational, such as a float, raises TypeError, so it is
    never rounded through binary."""
    val = _norm_scalar(val)
    out = [1]
    for _ in range(max(exponents, default=0)):
        out.append(out[-1] * val)
    return out


def _norm_scalar(c):
    """c as an int when integral, else the rational c itself; a value that
    is not rational, such as a float, raises TypeError."""
    if not _rational(c):
        raise TypeError("%r is not rational" % (c,))
    return int(c) if c.denominator == 1 else c


class UniPoly:
    """Sparse univariate polynomial with int or Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for d, c in terms.items():
                c = _norm_scalar(c)
                if c:
                    clean[_as_int(d)] = c
        self.terms = clean

    @staticmethod
    def constant(c):
        return UniPoly({0: c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if _rational(other):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if _rational(other):
            return UniPoly({d: c * other for d, c in self.terms.items()})
        res = {}
        for d, c in self.terms.items():
            for e, f in other.terms.items():
                key = d + e
                nc = res.get(key, 0) + c * f
                if nc:
                    res[key] = nc
                else:
                    del res[key]
        return UniPoly(res)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d, c in sorted(self.terms.items()):
            if d == 0:
                parts.append(str(c))
            else:
                t = "t" if d == 1 else "t^%d" % d
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append("-" + t)
                else:
                    parts.append("%s*%s" % (c, t))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "UniPoly(%s)" % (str(self),)


class RatFun1:
    """Quotient of two UniPoly, unreduced; equality via cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if _rational(num):
            num = UniPoly.constant(num)
        if den is None:
            den = UniPoly.constant(1)
        elif _rational(den):
            den = UniPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def rat_eq(self, other):
        if isinstance(other, UniPoly) or _rational(other):
            other = RatFun1(other)
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        if isinstance(other, (RatFun1, UniPoly)) or _rational(other):
            return self.rat_eq(other)
        return NotImplemented

    def __str__(self):
        if self.den == UniPoly.constant(1):
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun1(%s)" % (str(self),)
