"""Exact arithmetic for bivariate integer polynomials, rational functions and
truncated formal power series in two variables u, v.

All coefficients are arbitrary-precision Python ints (Fractions only appear
after substituting rational values for the variables), so every identity
checked with these types is exact.  The module holds only what the
package computes with: the containers and their printing, one general
expansion (``RatFun2.expand``), substitution for the specializations, and
the exact division behind ``to_polynomial``.

Representation choices:

* ``BivarPoly`` stores a sparse map ``(deg_u, deg_v) -> coeff`` with no zero
  coefficients.  The generating functions in this package are products of
  very sparse factors such as ``(1 + u^3 v^2)^g`` or ``1 - (uv)^k``, so a
  dense representation would be wasteful.
* ``RatFun2`` is an unreduced quotient num/den.  Bivariate gcds are never
  computed: equal denominators compare numerators, others cross-multiply,
  and ``to_polynomial`` certifies a polynomial by exact division.
* ``TruncSeries2`` truncates by total degree ``i + j <= order``; this matches
  the homogeneous filtration of Z[[u,v]].
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed: a is not a multiple of b."""


class NonUnitDenominator(ArithmeticError):
    """Series expansion requested for a denominator vanishing at (0, 0)."""


class NonIntegralExpansion(ArithmeticError):
    """A power-series coefficient of the expansion is not an integer."""


class ZeroDenominatorAfterSubstitution(ZeroDivisionError):
    """A substitution made the denominator vanish identically."""


class NotPolynomialWithinBound(ArithmeticError):
    """to_polynomial could not verify polynomiality within the degree bound."""


def _as_int(c):
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise TypeError("BivarPoly coefficients must be integers, got %r" % (c,))
        return int(c)
    return int(c)


class BivarPoly:
    """Sparse polynomial in Z[u, v]; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                c = _as_int(c)
                if c:
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

    def constant_term(self):
        return self.terms.get((0, 0), 0)

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
        out = BivarPoly.__new__(BivarPoly)
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = BivarPoly.__new__(BivarPoly)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

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
            out = BivarPoly.__new__(BivarPoly)
            out.terms = {k: c * other for k, c in self.terms.items()}
            return out
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
        out = BivarPoly.__new__(BivarPoly)
        out.terms = res
        return out

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
        out = BivarPoly.__new__(BivarPoly)
        out.terms = res
        return out

    def mul_binomial(self, a, b, e):
        """self * (1 + u^a v^b)^e, by e shift-add passes over one dict.

        A pass adds every term into its shift by (a, b), largest keys first:
        the shifted key is lexicographically larger, so every term is read
        before anything is added into it.
        """
        res = dict(self.terms)
        for _ in range(e):
            for key in sorted(res, reverse=True):
                shifted = (key[0] + a, key[1] + b)
                nc = res.get(shifted, 0) + res[key]
                if nc:
                    res[shifted] = nc
                else:
                    del res[shifted]
        out = BivarPoly.__new__(BivarPoly)
        out.terms = res
        return out

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

    def divide_exact(self, other):
        """Return q with self == other * q, else raise NotDivisible.

        Greedy cancellation of lexicographic leading terms; correct for exact
        division over Z because leading terms are multiplicative.  Every
        subtraction lands below the leading term it cancels, so a max-heap of
        the remainder's monomials yields each leading term once, largest first.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        heap = [(-i, -j) for i, j in rem]
        heapify(heap)
        quot = {}
        lt = max(other.terms)
        lc = other.terms[lt]
        while heap:
            i, j = heappop(heap)
            rlt = (-i, -j)
            if rlt not in rem:
                continue
            di, dj = rlt[0] - lt[0], rlt[1] - lt[1]
            if di < 0 or dj < 0:
                raise NotDivisible("monomial %r not reachable" % (rlt,))
            qc, r = divmod(rem[rlt], lc)
            if r:
                raise NotDivisible("coefficient at %r not divisible" % (rlt,))
            quot[(di, dj)] = qc
            for (a, b), c in other.terms.items():
                key = (a + di, b + dj)
                old = rem.get(key, 0)
                nc = old - qc * c
                if nc:
                    if not old:
                        heappush(heap, (-key[0], -key[1]))
                    rem[key] = nc
                else:
                    del rem[key]
        return BivarPoly(quot)

    # -- substitution ------------------------------------------------------

    def subs_u(self, val):
        """Substitute u := val (a Fraction or int); returns UniPoly in v."""
        val = Fraction(val)
        res = {}
        for (i, j), c in self.terms.items():
            res[j] = res.get(j, 0) + c * val ** i
        return UniPoly(res)

    def subs_uv(self, uval, vval):
        uval, vval = Fraction(uval), Fraction(vval)
        return sum((c * uval ** i * vval ** j for (i, j), c in self.terms.items()),
                   Fraction(0))

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

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            mono = []
            if i:
                mono.append("u" if i == 1 else "u^%d" % i)
            if j:
                mono.append("v" if j == 1 else "v^%d" % j)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(mono))
            elif c == -1:
                parts.append("-" + "*".join(mono))
            else:
                parts.append("%d*%s" % (c, "*".join(mono)))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return "BivarPoly(%s)" % (str(self),)

    def latex(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            mono = ""
            if i:
                mono += "u" if i == 1 else "u^{%d}" % i
            if j:
                mono += "v" if j == 1 else "v^{%d}" % j
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%d %s" % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")


ONE = BivarPoly.constant(1)
U = BivarPoly.monomial(1, 0)
V = BivarPoly.monomial(0, 1)


def w_power(k):
    """(uv)^k as a polynomial."""
    return BivarPoly.monomial(k, k)


def one_minus_w(k):
    """1 - (uv)^k."""
    return BivarPoly({(0, 0): 1, (k, k): -1})


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
                if i + j <= order and c:
                    clean[(i, j)] = _as_int(c)
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
    """Quotient of two BivarPoly; no gcd normalization is ever performed."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = BivarPoly.constant(num)
        if isinstance(den, int):
            den = BivarPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        self.num = num
        self.den = den

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _coerce_rat(other)
        if self.den == other.den:
            return RatFun2(self.num + other.num, self.den)
        return RatFun2(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun2(-self.num, self.den)

    def __sub__(self, other):
        return self.__add__(_coerce_rat(other).__neg__())

    def __mul__(self, other):
        other = _coerce_rat(other)
        return RatFun2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def rat_eq(self, other):
        """Semantic equality: num_a * den_b == num_b * den_a.  With equal
        denominators the numerators decide alone, since a denominator is
        never zero and Z[u, v] has no zero divisors."""
        other = _coerce_rat(other)
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        if isinstance(other, (RatFun2, BivarPoly, int)):
            return self.rat_eq(other)
        return NotImplemented

    # -- expansion -----------------------------------------------------------

    def expand(self, order):
        """Power-series expansion to total degree <= order.

        Coefficients are solved in increasing total degree from
        den * S = num.  Raises NonUnitDenominator if den(0,0) = 0 and
        NonIntegralExpansion at the first non-integer coefficient.
        """
        c0 = self.den.constant_term()
        if c0 == 0:
            raise NonUnitDenominator("denominator vanishes at (0, 0)")
        num = self.num.terms
        den_rest = [(k, c) for k, c in self.den.terms.items() if k != (0, 0)]
        S = {}
        for t in range(order + 1):
            for i in range(t + 1):
                j = t - i
                acc = num.get((i, j), 0)
                for (a, b), dcoef in den_rest:
                    if a <= i and b <= j:
                        prev = S.get((i - a, j - b))
                        if prev is not None:
                            acc -= dcoef * prev
                if acc:
                    q, r = divmod(acc, c0)
                    if r:
                        raise NonIntegralExpansion(
                            "coefficient at (%d, %d) is %s/%s" % (i, j, acc, c0))
                    S[(i, j)] = q
        return TruncSeries2(order, S)

    # -- substitution ----------------------------------------------------------

    def subs_u(self, val):
        den = self.den.subs_u(val)
        if den.is_zero():
            raise ZeroDenominatorAfterSubstitution("u := %s kills denominator" % (val,))
        return RatFun1(self.num.subs_u(val), den)

    def subs_uv(self, uval, vval):
        den = self.den.subs_uv(uval, vval)
        if den == 0:
            raise ZeroDenominatorAfterSubstitution(
                "(u, v) := (%s, %s) kills denominator" % (uval, vval))
        return self.num.subs_uv(uval, vval) / den

    def diagonal(self):
        """Substitute u = v = t."""
        den = self.den.diagonal()
        if den.is_zero():
            raise ZeroDenominatorAfterSubstitution("u = v = t kills denominator")
        return RatFun1(self.num.diagonal(), den)

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun2(%s)" % (str(self),)

    def latex(self):
        if self.den == ONE:
            return self.num.latex()
        return "\\frac{%s}{%s}" % (self.num.latex(), self.den.latex())


def _coerce_rat(x):
    if isinstance(x, RatFun2):
        return x
    if isinstance(x, BivarPoly):
        return RatFun2(x, ONE)
    if isinstance(x, int):
        return RatFun2(BivarPoly.constant(x), ONE)
    raise TypeError("cannot coerce %r to RatFun2" % (x,))


def to_polynomial(r, degree_bound):
    """Certify that r is a polynomial of total degree <= degree_bound.

    The candidate is the exact quotient num / den in Z[u, v]; that it exists
    is the certificate.  Raises NotPolynomialWithinBound when den does not
    divide num or the quotient's total degree exceeds the bound.
    """
    if degree_bound < 0:
        raise ValueError("negative degree bound")
    r = _coerce_rat(r)
    try:
        p = r.num.divide_exact(r.den)
        if p.total_degree() <= degree_bound:
            return p
    except NotDivisible:
        pass
    raise NotPolynomialWithinBound(
        "not a polynomial of total degree <= %d" % degree_bound)


# ---------------------------------------------------------------------------
# univariate helpers (results of substitution; coefficients may be Fractions)
# ---------------------------------------------------------------------------


def _norm_scalar(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class UniPoly:
    """Sparse univariate polynomial with int or Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for d, c in terms.items():
                c = _norm_scalar(c)
                if c:
                    clean[int(d)] = c
        self.terms = clean

    @staticmethod
    def constant(c):
        return UniPoly({0: c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
        if isinstance(num, (int, Fraction)):
            num = UniPoly.constant(num)
        if den is None:
            den = UniPoly.constant(1)
        elif isinstance(den, (int, Fraction)):
            den = UniPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def rat_eq(self, other):
        if isinstance(other, (UniPoly, int, Fraction)):
            other = RatFun1(other)
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        if isinstance(other, (RatFun1, UniPoly, int, Fraction)):
            return self.rat_eq(other)
        return NotImplemented

    def __str__(self):
        if self.den == UniPoly.constant(1):
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun1(%s)" % (str(self),)
