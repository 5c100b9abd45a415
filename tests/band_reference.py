"""The band as a flat integer list: the list implementation of the band of
:mod:`hodge_series.ratfun`, kept as the reference that the packed band is
compared against, and the coefficients that test the packed band's slot
width.

u^p v^q sits at index q * W + (p - q) - lo of one list; every factor
(1 + u^a v^b) or (1 - w^k) is one list pass, and dividing by 1 - w^k is the
running sum s[x] += s[x - k * W] bottom up.  Every entry is a plain Python
int, so no slot width is involved.
"""

from itertools import repeat
from operator import add, sub

from hypothesis import strategies as st

from hodge_series.ratfun import NotDivisible, TruncSeries2, _w_degree, _wden

#: coefficients near +-2^j, for j on both sides of the 64- and 128-bit slots
big_coefs = st.builds(lambda sign, j, r: sign * ((1 << j) + r), st.sampled_from([-1, 1]),
                      st.sampled_from([0, 58, 61, 62, 63, 122, 125, 126, 127, 200]),
                      st.integers(-1, 1))


def times_binomial(s, shift, e, op, cap):
    """Multiply the list s in place by (1 + x^shift)^e (op=add) or by
    (1 - x^shift)^e (op=sub), x^shift being a shift of the index: each
    factor grows s by shift, then s[y] = op(s[y], s[y - shift]) top down
    (map reads the old s in full), then cuts s to its first cap entries
    unless cap is None."""
    for _ in range(e):
        s += repeat(0, shift)
        s[shift:] = map(op, s[shift:], s)
        if cap is not None:
            del s[cap:]


def over_den(s, wden, width=1):
    """Divide s in place by prod (1 - w^k)^m over wden as a power series,
    truncated to len(s): per factor the running sum s[x] += s[x - step],
    step = k * width, bottom up, one block of step at a time."""
    for k, m in wden.items():
        step = k * width
        for _ in range(m):
            for x in range(step, len(s), step):
                s[x:x + step] = map(add, s[x:x + step], s[x - step:x])


def band(terms, order=None):
    """(lo, W, band) of a (p, q) -> c map, [lo, lo + W) spanning its p - q.
    The band holds every term in rows up to the top v-degree or, given an
    order, the terms of total degree <= order in the (order - lo) // 2 + 1
    rows that degree reaches."""
    if order is not None:
        terms = {k: c for k, c in terms.items() if k[0] + k[1] <= order}
    lo = min((p - q for p, q in terms), default=0)
    W = max((p - q for p, q in terms), default=0) - lo + 1
    rows = (max((q for _, q in terms), default=-1) + 1 if order is None
            else (order - lo) // 2 + 1)
    out = [0] * (rows * W)
    for (p, q), c in terms.items():
        out[q * W + p - q - lo] = c
    return lo, W, out


def unband(s, lo, W):
    """(p, q) -> c of the nonzero entries of a band."""
    return {(x % W + lo + x // W, x // W): c for x, c in enumerate(s) if c}


def mul_binomials(terms, factors):
    """terms * prod (1 + u^a v^b)^e, on one band widened by sum e |a - b|
    columns."""
    lo, W, s = band(terms)
    lo2 = lo - sum(e * max(b - a, 0) for a, b, e in factors)
    W2 = W + sum(e * abs(a - b) for a, b, e in factors)
    wide = [0] * (len(s) // W * W2)
    for y, x in zip(range(lo - lo2, len(wide), W2), range(0, len(s), W)):
        wide[y:y + W] = s[x:x + W]
    for a, b, e in factors:
        times_binomial(wide, b * W2 + a - b, e, add, None)
    return unband(wide, lo2, W2)


def divide_exact(terms, wden):
    """The quotient of terms by prod (1 - (uv)^k)^m over wden, else
    NotDivisible: the running sums leave the band's top sum k m rows zero
    exactly when the division is exact."""
    wden = _wden(wden)
    lo, W, s = band(terms)
    over_den(s, wden, W)
    cut = max(len(s) - _w_degree(wden) * W, 0)
    if any(s[cut:]):
        raise NotDivisible("not a multiple of the denominator")
    return unband(s[:cut], lo, W)


def expand(terms, wden, order):
    """The power series of terms / prod (1 - (uv)^k)^m to total degree <=
    order."""
    lo, W, s = band(terms, order)
    over_den(s, _wden(wden), W)
    return TruncSeries2(order, unband(s, lo, W))
