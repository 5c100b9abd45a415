"""Tests for stratum enumeration, the codimension formula, and the
recursion identity between full-stack and semistable series."""

import hashlib
import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hodge_series import recursion, rootdata
from hodge_series.formulas import (closed_series_for, hp_semistable_classical,
                                   hp_semistable_closed)
from hodge_series.ratfun import BivarPoly, TruncSeries2
from hodge_series.recursion import (
    HNType,
    NonIntegralCodim,
    codim,
    enumerate_hn_types,
    hn_blocks_of,
    hn_gl_oracle,
    hn_types_to_csv,
    oracle_codim,
    recursion_rhs,
    verify_recursion,
)
from hodge_series.rootdata import (GroupSpec, _dot, build_root_system, degrees_of,
                                   parse_group)

GL = lambda r: GroupSpec((("GL", r),))


class TestCodim:
    def test_gl2_degree_zero_strata(self):
        datum = build_root_system(GL(2))
        for k in range(1, 5):
            for g in (2, 3):
                assert codim(datum, (k, -k), g) == 2 * k + g - 1

    def test_gl2_degree_one_strata(self):
        datum = build_root_system(GL(2))
        for k in range(1, 5):
            for g in (2, 3):
                assert codim(datum, (k, 1 - k), g) == 2 * k + g - 2

    def test_zero_slope(self):
        datum = build_root_system(GL(3))
        assert codim(datum, (0, 0, 0), 2) == 0

    def test_monotone_under_scaling(self):
        datum = build_root_system(parse_group("SO5"))
        mu = (Fraction(2), Fraction(1))
        for g in (2, 3):
            assert codim(datum, tuple(2 * m for m in mu), g) > codim(datum, mu, g)

    def test_non_integral(self):
        datum = build_root_system(GL(2))
        with pytest.raises(NonIntegralCodim):
            codim(datum, (Fraction(1, 3), 0), 2)


class TestEnumeration:
    def test_gl2_d0(self):
        types = enumerate_hn_types(GL(2), (0,), 2, 7)
        assert [(t.codim, t.delta_lift) for t in types] == [
            (3, (1, -1)), (5, (2, -2)), (7, (3, -3))]

    def test_gl2_d1(self):
        types = enumerate_hn_types(GL(2), (1,), 2, 2)
        assert [(t.codim, t.delta_lift) for t in types] == [(2, (1, 0))]

    def test_below_minimum_codim_empty(self):
        # GL_2, d = 0: minimum codimension is g + 1
        g = 2
        assert enumerate_hn_types(GL(2), (0,), g, g) == []
        assert len(enumerate_hn_types(GL(2), (0,), g, g + 1)) == 1

    def test_slope_condition_and_degree(self):
        datum = build_root_system(GL(3))
        for t in enumerate_hn_types(GL(3), (1,), 2, 12):
            assert sum(t.delta_lift) == 1
            for a in t.I:
                val = sum(f * m for f, m in
                          zip(datum.simple_roots[a], t.mu))
                assert val > 0
            assert t.mu == datum.project_to_center(t.I, t.delta_lift)

    def test_distinct_mu_within_parabolic(self):
        types = enumerate_hn_types(parse_group("SO7"), (1,), 2, 22)
        seen = {}
        for t in types:
            key = (t.I, t.mu)
            assert key not in seen, "duplicate stratum"
            seen[key] = t

    def test_deterministic_order(self):
        a = enumerate_hn_types(GL(3), (0,), 2, 15)
        b = enumerate_hn_types(GL(3), (0,), 2, 15)
        assert a == b
        assert a == sorted(a, key=lambda t: (t.codim, t.I, t.delta_lift))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [-4, -2, 0, 1, 3, 4])
    @pytest.mark.parametrize("g", [2, 3])
    def test_gl_oracle_bijection(self, r, d, g):
        spec = GL(r)
        datum = build_root_system(spec)
        types = enumerate_hn_types(spec, (d,), g, 24)
        mine = sorted((hn_blocks_of(datum, t), t.codim) for t in types)
        oracle = sorted((b, oracle_codim(b, g)) for b in hn_gl_oracle(r, d, 24, g))
        assert mine == oracle

    def test_oracle_examples(self):
        g = 3
        assert hn_gl_oracle(2, 0, g + 1, g) == [((1, 1), (1, -1))]
        assert hn_gl_oracle(2, 1, g, g) == [((1, 1), (1, 0))]
        assert hn_gl_oracle(3, 0, 0, 2) == []


# sha256 of hn_types_to_csv(enumerate_hn_types(group, d, g, max_codim)) and
# the stratum count, recorded with the former Fraction enumeration; mu is part
# of the digest, so exact slopes are pinned as well as the strata
HN_DIGESTS = [
    ("GL4", (1,), 2, 12, 9,
     "ac8c8b4ad37dc6f6514594361b48ac19174da786f3288b98464b41b6a5f50535"),
    ("SL3", (0,), 3, 12, 5,
     "7c5dfc35ca43cb4f7e302a460dcbf597d3f25c9de59462501e846889b2ad621d"),
    ("SO5", (1,), 2, 12, 6,
     "e10fdbbce4f17b65453ba413d20014bb98637e7e6e273fd0a293825bb0b2f4b0"),
    ("SO7", (0,), 2, 20, 9,
     "57f97d650782ce7e571a121be979c607374c35701759f68d1307fb9969ad881c"),
    ("SO9", (1,), 2, 20, 4,
     "7cbdb9bf440ae2f331e54113f7eea83818f18abc59d021375b02d2629f223deb"),
    ("Sp2", (0,), 2, 12, 5,
     "52adf07b317613a17d46229c5d6886375e118104f435589f503c4cde684f1d4b"),
    ("Sp3", (0,), 2, 20, 8,
     "e46e8a5dc340c543ef26d9310e27e1068c3bc4861c52fc7e98c6f944b13e8dc4"),
    ("SO8", (1,), 2, 20, 11,
     "e6aba3ab35b42b348fe90e629ccb5a67c700a4d7ef6c3332018733c46cb4a413"),
    ("SO10", (1,), 2, 20, 5,
     "de7a6b76dd002d4f373d29ed6fb03288bbfbee07bdbd2f3d7b6520decef1f0b7"),
    ("GL2xSO5", (1, 1), 2, 12, 20,
     "679762546b6a6f4f9f7a98ab508191ef2d1537417072db33a9de454cefb9a5b3"),
    ("GL3xSO5", (2, 0), 3, 12, 10,
     "9b8abaee6f4e0243bbbf1731d9f79ab2047f9d49d486c6baca9320aac4c503e5"),
    ("GL2xGL3", (1, 2), 2, 12, 31,
     "95bceacdba29be20d560e4651df52d689988b38341a1f1dbe43f6db26a4a3902"),
    ("GL6", (3,), 2, 15, 10,
     "e5147f0fdf92bd5d0229a0fd0bfe41344b5adb3571ea11e7b844d9a8f5c88ad5"),
]


@pytest.mark.parametrize("group,d,g,max_codim,count,digest", HN_DIGESTS,
                         ids=[c[0] for c in HN_DIGESTS])
def test_pinned_strata(group, d, g, max_codim, count, digest):
    types = enumerate_hn_types(parse_group(group), d, g, max_codim)
    assert len(types) == count
    text = hn_types_to_csv(types)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_set_up_is_cached_per_datum(monkeypatch):
    """A second enumeration on the same group, at another degree and genus,
    eliminates nothing: every per-wall matrix is cached on the root datum."""
    from hodge_series import recursion, rootdata

    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def count(rows):
            calls.append((name, len(rows)))
            return real(rows)

        monkeypatch.setattr(module, name, count)

    counting(rootdata, "_adjugate")
    counting(recursion, "_hnf")
    build_root_system.cache_clear()
    spec = parse_group("GL2xSO5")
    first = enumerate_hn_types(spec, (1, 1), 2, 12)
    assert first and {name for name, _ in calls} == {"_adjugate", "_hnf"}
    calls.clear()
    second = enumerate_hn_types(spec, (0, 1), 3, 14)
    assert second and second != first
    assert calls == []


# -- the projector-based enumeration, kept as the reference ------------------


def _reference_projector(datum, I):
    """(D, P) with D * mu = P X the projection of X to the center of L^I:
    det A * mu = (det A * Id - sum_b beta_b^vee (adj(A) beta)_b) X for the
    Levi Cartan matrix A, over the content of D and P."""
    keep = datum.complement(I)
    cartan = datum.cartan_matrix()
    det, adj = rootdata._adjugate([[cartan[i][j] for j in keep] for i in keep])
    columns = list(zip(*(datum.simple_roots[b] for b in keep)))
    n = datum.n
    P = [[det * (i == j) for j in range(n)] for i in range(n)]
    for b, adj_row in zip(keep, adj):
        form = [_dot(adj_row, col) for col in columns]
        for i, c in enumerate(datum.simple_coroots[b]):
            if c:
                P[i] = [x - c * f for x, f in zip(P[i], form)]
    content = gcd(det, *(x for row in P for x in row))
    return det // content, tuple(tuple(x // content for x in row) for row in P)


def _reference_hn_setup(datum, I):
    """(D, P, weights, nil_roots, step, simple_rows, det, adj): the step
    matrix of every nilradical root's value D beta(mu) in n, its wall rows
    M, and det M and adj M."""
    D, P = _reference_projector(datum, I)
    nil_roots = datum.levi(I).nilradical
    weights = tuple(sum(cf[a] for cf in datum.pos_coeffs) for a in I)
    pcs = tuple(tuple(_dot(row, datum.simple_coroots[a]) for row in P) for a in I)
    step = tuple(tuple(_dot(form, pc) for pc in pcs) for form in nil_roots)
    simple_rows = tuple(nil_roots.index(datum.simple_roots[a]) for a in I)
    det, adj = rootdata._adjugate([step[r] for r in simple_rows])
    return D, P, weights, nil_roots, step, simple_rows, det, adj


def _reference_enumerate(spec, d, g, max_codim):
    """The strata scanned through the projector P and every nilradical
    root's value, with nothing cached, as (I, delta_lift, mu, codim)."""
    if max_codim < 0:
        return []
    datum = build_root_system(spec)
    X0 = datum.lift_degree(d)
    found = []
    for levi in datum.levis()[1:]:
        I = levi.I
        budget = max_codim - (g - 1) * levi.dim_u
        if budget <= 0:
            continue
        D, P, weights, nil_roots, step, simple_rows, det, adj = _reference_hn_setup(datum, I)
        mu0 = [_dot(row, X0) for row in P]
        base = [_dot(form, mu0) for form in nil_roots]
        L = lcm(*weights)
        t_lo = [-L * base[r] for r in simple_rows]
        t_hi = [D * budget * (L // w) - L * base[r] for w, r in zip(weights, simple_rows)]
        q = L * det
        ranges = []
        for row in adj:
            lo = sum(c * (l if c >= 0 else h) for c, l, h in zip(row, t_lo, t_hi))
            hi = sum(c * (h if c >= 0 else l) for c, l, h in zip(row, t_lo, t_hi))
            ranges.append(range(-(-lo // q), hi // q + 1))
        walls = [(base[r], step[r]) for r in simple_rows]
        for n in itertools.product(*ranges):
            if any(b + _dot(n, strow) <= 0 for b, strow in walls):
                continue
            vals = [b + _dot(n, strow) for b, strow in zip(base, step)]
            total = sum(v + (g - 1) * D for v in vals if v > 0)
            if total > max_codim * D:
                continue
            assert total % D == 0
            X = list(X0)
            for na, a in zip(n, I):
                X = [x + na * c for x, c in zip(X, datum.simple_coroots[a])]
            mu = tuple(Fraction(_dot(row, X), D) for row in P)
            found.append((I, tuple(X), mu, total // D))
    found.sort(key=lambda t: (t[3], t[0], t[1]))
    return found


# factor -> number of simple roots; products are drawn with at most 5
REFERENCE_FACTORS = {"GL1": 0, "GL2": 1, "GL3": 2, "GL4": 3, "GL5": 4, "GL6": 5,
                     "SL2": 1, "SL3": 2, "SL4": 3, "SO5": 2, "SO7": 3, "SO9": 4,
                     "SO11": 5, "Sp1": 1, "Sp2": 2, "Sp3": 3, "Sp4": 4, "SO4": 2,
                     "SO6": 3, "SO8": 4, "SO10": 5}


@st.composite
def small_products(draw):
    names, room = [], 5
    while True:
        fits = sorted(n for n, k in REFERENCE_FACTORS.items() if k <= room)
        names.append(draw(st.sampled_from(fits)))
        room -= REFERENCE_FACTORS[names[-1]]
        if len(names) == 3 or not draw(st.booleans()):
            return parse_group("x".join(names))


@settings(max_examples=40, deadline=None)
@given(small_products(), st.sampled_from((2, 3)), st.integers(0, 24))
@example(parse_group("GL6"), 2, 24)
@example(parse_group("GL3xSO5"), 2, 15)
@example(parse_group("GL2xGL2xSp3"), 2, 24)
# GL5 at max_codim 20 held 1006 box points for 21 strata at degree 2
@example(parse_group("GL5"), 2, 20)
@example(parse_group("GL2xGL2xSp3"), 2, 36)
def test_enumeration_matches_projector_reference(spec, g, max_codim):
    """The s-space scan finds exactly the strata of the projector-based
    scan, with the same lifts, slopes and codimensions, in the same order,
    at every degree."""
    for d in degrees_of(spec):
        assert [(t.I, t.delta_lift, t.mu, t.codim)
                for t in enumerate_hn_types(spec, d, g, max_codim)] == \
            _reference_enumerate(spec, d, g, max_codim)


def _set_ups(datum):
    return {key[1] for key in datum._cache if isinstance(key, tuple) and key[0] == "hn"}


@settings(max_examples=40, deadline=None)
@given(small_products(), st.sampled_from((2, 3)), st.integers(0, 24))
@example(parse_group("GL6"), 2, 24)
@example(parse_group("GL2xGL2xSp3"), 2, 36)
def test_skipped_wall_sets_hold_no_stratum(spec, g, max_codim):
    """A wall set with budget that the enumeration gives no set-up, since
    det * budget < sum_a w_a, walks empty under its full set-up at every
    degree."""
    build_root_system.cache_clear()
    datum = build_root_system(spec)
    enumerate_hn_types(spec, degrees_of(spec)[0], g, max_codim)
    built = _set_ups(datum)
    for levi in datum.levis()[1:]:
        budget = max_codim - (g - 1) * levi.dim_u
        if budget <= 0 or levi.I in built:
            continue
        hn = recursion._hn_setup(datum, levi.I)
        for d in degrees_of(spec):
            alpha0 = [_dot(a, datum.lift_degree(d)) for a in datum.simple_roots]
            aK = [alpha0[k] for k in hn.keep]
            s0 = [hn.det * alpha0[a] - _dot(row, aK) for a, row in zip(levi.I, hn.R)]
            assert not list(recursion._walk(s0, hn.H, hn.weights, hn.det * budget))


def test_set_ups_only_for_wall_sets_with_room():
    """verify_recursion at g = 2 on GL6 d=3 N=30, GL5 d=2 N=40, SO10 d=1 N=30
    and GL3xSO5 d=(1,0) N=30 builds 15, 14, 4 and 14 HN set-ups: one per
    wall set with det * budget >= sum_a w_a (30, 15, 8 and 15 have
    budget)."""
    build_root_system.cache_clear()
    counts = []
    for name, d, order in [("GL6", (3,), 30), ("GL5", (2,), 40), ("SO10", (1,), 30),
                           ("GL3xSO5", (1, 0), 30)]:
        spec = parse_group(name)
        assert verify_recursion(spec, d, 2, order).match
        counts.append(len(_set_ups(build_root_system(spec))))
    assert counts == [15, 14, 4, 14]


@pytest.mark.parametrize("name, d, order", [("GL5", (2,), 40),
                                            ("GL3xSO5", (2, 1), 30)])
def test_recursion_check_projects_no_slope(monkeypatch, name, d, order):
    """The recursion check reads each stratum's walls, lift and codim, never
    its slope: with the projection to the center made to raise, it still
    passes and counts the same strata."""
    spec = parse_group(name)
    expect = verify_recursion(spec, d, 2, order)
    assert expect.match and expect.strata

    def project(*args):
        raise AssertionError("project_to_center called")

    monkeypatch.setattr(rootdata.RootDatum, "project_to_center", project)
    build_root_system.cache_clear()
    assert verify_recursion(spec, d, 2, order) == expect


def test_slope_is_projected_once_on_first_read(monkeypatch):
    """HNType.mu is project_to_center of its walls and lift, computed on
    the first read, not by the enumeration, and kept for later reads."""
    real = rootdata.RootDatum.project_to_center
    calls = []

    def project(self, I, X):
        calls.append((I, X))
        return real(self, I, X)

    monkeypatch.setattr(rootdata.RootDatum, "project_to_center", project)
    spec = parse_group("GL3xSO5")
    datum = build_root_system(spec)
    strata = enumerate_hn_types(spec, (2, 1), 2, 15)
    assert strata and calls == []
    first = strata[0]
    assert first == HNType(first.I, first.delta_lift, first.codim, None)
    for t in strata:
        assert t.mu == real(datum, t.I, t.delta_lift)
        assert t.mu is t.mu
    assert calls == [(t.I, t.delta_lift) for t in strata]


@st.composite
def nonsingular_matrices(draw):
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    assume(rootdata._adjugate(rows)[0])
    return rows


@settings(max_examples=200, deadline=None)
@given(nonsingular_matrices())
def test_hermite_form(rows):
    """M U = H with H lower-triangular, its diagonal positive, and U
    unimodular, so m -> U m is a bijection of Z^k and H m walks M Z^k."""
    H, U = recursion._hnf(rows)
    k = len(rows)
    assert all(H[i][j] == 0 for i in range(k) for j in range(i + 1, k))
    assert all(H[i][i] > 0 for i in range(k))
    assert [[_dot(row, col) for col in zip(*U)] for row in rows] == H
    assert abs(rootdata._adjugate(U)[0]) == 1


class TestRecursion:
    SMALL = [("GL1", (0,)), ("GL2", (0, 1)), ("GL3", (0, 1, 2)),
             ("SL2", (0,)), ("SL3", (0,)), ("SO3", (0, 1)), ("SO5", (0, 1)),
             ("Sp1", (0,)), ("Sp2", (0,)), ("SO4", (0, 1)), ("SO6", (0, 1))]

    @pytest.mark.parametrize("name,degrees", SMALL)
    def test_rank_le_3_order_20(self, name, degrees):
        spec = parse_group(name)
        for d in degrees:
            for g in (2, 3):
                rep = verify_recursion(spec, (d,), g, 20)
                assert rep.match, (name, d, g, rep.first_mismatch)

    def test_gl1_rhs_is_stack_series(self):
        from hodge_series.formulas import a_series

        rhs = recursion_rhs(GL(1), (0,), 2, 10)
        assert rhs == a_series(GL(1), 2).expand(10)

    def test_rhs_matches_worked_rank2_expression(self):
        from hodge_series.formulas import hp_semistable_closed

        for d in (0, 1):
            rhs = recursion_rhs(GL(2), (d,), 2, 10)
            assert rhs == hp_semistable_closed(GL(2), (d,), 2).expand(10)

    @pytest.mark.parametrize("name,d,g,N", [
        ("GL2", (0,), 2, 8), ("GL4", (1,), 2, 20), ("SO7", (1,), 2, 20),
        ("SL3", (0,), 2, 20), ("GL2xSO5", (1, 1), 2, 20), ("Sp3", (0,), 3, 20)],
        ids=["GL2", "GL4", "SO7", "SL3", "GL2xSO5", "Sp3-g3"])
    def test_stable_under_larger_max_codim(self, name, d, g, N):
        # strata of codimension above the order contribute nothing; the
        # per-stratum shift-and-subtract sum is the reference for the one
        # factored sum of recursion_rhs
        from hodge_series.formulas import a_series_term, assemble_series, closed_series_for

        spec = parse_group(name)
        datum = build_root_system(spec)
        total = assemble_series([a_series_term(spec, g)], N)
        for hn in enumerate_hn_types(spec, d, g, 3 * N):
            if 2 * hn.codim > N:
                continue
            levi = datum.sub_datum(datum.complement(hn.I))
            series = closed_series_for(levi, levi.fund_residues(hn.delta_lift), g, N)
            c = hn.codim
            total = total - TruncSeries2(
                N, {(i + c, j + c): x for (i, j), x in series.coeffs.items()})
        assert total == recursion_rhs(spec, d, g, N)

    @pytest.mark.parametrize("name", ["GL4", "SO7"])
    def test_strata_counts_contributing_strata(self, name):
        spec, N = parse_group(name), 20
        contributing = [hn for hn in enumerate_hn_types(spec, (1,), 2, N)
                        if 2 * hn.codim <= N]
        assert verify_recursion(spec, (1,), 2, N).strata == len(contributing)

    def test_product_group(self):
        spec = parse_group("GL1xGL2")
        rep = verify_recursion(spec, (0, 1), 2, 14)
        assert rep.match

    def test_mixed_product_group(self):
        spec = parse_group("GL2xSO5")
        for d in [(0, 0), (1, 1), (0, 1)]:
            rep = verify_recursion(spec, d, 2, 14)
            assert rep.match, (d, rep.first_mismatch)

    @pytest.mark.parametrize("name", ["SO7", "Sp3", "SO8"])
    def test_rank3_4_order_24(self, name):
        # order 24 reaches the strata whose denominator exponents
        # distinguish the two rho^I conventions (see test_rootdata); the
        # shipped nilradical convention must survive here
        spec = parse_group(name)
        for d in ((0,), (1,)) if name != "Sp3" else ((0,),):
            rep = verify_recursion(spec, d, 2, 24)
            assert rep.match, (name, d, rep.first_mismatch)

    def test_diagonal_specialization_consistent(self):
        # t-specializations of closed formula and recursion output agree
        from hodge_series.formulas import _datum_residues

        for d in (0, 1):
            lhs = closed_series_for(*_datum_residues(GL(2), (d,)), 2, 12)
            rhs = recursion_rhs(GL(2), (d,), 2, 12)
            assert BivarPoly(lhs.coeffs).diagonal() == BivarPoly(rhs.coeffs).diagonal()


@pytest.mark.parametrize("name,d,mismatch", [
    ("GL4", (1,), (4, 4, 185, 186)), ("SO10", (1,), (14, 14, 2648, 2649)),
    ("GL3xSO5", (1, 0), (3, 3, 147, 148))])
def test_broken_stratum_fails(monkeypatch, name, d, mismatch):
    """The first stratum's codim raised by 1 breaks the recursion side
    alone: the check fails, and reports the first coefficient at which
    closed_series_for and recursion_rhs, assembled apart, differ."""
    real = recursion.enumerate_hn_types

    def broken(*args, **kwargs):
        strata = real(*args, **kwargs)
        return [replace(strata[0], codim=strata[0].codim + 1)] + strata[1:]

    monkeypatch.setattr(recursion, "enumerate_hn_types", broken)
    spec, g, N = parse_group(name), 2, 30
    rep = verify_recursion(spec, d, g, N)
    assert not rep.match
    assert rep.first_mismatch == mismatch
    datum = build_root_system(spec)
    lhs = closed_series_for(datum, datum.fund_residues(datum.lift_degree(d)), g, N)
    rhs = recursion_rhs(spec, d, g, N)
    i, j = min(k for k in set(lhs.coeffs) | set(rhs.coeffs)
               if lhs.coeff(*k) != rhs.coeff(*k))
    assert mismatch == (i, j, lhs.coeff(i, j), rhs.coeff(i, j))


# factor -> rank; products are drawn with total rank <= 4
RANDOM_FACTORS = {"GL1": 1, "GL2": 2, "GL3": 3, "SL2": 1, "SL3": 2, "SO5": 2,
                  "SO7": 3, "Sp2": 2, "SO8": 4}


@st.composite
def group_degree_genus(draw):
    names = [draw(st.sampled_from(sorted(RANDOM_FACTORS)))]
    room = 4 - RANDOM_FACTORS[names[0]]
    fits = sorted(n for n, r in RANDOM_FACTORS.items() if r <= room)
    if fits and draw(st.booleans()):
        names.append(draw(st.sampled_from(fits)))
    spec = parse_group("x".join(names))
    return spec, draw(st.sampled_from(degrees_of(spec))), draw(st.sampled_from((2, 3)))


@settings(max_examples=25, deadline=None)
@given(group_degree_genus())
def test_random_group_cross_check(case):
    # closed formula against the recursion, and for a single factor against
    # the composition sum as well
    spec, d, g = case
    rep = verify_recursion(spec, d, g, 12)
    assert rep.match, rep.first_mismatch
    if len(spec.factors) == 1:
        (family, rank), = spec.factors
        assert hp_semistable_classical(family, rank, d, g).rat_eq(
            hp_semistable_closed(spec, d, g))


class TestCsv:
    def test_export(self):
        types = enumerate_hn_types(GL(2), (0,), 2, 5)
        text = hn_types_to_csv(types)
        lines = text.strip().split("\n")
        assert lines[0] == "I,delta,mu,codim"
        assert lines[1] == "1,1 -1,1 -1,3"
        assert lines[2] == "1,2 -2,2 -2,5"
