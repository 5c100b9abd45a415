"""Tests for the per-subset Levi records of a root datum.

Every record is checked against a reference derivation by direct scans of
the positive roots (the Levi sub-datum, the nilradical count and the
nilradical pairings 2 rho^I(alpha^vee)), and the closed formula's terms are
rebuilt from that reference, on every parabolic subset of each group.
"""

from operator import mul

import pytest

from hodge_series.formulas import _levi_term, closed_terms
from hodge_series.rootdata import (
    RootDatum,
    build_root_system,
    degrees_of,
    levi_datum,
    parse_group,
)

GROUPS = ["GL2", "GL3", "GL4", "GL5", "GL6", "SO7", "SO9", "Sp3", "SO8", "SO10",
          "GL2xSO5", "GL3xSO5"]


def _dot(form, vec):
    return sum(map(mul, form, vec))


def _subsets(k):
    return [tuple(i for i in range(k) if (mask >> i) & 1) for mask in range(1 << k)]


def _reference_sub_datum(datum, levi_indices):
    """A fresh root datum of the Levi with the given simple roots, built by
    scanning the positive roots (no cache, no link to datum)."""
    keep = set(levi_indices)
    roots, coeffs = [], []
    for form, cf in zip(datum.pos_roots, datum.pos_coeffs):
        if all(c == 0 or i in keep for i, c in enumerate(cf)):
            roots.append(form)
            coeffs.append(tuple(cf[i] for i in levi_indices))
    return RootDatum(datum.n,
                     [datum.simple_roots[i] for i in levi_indices],
                     [datum.simple_coroots[i] for i in levi_indices],
                     roots, coeffs)


def _reference_skeleton(datum, I):
    """(Levi datum, nilradical forms, {a: 2 rho^I(alpha_a^vee)}) of subset I."""
    levi = _reference_sub_datum(datum, datum.complement(I))
    nil = tuple(form for form, cf in zip(datum.pos_roots, datum.pos_coeffs)
                if any(cf[i] for i in I))
    rho = {a: sum(_dot(form, datum.simple_coroots[a]) for form in nil) for a in I}
    return levi, nil, rho


def _same_datum(a, b):
    return ((a.n, a.simple_roots, a.simple_coroots, a.pos_roots, a.pos_coeffs)
            == (b.n, b.simple_roots, b.simple_coroots, b.pos_roots, b.pos_coeffs))


def _check_records(datum, reference):
    """datum's records against the reference derivation on the datum
    `reference`, which has the same roots in the same order."""
    subsets = _subsets(datum.num_simple)
    assert [L.I for L in datum.levis()] == subsets
    for I, L in zip(subsets, datum.levis()):
        levi, nil, rho = _reference_skeleton(reference, I)
        assert datum.levi(I) is L
        assert _same_datum(L.datum, levi)
        assert L.nilradical == nil
        assert (L.rank, L.dim_z, L.exponents, L.dim_u, L.rho_pairings) == (
            datum.n, levi.dim_z, levi.exponent_list(), len(nil), rho)


def _reference_closed_terms(datum, fracs, g):
    terms = []
    for I in _subsets(datum.num_simple):
        levi, nil, rho = _reference_skeleton(datum, I)
        m = levi.dim_z
        terms.append(_levi_term((-1) ** len(I), m, levi.exponent_list()[m:],
                                len(nil), [(rho[a], fracs[a]) for a in I], g))
    return terms


@pytest.mark.parametrize("name", GROUPS)
def test_records_match_reference(name):
    rs = build_root_system(parse_group(name))
    datum = rs.datum
    _check_records(datum, datum)
    for L in datum.levis():
        assert levi_datum(rs, L.I) is L
        assert datum.two_rho_pairings(L.I) == L.rho_pairings


@pytest.mark.parametrize("name", GROUPS)
def test_records_of_levis_match_reference(name):
    """A Levi's own records (parabolic subsets of L^I) agree with a fresh,
    unlinked copy of the Levi, and its Levis are the group's."""
    datum = build_root_system(parse_group(name)).datum
    for L in datum.levis():
        index = datum.complement(L.I)
        _check_records(L.datum, _reference_sub_datum(datum, index))
        for sub in L.datum.levis():
            kept = tuple(index[j] for j in L.datum.complement(sub.I))
            assert sub.datum is datum.sub_datum(kept)


@pytest.mark.parametrize("name", GROUPS)
def test_closed_terms_match_reference(name):
    rs = build_root_system(parse_group(name))
    datum = rs.datum
    for d in degrees_of(rs.spec):
        X = rs.lift_degree(d)
        for g in (2, 3):
            fracs = datum.fund_fracs(X)
            assert closed_terms(datum, fracs, g) == _reference_closed_terms(datum, fracs, g)
        # the Levis' terms, as the recursion's right-hand side builds them
        for L in datum.levis()[1:]:
            fracs = L.datum.fund_fracs(X)
            ref = _reference_sub_datum(datum, datum.complement(L.I))
            assert closed_terms(L.datum, fracs, 2) == _reference_closed_terms(ref, fracs, 2)


def test_levi_record_is_cached():
    datum = build_root_system(parse_group("SO8")).datum
    for I in _subsets(datum.num_simple):
        assert datum.levi(I) is datum.levi(I) is datum.levi(tuple(reversed(I)))
    assert datum.levis() is datum.levis()


def test_levis_of_levis_are_built_once_per_group(monkeypatch):
    """The closed formula over every Levi of GL6 builds the group's Levi
    data once: 2^5 root data, the group itself serving as the Levi of
    I = (), and not one more per Levi of a Levi."""
    built = []
    init = RootDatum.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RootDatum, "__init__", counting)
    rs = build_root_system.__wrapped__(parse_group("GL6"))  # a fresh datum
    datum = rs.datum
    for I in _subsets(datum.num_simple):
        levi = datum.sub_datum(datum.complement(I))
        closed_terms(levi, levi.fund_fracs(rs.lift_degree((1,))), 2)
    assert len(built) == 2 ** 5


@pytest.mark.parametrize("name", GROUPS)
def test_full_levi_is_the_datum_itself(name):
    """The Levi of I = () is the group: its datum is the group's own object,
    for the group and for each of its Levis."""
    datum = build_root_system(parse_group(name)).datum
    assert datum.levi(()).datum is datum
    assert datum.sub_datum(range(datum.num_simple)) is datum
    for L in datum.levis():
        assert L.datum.levi(()).datum is L.datum
        assert L.datum.sub_datum(range(L.datum.num_simple)) is L.datum
