"""Tests for the per-subset Levi records of a root datum.

Every record is checked against a reference derivation by direct scans of
the positive roots (the Levi sub-datum, the nilradical count and the
nilradical pairings 2 rho^I(alpha^vee)), and the closed formula's terms are
rebuilt from that reference, on every parabolic subset of each group, with
their exponents summed in Fractions; the composition sums are checked
against the same Fraction arithmetic.  Each Levi's closed formula read off
the group's records by its wall set is checked against the Levi's own
sub-datum.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from hodge_series import formulas
from hodge_series.formulas import (
    FTerm,
    _bc_exps,
    _bc_terms,
    _compositions,
    _d_exps,
    _e2,
    _gl_exps,
    _gl_terms,
    _so_even_terms,
    _templates,
    closed_terms,
)
from hodge_series.recursion import enumerate_hn_types, verify_recursion
from hodge_series.rootdata import (
    LeviDatum,
    RootDatum,
    build_root_system,
    degrees_of,
    frac_rep,
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
        assert _same_datum(datum.sub_datum(datum.complement(L.I)), levi)
        assert (datum.n, L.dim_z, L.exponents, L.dim_u, datum.two_rho_pairings(L.I)) == (
            levi.n, levi.dim_z, levi.exponent_list(), len(nil), rho)


def _reference_term(coef, m, nonab_exps, dim_u, walls, g):
    """coef * a(L) * w^{(g - 1) dim_u + sum r f} / prod (1 - w^r) for the
    walls (r, f), f = <varpi_alpha(d)> a Fraction, with the exponent summed
    in Fractions; a(L) from dim Z(L) = m and the non-abelian exponents."""
    numf, den = [], Counter()
    if m:
        numf += [(1, 0, g * m), (0, 1, g * m)]
        den[1] = m
    for d in nonab_exps:
        numf += [(d, d - 1, g), (d - 1, d, g)]
        den[d - 1] += 1
        den[d] += 1
    shift = Fraction((g - 1) * dim_u)
    for r, f in walls:
        den[r] += 1
        shift += r * f
    assert shift.denominator == 1
    return FTerm(coef, int(shift), tuple(numf), den)


def _merged(terms):
    """The terms with their numerator factors merged, equal (a, b) summing
    their multiplicities, so that products are compared and not the layout
    of their factors: the references write one pair per exponent, in the
    order given, and the package one pair per distinct exponent."""
    out = []
    for t in terms:
        numf = Counter()
        for a, b, e in t.numfactors:
            numf[a, b] += e
        out.append(t._replace(numfactors=numf))
    return out


def _fractions(residues):
    """The <varpi_a> of the pair (D, nums) as Fractions n_a / D."""
    D, nums = residues
    return tuple(Fraction(n, D) for n in nums)


def _reference_closed_terms(datum, fracs, g):
    terms = []
    for I in _subsets(datum.num_simple):
        levi, nil, rho = _reference_skeleton(datum, I)
        m = levi.dim_z
        terms.append(_reference_term((-1) ** len(I), m, levi.exponent_list()[m:],
                                     len(nil), [(rho[a], fracs[a]) for a in I], g))
    return terms


@pytest.mark.parametrize("name", GROUPS)
def test_records_match_reference(name):
    datum = build_root_system(parse_group(name))
    _check_records(datum, datum)
    for L in datum.levis():
        assert datum.levi(L.I) is L
        assert datum.two_rho_pairings(L.I) == {a: L.sums[a] for a in L.I}


@pytest.mark.parametrize("name", GROUPS)
def test_records_of_levis_match_reference(name):
    """A Levi's own records (parabolic subsets of L^I) agree with a fresh,
    unlinked copy of the Levi, and its Levis have the data of the group's."""
    datum = build_root_system(parse_group(name))
    for L in datum.levis():
        index = datum.complement(L.I)
        levi = datum.sub_datum(index)
        _check_records(levi, _reference_sub_datum(datum, index))
        for sub in levi.levis():
            kept = levi.complement(sub.I)
            assert _same_datum(levi.sub_datum(kept),
                               datum.sub_datum(tuple(index[j] for j in kept)))


@pytest.mark.parametrize("name", GROUPS)
def test_closed_terms_match_reference(name):
    """The closed formula's integer exponents from the cached templates
    against the scan reference, whose exponents are summed in Fractions
    n_a / D built from the integer pair (D, nums), and which equal <x> of
    the fundamental-weight values: on the group and on each of its Levis,
    at every degree and three genera."""
    datum = build_root_system(parse_group(name))
    for d in degrees_of(datum.spec):
        X = datum.lift_degree(d)
        residues = datum.fund_residues(X)
        fracs = _fractions(residues)
        assert fracs == tuple(map(frac_rep, datum.fund_weight_values(X)))
        for g in (2, 3, 8):
            assert (_merged(closed_terms(datum, residues, g))
                    == _merged(_reference_closed_terms(datum, fracs, g)))
            # the Levis' terms, as the recursion's right-hand side builds them
            for L in datum.levis()[1:]:
                sub = datum.sub_datum(datum.complement(L.I))
                levi = sub.fund_residues(X)
                ref = _reference_sub_datum(datum, datum.complement(L.I))
                assert (_merged(closed_terms(sub, levi, g))
                        == _merged(_reference_closed_terms(ref, _fractions(levi), g)))


def _reference_gl_terms(r, d, g, abelian_drop=0):
    terms = []
    for comp in _compositions(r):
        l = len(comp)
        walls = []
        p = 0
        for i in range(l - 1):
            p += comp[i]
            walls.append((comp[i] + comp[i + 1], frac_rep(Fraction(-p * d, r))))
        terms.append(_reference_term((-1) ** (l - 1), l - abelian_drop, _gl_exps(comp),
                                     _e2(comp), walls, g))
    return terms


def _chain(comp):
    return [(comp[i] + comp[i + 1], 1) for i in range(len(comp) - 1)]


def _reference_bc_terms(r, fr, g, c):
    u_full = r * (r + 1) // 2
    terms = []
    for comp in _compositions(r):
        l, m = len(comp), comp[-1]
        e2 = _e2(comp)
        last = (m + 1, 1) if c else (2 * m, fr)
        terms.append(_reference_term((-1) ** l, l, _gl_exps(comp), e2 + u_full,
                                     _chain(comp) + [last], g))
        walls = _chain(comp[:-1])
        if l > 1:
            walls.append((comp[-2] + 2 * m + c, 1))
        terms.append(_reference_term((-1) ** (l - 1), l - 1,
                                     _gl_exps(comp[:-1]) + _bc_exps(m),
                                     e2 + u_full - m * (m + 1) // 2, walls, g))
    return terms


def _reference_so_even_terms(r, d, g):
    fr = frac_rep(Fraction(d, 2))
    u_full = r * (r - 1) // 2
    terms = []
    for comp in _compositions(r):
        l, m = len(comp), comp[-1]
        e2 = _e2(comp)
        if m == 1 and l >= 2:
            walls = _chain(comp[:-1]) + [(comp[-2] + 1, fr)] * 2
            terms.append(_reference_term((-1) ** l, l, _gl_exps(comp), e2 + u_full,
                                         walls, g))
        if m >= 2:
            walls = _chain(comp) + [(2 * (m - 1), fr)]
            terms.append(_reference_term(2 * (-1) ** l, l, _gl_exps(comp),
                                         e2 + u_full, walls, g))
            walls = _chain(comp[:-1])
            if l > 1:
                walls.append((comp[-2] + 2 * m - 1, 1))
            terms.append(_reference_term((-1) ** (l - 1), l - 1,
                                         _gl_exps(comp[:-1]) + _d_exps(m),
                                         e2 + u_full - m * (m - 1) // 2, walls, g))
    return terms


@pytest.mark.parametrize("g", [2, 3, 8])
def test_classical_terms_match_fraction_walls(g):
    """The composition sums, whose walls carry integer numerators over r
    (type A) or 2 (types B, C and D), against the same sums with walls
    <x> = frac_rep(Fraction(...)) and exponents summed in Fractions, for
    every rank <= 6 and every degree."""
    for r in range(1, 7):
        for d in range(r):
            assert _merged(_gl_terms(r, d, g)) == _merged(_reference_gl_terms(r, d, g))
            assert (_merged(_gl_terms(r, d, g, abelian_drop=1))
                    == _merged(_reference_gl_terms(r, d, g, abelian_drop=1)))
        assert _merged(_bc_terms(r, None, g, 1)) == _merged(_reference_bc_terms(r, None, g, 1))
        for d in (0, 1):
            assert (_merged(_bc_terms(r, d % 2 or 2, g, 0))
                    == _merged(_reference_bc_terms(r, frac_rep(Fraction(d, 2)), g, 0)))
            if r >= 2:
                assert (_merged(_so_even_terms(r, d, g))
                        == _merged(_reference_so_even_terms(r, d, g)))


def test_levi_record_is_cached():
    datum = build_root_system(parse_group("SO8"))
    for I in _subsets(datum.num_simple):
        assert datum.levi(I) is datum.levi(I) is datum.levi(tuple(reversed(I)))
    assert datum.levis() is datum.levis()


@pytest.mark.parametrize("name", GROUPS)
def test_full_levi_is_the_datum_itself(name):
    """The Levi of I = () is the group: its sub-datum has the group's data
    and its record the group's center, exponents and no nilradical, for
    the group and for each of its Levis."""
    datum = build_root_system(parse_group(name))
    for d in [datum] + [datum.sub_datum(datum.complement(L.I)) for L in datum.levis()]:
        assert _same_datum(d.sub_datum(range(d.num_simple)), d)
        assert d.levi(()) == LeviDatum((), d.dim_z, d.exponent_list(), 0,
                                       (0,) * d.num_simple)


@pytest.mark.parametrize("name", ["GL8", "Sp6", "SO12", "GL10"])
def test_records_match_reference_at_benchmark_ranks(name):
    """The records summed from the Dynkin components agree with the scan
    reference on the groups and ranks of the benchmark's closed formula,
    and on GL10."""
    datum = build_root_system(parse_group(name))
    _check_records(datum, datum)


def test_levis_scan_the_roots_once_per_component(monkeypatch):
    """levis() of GL8 scans the table of positive roots once per connected
    component it meets, the 7 * 8 / 2 = 28 intervals of the A7 diagram,
    not once per parabolic subset (128)."""
    datum = build_root_system.__wrapped__(parse_group("GL8"))  # a fresh datum
    datum._roots()
    scans = []
    roots = RootDatum._roots
    monkeypatch.setattr(RootDatum, "_roots", lambda self: scans.append(self) or roots(self))
    datum.levis()
    assert scans == [datum] * 28
    intervals = {(1 << j) - (1 << i) for i in range(7) for j in range(i + 1, 8)}
    assert {key[1] for key in datum._cache if key[0] == "component"} == intervals


@pytest.mark.parametrize("name", ["GL8", "Sp6", "SO12"])
def test_closed_formula_builds_no_levi_datum(name, monkeypatch):
    """The closed formula reads only the records: on a fresh datum it builds
    no root datum besides the group's own (2^rank of them before the
    records were read off the table)."""
    built = []
    init = RootDatum.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RootDatum, "__init__", counting)
    datum = build_root_system.__wrapped__(parse_group(name))  # a fresh datum
    closed_terms(datum, datum.fund_residues(datum.lift_degree(degrees_of(datum.spec)[-1])), 2)
    assert built == [datum]


@pytest.mark.parametrize("bad", [(0, 0), (-1,), (2,), (5,), (1, 1, 0)])
def test_malformed_index_sets_are_rejected(bad):
    """Parabolic and Levi index sets must be distinct simple-root indices:
    on GL3, (0, 0) would alias (0,), -1 would read alpha_1 and 5 would fail
    with an IndexError.  A rejected call caches nothing."""
    datum = build_root_system.__wrapped__(parse_group("GL3"))  # a fresh datum
    datum.levis()
    keys = set(datum._cache)
    for method in (datum.levi, datum.sub_datum, datum.two_rho_pairings):
        with pytest.raises(ValueError):
            method(bad)
    with pytest.raises(ValueError):
        datum.project_to_center(bad, (1, 0, 0))
    assert set(datum._cache) == keys


def test_malformed_index_sets_are_rejected_by_a_levi():
    """A Levi sub-datum checks indices against its own simple roots, and its
    own Levis have the data of the group's."""
    datum = build_root_system(parse_group("GL4"))
    levi = datum.sub_datum((0, 2))
    for bad in [(2,), (-1,), (0, 0)]:
        for method in (levi.levi, levi.sub_datum):
            with pytest.raises(ValueError):
                method(bad)
    assert _same_datum(levi.sub_datum((1,)), datum.sub_datum((2,)))
    L = datum.levi((1,))
    assert datum.n == levi.n and L.dim_z == levi.dim_z == 2
    assert L.exponents == levi.exponent_list()


def _lifts(datum, X0, I, reach=2):
    """X0 + sum over a in I of n_a alpha_a^vee, every |n_a| <= reach."""
    for n in product(range(-reach, reach + 1), repeat=len(I)):
        X = list(X0)
        for na, a in zip(n, I):
            X = [x + na * c for x, c in zip(X, datum.simple_coroots[a])]
        yield tuple(X)


@pytest.mark.parametrize("name", GROUPS)
def test_levi_terms_from_group_records_match_sub_datum(name):
    """A Levi's closed formula read off the group's own records by its wall
    set I, with <varpi^{L^I}> from the group's Levi Cartan block, equals the
    one computed on the Levi's own sub-datum: for every I, every lift
    X0 + sum n_a alpha_a^vee with |n_a| <= 2, and g = 2, 3."""
    datum = build_root_system(parse_group(name))
    X0 = datum.lift_degree(degrees_of(datum.spec)[-1])
    for L in datum.levis():
        # 2 rho of the nilradical is a character of L^I: it pairs to zero
        # with the Levi's simple coroots
        assert all(L.sums[b] == 0 for b in datum.complement(L.I))
        levi = datum.sub_datum(datum.complement(L.I))
        for X in _lifts(datum, X0, L.I):
            residues = datum.fund_residues(X, L.I)
            assert residues == levi.fund_residues(X)
            for g in (2, 3):
                assert (closed_terms(datum, residues, g, I=L.I)
                        == closed_terms(levi, residues, g))


def test_verify_recursion_builds_no_root_datum(monkeypatch):
    """verify_recursion reads every stratum's Levi terms off the group's
    records: on a fresh datum it builds no root datum at all, though it
    reaches strata with one, two and three walls."""
    build_root_system.cache_clear()
    spec = parse_group("GL3xSO5")
    build_root_system(spec)  # the fresh group datum, built before counting
    built = []
    init = RootDatum.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RootDatum, "__init__", counting)
    rep = verify_recursion(spec, (1, 0), 2, 30)
    assert rep.match and rep.strata
    assert {len(hn.I) for hn in enumerate_hn_types(spec, (1, 0), 2, 15)} == {1, 2, 3}
    assert built == []


def test_levi_keys_accept_any_iterable():
    """The Levi Cartan block and the Levi templates are keyed by the sorted
    tuple of I, so a list or an unsorted I reads the same cached entry."""
    datum = build_root_system(parse_group("SO7"))
    X = datum.lift_degree(1)
    assert datum.fund_residues(X, [0]) == datum.fund_residues(X, (0,))
    assert datum._cartan_block([2, 0]) is datum._cartan_block((0, 2))
    residues = datum.fund_residues(X, (0, 2))
    assert (closed_terms(datum, residues, 2, I=[2, 0])
            == closed_terms(datum, residues, 2, I=(0, 2)))
    assert datum.project_to_center([2, 0], X) == datum.project_to_center((0, 2), X)


@pytest.mark.parametrize("name", ["GL8", "Sp6", "SO12", "GL3xSO5"])
def test_a_parts_run_once_per_levi_type(monkeypatch, name):
    """The group's templates compute the parts of a(L) once per Levi type
    (dim Z, exponents), not once per parabolic subset."""
    build_root_system.cache_clear()
    datum = build_root_system(parse_group(name))
    calls = []
    real = formulas._a_parts
    monkeypatch.setattr(formulas, "_a_parts", lambda *a: calls.append(a) or real(*a))
    _templates(datum, 2)
    assert len(calls) == len({(L.dim_z, L.exponents) for L in datum.levis()})


def test_levi_templates_share_the_group_numerators(monkeypatch):
    """Every template reads the parts of a(L^{I u J}) from the datum's one
    table per genus, keyed by Levi type, so the template of J in L^I shares
    the numerator tuple of the group's own template of I u J, L^I's
    templates compute no a(L) parts once the group's are built, and the two
    dens differ only in their walls: G's at I u J against those of J in
    L^I."""
    build_root_system.cache_clear()
    datum = build_root_system(parse_group("GL3xSO5"))
    own = _templates(datum, 2)
    calls = []
    real = formulas._a_parts
    monkeypatch.setattr(formulas, "_a_parts", lambda *a: calls.append(a) or real(*a))
    for L in datum.levis()[1:]:
        mask = sum(1 << a for a in L.I)
        keep = datum.complement(L.I)
        for jmask, (_, _, numf, den, walls) in enumerate(_templates(datum, 2, L.I)):
            K = mask | sum(1 << b for p, b in enumerate(keep) if jmask >> p & 1)
            assert numf is own[K][2]
            assert Counter(den) + Counter(r for _, r in own[K][4]) == Counter(
                own[K][3]) + Counter(r for _, r in walls)
    assert calls == []


def _cartan_reads(spec, d, mutate):
    """What a fresh datum of spec reads off its Cartan rows, after the list
    that cartan_matrix() returned first was overwritten when mutate is set."""
    build_root_system.cache_clear()
    datum = build_root_system(spec)
    A = datum.cartan_matrix()
    if mutate:
        for row in A:
            row[:] = [7] * len(row)
        A.append([0])
    X = datum.lift_degree(d)
    return (datum.fund_residues(X), datum.fund_residues(X, (1,)), datum._cartan_block((0, 2)),
            enumerate_hn_types(spec, d, 2, 12), datum.cartan_matrix())


def test_cartan_rows_are_not_shared_with_callers():
    """cartan_matrix() returns a new list of lists: overwriting it leaves
    the cached rows, and so fund_residues, the Levi blocks and the HN
    enumeration, as they are."""
    spec = parse_group("GL2xSO5")
    assert _cartan_reads(spec, (1, 1), True) == _cartan_reads(spec, (1, 1), False)
