"""The mutation matrix: what the certificates catch.

Each row breaks one piece of the mathematics by monkeypatching, from a
cleared ``build_root_system`` cache (the root data carry the a(L) parts
and the templates, so a break applied after a warm call would reach only
the routes that build afresh), and records:

- the number of failing checks per suite of ``verify --suite all
  --max-rank 4 --genus-list 2,3 --order 20``;
- the exit code of ``verify --suite all`` at its defaults (rank <= 3);
- ``compute``'s exit code on the GL3 d=1 semistable stack and moduli
  space and the Sp3 semistable stack, and whether the printed series
  changed.

A row is defined by what it does to a(L), to a wall, an exponent, a
residue, a codimension, a sign or a band letter, never by the layout of
the factor tuples, so one catalogue holds for any layout of the
numerators.  A row under which the default ``verify`` passes
and ``compute`` prints a changed series with exit 0 is an escape; the
escapes are named in ``ESCAPES``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from operator import add, sub

import pytest

from hodge_series import cli, formulas, recursion
from hodge_series.rootdata import RootDatum, build_root_system

VERIFY = ["verify", "--suite", "all", "--max-rank", "4", "--genus-list", "2,3",
          "--order", "20", "--format", "json"]
DEFAULT_VERIFY = ["verify", "--suite", "all"]

COMPUTE = {
    "GL3 semistable": ["compute", "--group", "GL3", "--degree", "1", "--what", "semistable"],
    "GL3 moduli": ["compute", "--group", "GL3", "--degree", "1", "--what", "moduli"],
    "Sp3 semistable": ["compute", "--group", "Sp3", "--what", "semistable"],
}

ABELIAN = ((1, 0), (0, 1))


def _wrap_a_parts(monkeypatch, change):
    """Replace a(L)'s parts by change(m, nonab_exps, g, numf, den), which
    returns new ones."""
    real = formulas._a_parts

    def a_parts(m, nonab_exps, g):
        numf, den = real(m, nonab_exps, g)
        return change(m, nonab_exps, g, numf, dict(den))

    monkeypatch.setattr(formulas, "_a_parts", a_parts)


def m1(monkeypatch):
    """Every non-abelian factor (1 + u^d v^(d-1))^g of a(L) to the power
    g + 1: each factor's exponent e, a multiple of g, gains e // g."""
    _wrap_a_parts(monkeypatch, lambda m, exps, g, numf, den: (tuple(
        (a, b, e if (a, b) in ABELIAN else e + e // g) for a, b, e in numf), den))


def m2(monkeypatch):
    """The abelian factor (1 + u)^(g m) of a(L) to the power g m + 1."""
    _wrap_a_parts(monkeypatch, lambda m, exps, g, numf, den: (tuple(
        (a, b, e + 1 if (a, b) == (1, 0) else e) for a, b, e in numf), den))


def m3(monkeypatch):
    """One more factor 1 - w^k in a(L), k its largest exponent."""
    def change(m, exps, g, numf, den):
        if den:
            den[max(den)] += 1
        return numf, den

    _wrap_a_parts(monkeypatch, change)


def m5(monkeypatch):
    """(1 + u^4 v^3)^g to the power g + 1 per exponent 4, only in a(L) of
    Levis with an exponent 4 and none 3 (types B, C and D)."""
    def change(m, exps, g, numf, den):
        if 4 in exps and 3 not in exps:
            numf = tuple((a, b, e + e // g if (a, b) == (4, 3) else e)
                         for a, b, e in numf)
        return numf, den

    _wrap_a_parts(monkeypatch, change)


def exp(monkeypatch):
    """Every w-exponent of a term one too high from 12 on."""
    real = formulas._exponent

    def exponent(x, D):
        q = real(x, D)
        return q + 1 if q >= 12 else q

    monkeypatch.setattr(formulas, "_exponent", exponent)


def wall(monkeypatch):
    """The first wall factor 1 - w^r of every closed-formula template with
    a wall doubled."""
    real = formulas._templates

    def templates(datum, g, I=()):
        out = []
        for sign, base, numf, den, walls in real(datum, g, I):
            if walls:
                den = dict(den)
                den[walls[0][1]] += 1
            out.append((sign, base, numf, den, walls))
        return tuple(out)

    monkeypatch.setattr(formulas, "_templates", templates)


def _shift_n0(monkeypatch, step):
    real = RootDatum.fund_residues

    def fund_residues(self, X, parabolic_indices=()):
        D, nums = real(self, X, parabolic_indices)
        return D, nums[:1] and (nums[0] + step,) + nums[1:]

    monkeypatch.setattr(RootDatum, "fund_residues", fund_residues)


def res(monkeypatch):
    """The numerator n_0 of <varpi_0(d)> = n_0 / D one too low."""
    _shift_n0(monkeypatch, -1)


def res_up(monkeypatch):
    """The numerator n_0 of <varpi_0(d)> = n_0 / D one too high.  The good
    case GL2 d=1 turns bad, so the moduli checks that ``verify`` chose for
    a good case fail with ``NotGoodCase`` as their error, and the GL3 d=1
    moduli space exits 3."""
    _shift_n0(monkeypatch, 1)


def bc_exps(monkeypatch):
    """The last exponent of SO_{2m+1} and Sp_m, m > 1, one too high in the
    composition sums alone."""
    real = formulas._bc_exps
    monkeypatch.setattr(formulas, "_bc_exps", lambda m: (
        real(m)[:-1] + (real(m)[-1] + 1,) if m > 1 else real(m)))


def codim(monkeypatch):
    """Every nonsemistable stratum's codimension one too high."""
    real = recursion.enumerate_hn_types
    monkeypatch.setattr(recursion, "enumerate_hn_types", lambda *args: [
        t._replace(codim=t.codim + 1) for t in real(*args)])


def sign(monkeypatch):
    """The sign of the last template (J = Delta - I, every wall) of each
    closed formula with a wall negated."""
    real = formulas._templates

    def templates(datum, g, I=()):
        out = real(datum, g, I)
        if len(out) > 1:
            s, base, numf, den, walls = out[-1]
            out = out[:-1] + ((-s, base, numf, den, walls),)
        return out

    monkeypatch.setattr(formulas, "_templates", templates)


def letter(monkeypatch):
    """The band letter of 1 + u, the only one with shift 1 and a plus sign,
    applied as 1 - u."""
    real = formulas._times_binomial
    monkeypatch.setattr(formulas, "_times_binomial", lambda X, shift, e, op, cap, B: real(
        X, shift, e, sub if shift == 1 and op is add else op, cap, B))


def jacobian(monkeypatch):
    """The Jacobian factor (1 + u)^g (1 + v)^g of the fixed-det certificate
    to the power g + 1: the lifted abelian pair's exponent one too high."""
    real = formulas._jacobian_lift

    def lift(t, g, coef=1):
        out = real(t, g, coef)
        (a, b, e), (c, d, f), *rest = out.numfactors
        return out._replace(numfactors=((a, b, e + 1), (c, d, f + 1), *rest))

    monkeypatch.setattr(formulas, "_jacobian_lift", lift)


def _suite(name):
    first = name.split()[0]
    return first if first in ("recursion", "classical", "good-case") else "corollaries"


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _readings():
    """(failing checks per suite, the default verify's exit code, {compute
    case: (exit code, stdout)})."""
    build_root_system.cache_clear()
    code, out = _main(VERIFY)
    fails = dict.fromkeys(("recursion", "classical", "good-case", "corollaries"), 0)
    for check in json.loads(out)["checks"]:
        if not check["pass"]:
            fails[_suite(check["name"])] += 1
    assert code == (1 if any(fails.values()) else 0)
    default, _ = _main(DEFAULT_VERIFY)
    computed = {case: _main(argv) for case, argv in COMPUTE.items()}
    build_root_system.cache_clear()
    return fails, default, computed


@pytest.fixture(scope="module")
def clean():
    return _readings()


#: row -> (failing checks of recursion, classical, good-case and
#: corollaries; the default verify's exit code; per ``COMPUTE`` case, its
#: exit code and whether its stdout changed)
MATRIX = {
    m1: ((0, 0, 0, 20), 1, ((0, True), (1, True), (0, True))),
    m2: ((0, 0, 0, 20), 1, ((0, True), (1, True), (0, True))),
    m3: ((0, 0, 0, 20), 1, ((0, True), (1, True), (0, True))),
    m5: ((0, 0, 0, 0), 0, ((0, False), (0, False), (0, True))),
    exp: ((0, 0, 0, 4), 0, ((0, False), (0, False), (0, True))),
    wall: ((31, 60, 0, 20), 1, ((0, True), (1, True), (0, True))),
    res: ((60, 60, 2, 24), 1, ((1, True), (1, True), (1, True))),
    res_up: ((60, 60, 5, 26), 1, ((1, True), (3, True), (1, True))),
    bc_exps: ((0, 18, 0, 0), 1, ((0, False), (0, False), (0, False))),
    codim: ((48, 0, 0, 0), 1, ((0, False), (0, False), (0, False))),
    sign: ((22, 60, 0, 20), 1, ((0, True), (1, True), (0, True))),
    letter: ((0, 0, 0, 26), 1, ((0, True), (1, True), (0, True))),
    jacobian: ((0, 0, 0, 20), 1, ((0, False), (0, False), (0, False))),
}

#: rows under which the default verify passes and a ``compute`` case prints
#: a changed series with exit 0
ESCAPES = ["m5", "exp"]


def test_clean_run_passes(clean):
    fails, default, computed = clean
    assert not any(fails.values()) and default == 0
    assert [code for code, _ in computed.values()] == [0] * len(COMPUTE)


@pytest.mark.parametrize("mutation", list(MATRIX), ids=lambda f: f.__name__)
def test_matrix_row(monkeypatch, clean, mutation):
    mutation(monkeypatch)
    try:
        fails, default, computed = _readings()
    finally:
        monkeypatch.undo()
        build_root_system.cache_clear()
    assert (tuple(fails.values()), default, tuple(
        (code, out != clean[2][case][1]) for case, (code, out) in computed.items())
    ) == MATRIX[mutation]


def test_escapes_are_named():
    assert [f.__name__ for f, (_, default, computed) in MATRIX.items()
            if default == 0 and (0, True) in computed] == ESCAPES
