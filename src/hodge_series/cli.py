"""Command-line interface: compute series, verify identities, specialize.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 formula
precondition failure.  A certificate that fails while a result is built,
or an exponent or codimension that comes out non-integral
(``CERTIFICATE_FAILURES``), is a verification failure: ``compute`` and
``specialize`` exit 1 with one line on stderr, and ``verify`` marks the
check FAIL and runs the rest.  ``verify`` chooses its own parameters, so a
precondition that fails inside one of its checks (``PRECONDITION_FAILURES``)
means the library disagrees with itself: that check fails too.  All
numeric output is exact; big integers are printed as decimal strings in
JSON.  Identical invocations print identical bytes.
Each command returns its exit code with its text, which main prints, so a
reader closing the pipe early changes neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from math import gcd
from time import perf_counter

from . import formulas, recursion
from .formulas import FactorizationFailed, NotCoprime, NotGoodCase
from .ratfun import (BivarPoly, NotPolynomialWithinBound, RatFun1, RatFun2,
                     UniPoly, ZeroDenominatorAfterSubstitution)
from .recursion import NonIntegralCodim
from .rootdata import (GroupSpec, NonIntegralExponent, build_root_system,
                       classical_factors, degrees_of, good_case, parse_degree,
                       parse_group, parse_int)


class UsageError(ValueError):
    pass


#: a certified result whose certificate failed, or a w-exponent or
#: stratum codimension that must be an integer and is not
CERTIFICATE_FAILURES = (FactorizationFailed, NotPolynomialWithinBound,
                        NonIntegralExponent, NonIntegralCodim)

#: a formula asked for outside its scope: the good case, coprime rank and
#: degree, or a point where the denominator does not vanish
PRECONDITION_FAILURES = (NotGoodCase, NotCoprime, ZeroDenominatorAfterSubstitution)


def _parse_spec_degree(args, need_degree=True):
    try:
        spec = parse_group(args.group)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not need_degree:
        return spec, None
    raw = args.degree if args.degree is not None else ",".join(
        "0" for _ in spec.factors)
    try:
        d = parse_degree(raw, spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    return spec, d


def _single_gl(spec, d):
    if len(spec.factors) != 1 or spec.factors[0][0] != "GL":
        raise UsageError("fixed-det requires a single GL factor")
    return spec.factors[0][1], d[0]


def _compute_object(args):
    # --degree is optional for classifying, but checked whenever it is given
    spec, d = _parse_spec_degree(
        args, need_degree=args.what != "classifying" or args.degree is not None)
    if args.what == "classifying":
        return spec, None, formulas.hp_classifying(spec)
    g = args.genus
    _check_genera([g], "--genus")
    if args.what == "stack":
        return spec, d, formulas.a_series(spec, g)
    if args.what == "semistable":
        return spec, d, formulas.hp_semistable_closed(spec, d, g)
    if args.what == "moduli":
        ms = formulas.hp_moduli_space(spec, d, g)
        datum = build_root_system(spec)
        dim_g = datum.n + 2 * len(datum.pos_roots)
        bound = 2 * ((g - 1) * dim_g + datum.dim_z)
        return spec, d, formulas.to_polynomial(ms, bound)
    if args.what == "fixed-det":
        return spec, d, formulas.hp_moduli_fixed_det(*_single_gl(spec, d), g)
    raise UsageError("unknown --what %r" % (args.what,))


def _uni_json(p: UniPoly):
    return [[d, str(c)] for d, c in sorted(p.terms.items())]


def cmd_compute(args):
    if args.expand is not None and args.expand < 0:
        raise UsageError("--expand must be non-negative")
    spec, d, obj = _compute_object(args)
    expansion = None
    if args.expand is not None:
        r2 = obj if isinstance(obj, RatFun2) else RatFun2(obj)
        expansion = r2.expand(args.expand)
    if args.format == "json":
        import json

        out = {"group": str(spec), "what": args.what}
        if d is not None:
            out["degree"] = list(d)
        if args.what != "classifying":
            out["genus"] = args.genus
        if isinstance(obj, BivarPoly):
            out["polynomial"] = obj.json_terms()
        else:
            out["num"] = obj.num.json_terms()
            out["den"] = obj.den.json_terms()
        if expansion is not None:
            out["expansion"] = expansion.json_obj()
        return 0, json.dumps(out, sort_keys=True)
    if args.format == "latex":
        lines = [obj.latex()]
        if expansion is not None:
            lines.append(BivarPoly(expansion.coeffs).latex()
                         + " + O(\\deg %d)" % (expansion.order + 1))
    else:
        lines = [str(obj)]
        if expansion is not None:
            lines.append(str(expansion))
    return 0, "\n".join(lines)


def cmd_specialize(args):
    spec, d, obj = _compute_object(args)
    kind = args.at.replace("-", "_")
    value = formulas.specialize(obj, kind)
    if args.format == "json":
        import json

        out = {"group": str(spec), "what": args.what, "at": args.at}
        if d is not None:
            out["degree"] = list(d)
        out["genus"] = args.genus
        if isinstance(value, RatFun1):
            out["num_t"] = _uni_json(value.num)
            out["den_t"] = _uni_json(value.den)
        elif isinstance(value, UniPoly):
            out["value_t"] = _uni_json(value)
        else:
            out["value"] = str(value)
        return 0, json.dumps(out, sort_keys=True)
    return 0, str(value)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _classical_grid(max_rank, genus_list):
    """(factor, spec, degree, genus) for every classical factor up to
    max_rank (``rootdata.classical_factors``), each of its degrees and each
    genus, in that nesting: the grid both classical suites walk."""
    for factor in classical_factors(max_rank):
        spec = GroupSpec((factor,))
        for d in degrees_of(spec):
            for g in genus_list:
                yield factor, spec, d, g


def _recursion_checks(max_rank, genus_list, order):
    return [("recursion %s d=%s g=%d N=%d" % (spec, d, g, order),
             lambda spec=spec, d=d, g=g: recursion.verify_recursion(spec, d, g, order))
            for _, spec, d, g in _classical_grid(max_rank, genus_list)]


def _classical_check(fam, r, d, g):
    """The composition sum's terms and the closed formula's, negated, summed
    exactly once (``formulas.classical_difference_terms``): the check passes
    when the sum is zero as a rational function, at every rank.  Both sides
    carry canonical numerators, so equal terms cancel in their groups'
    cofactors before any band is formed."""
    terms = formulas.classical_difference_terms(fam, r, d, g)
    return formulas.assemble_exact(terms).num.is_zero()


def _classical_checks(max_rank, genus_list):
    """Composition sum against closed formula, per classical factor, degree
    and genus (``_classical_check``)."""
    return [("classical %s d=%s g=%d" % (spec, d, g),
             lambda fam=fam, r=r, d=d, g=g: _classical_check(fam, r, d[0], g))
            for (fam, r), spec, d, g in _classical_grid(max_rank, genus_list)]


def _good_case_checks(max_rank):
    checks = []
    for r in range(1, max_rank + 1):
        for d in range(r):
            name = "good-case GL%d d=%d == coprimality" % (r, d)
            checks.append((name, lambda r=r, d=d:
                           good_case(GroupSpec((("GL", r),)), (d,)) == (gcd(r, d) == 1)))
    for fam in ("SL", "Sp"):
        name = "good-case %s2 trivial degree is False" % fam
        checks.append((name, lambda fam=fam:
                       not good_case(GroupSpec(((fam, 2),)), (0,))))
    return checks


def _corollary_checks(max_rank, genus_list):
    checks = []
    polys = {}  # (r, d, g) -> fixed-det polynomial, shared by chi and eu

    def fixed_det(r, d, g):
        if (r, d, g) not in polys:
            polys[r, d, g] = formulas.hp_moduli_fixed_det(r, d, g)
        return polys[r, d, g]

    for r in range(2, max_rank + 1):
        for d in range(1, r + 1):
            if gcd(r, d) != 1:
                continue
            for g in genus_list:

                def chi(r=r, d=d, g=g):
                    p = fixed_det(r, d, g)
                    return formulas.specialize(p, "chi_t") == \
                        formulas.chi_t_fixed_det_formula(r, g)

                def eu(r=r, d=d, g=g):
                    p = fixed_det(r, d, g)
                    return formulas.specialize(p, "euler") == 0 and \
                        formulas.specialize(p, "signature") == 0

                checks.append(("chi_t fixed-det GL%d d=%d g=%d" % (r, d, g), chi))
                checks.append(("euler+signature GL%d d=%d g=%d" % (r, d, g), eu))
    for r in range(2, max_rank + 1):
        for g in genus_list:
            d = 1

            def chi0(r=r, d=d, g=g):
                val = formulas.specialize(
                    formulas.hp_moduli_space(GroupSpec((("GL", r),)), (d,), g),
                    "chi_t")
                return val.num.is_zero()

            checks.append(("chi_t moduli GL%d d=%d g=%d == 0" % (r, d, g), chi0))
    return checks


def _outcome(result):
    """(pass, extra JSON fields) of a check's return value; a recursion
    report also carries its stratum count and first mismatch."""
    if isinstance(result, recursion.RecursionReport):
        mm = result.first_mismatch
        return result.match, {
            "strata": result.strata,
            "first_mismatch": None if mm is None
            else [mm[0], mm[1], str(mm[2]), str(mm[3])]}
    return bool(result), {}


def _run_checks(checks):
    """(pass, extra JSON fields) per check; the fields include wall_s, the
    wall seconds of the check's own call.  Work cached by an earlier check
    (root data, Levi tables, the corollaries' shared fixed-det
    polynomial) is charged to the check that first did it.  A check whose
    certificate or precondition fails on the way fails, with the reason as
    its error."""
    outcomes = []
    for _, fn in checks:
        start = perf_counter()
        try:
            ok, extra = _outcome(fn())
        except CERTIFICATE_FAILURES + PRECONDITION_FAILURES as exc:
            ok, extra = False, {"error": str(exc)}
        extra["wall_s"] = perf_counter() - start
        outcomes.append((ok, extra))
    return outcomes


#: genus cap of the command line; coefficient sizes grow binomially in g
GENUS_CAP = 8


def _check_genera(genera, flag):
    """Reject a genus outside 2..GENUS_CAP.  The library takes any g >= 2;
    the cap keeps command-line runs short."""
    for g in genera:
        if not 2 <= g <= GENUS_CAP:
            raise UsageError("%s: genus %d is outside 2..%d"
                             % (flag, g, GENUS_CAP))


def _parse_genus_list(text):
    try:
        genus_list = [parse_int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("--genus-list must be comma-separated integers, got %r"
                         % (text,))
    if len(set(genus_list)) != len(genus_list):
        raise UsageError("--genus-list names a genus twice: %r" % (text,))
    _check_genera(genus_list, "--genus-list")
    return genus_list


def cmd_verify(args):
    genus_list = _parse_genus_list(args.genus_list)
    if args.max_rank < 1:
        raise UsageError("--max-rank must be at least 1")
    if args.order < 0:
        raise UsageError("--order must be non-negative")
    suites = {}
    if args.suite in ("recursion", "all"):
        suites["recursion"] = _recursion_checks(args.max_rank, genus_list, args.order)
    if args.suite in ("classical", "all"):
        suites["classical"] = _classical_checks(args.max_rank, genus_list)
    if args.suite in ("good-case", "all"):
        suites["good-case"] = _good_case_checks(args.max_rank)
    if args.suite in ("corollaries", "all"):
        suites["corollaries"] = _corollary_checks(args.max_rank, genus_list)
    if not suites:
        raise UsageError("unknown suite %r" % (args.suite,))
    all_checks = [c for suite in suites.values() for c in suite]
    if not all_checks:
        raise UsageError("suite %r has no checks up to --max-rank %d"
                         % (args.suite, args.max_rank))
    outcomes = _run_checks(all_checks)
    results = [ok for ok, _ in outcomes]
    code = 0 if all(results) else 1
    if args.format == "json":
        import json

        out = {"suite": args.suite,
               "checks": [{"name": n, "pass": ok, **extra}
                          for (n, _), (ok, extra) in zip(all_checks, outcomes)],
               "all_pass": all(results)}
        return code, json.dumps(out, sort_keys=True)
    lines = ["%s %s" % ("PASS" if ok else "FAIL", name)
             for (name, _), ok in zip(all_checks, results)]
    lines.append("%d/%d checks passed" % (sum(results), len(results)))
    return code, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_option(text):
    """The type of the numeric options: an ASCII decimal integer
    (``parse_int``), where ``int`` would also read 1_0 or other scripts'
    digits."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: main parses each argv with it, and parsing leaves it as it
    was."""
    parser = argparse.ArgumentParser(
        prog="hodge-series",
        description="Exact two-variable series for moduli of principal "
                    "bundles on a curve of genus g >= 2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--group", required=True,
                       help="e.g. GL3, SL2, SO5, SO8, Sp2, GL2xSO5")
        p.add_argument("--degree", default=None,
                       help="comma-separated, one entry per factor")
        p.add_argument("--genus", type=_int_option, default=2)
        p.add_argument("--format", choices=formats, default="plain")

    pc = sub.add_parser("compute", help="print a series as a rational function")
    common(pc, ("plain", "json", "latex"))
    pc.add_argument("--what", required=True,
                    choices=("stack", "semistable", "moduli", "fixed-det",
                             "classifying"))
    pc.add_argument("--expand", type=_int_option, default=None, metavar="N",
                    help="also print the truncated expansion")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run identity verification suites")
    pv.add_argument("--suite", required=True,
                    choices=("recursion", "classical", "good-case",
                             "corollaries", "all"))
    pv.add_argument("--max-rank", type=_int_option, default=3)
    pv.add_argument("--genus-list", default="2,3")
    pv.add_argument("--order", type=_int_option, default=20,
                    help="total degree of the recursion checks; the classical "
                         "checks are exact at every rank")
    pv.add_argument("--format", choices=("plain", "json"), default="plain")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("specialize", help="specialize a series")
    common(ps, ("plain", "json"))
    ps.add_argument("--what", required=True,
                    choices=("stack", "semistable", "moduli", "fixed-det"))
    ps.add_argument("--at", required=True,
                    choices=("poincare", "chi-t", "euler", "signature"))
    ps.set_defaults(func=cmd_specialize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code, text = args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except CERTIFICATE_FAILURES as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1
    except PRECONDITION_FAILURES + (ValueError,) as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; send what is still buffered to
        # the null device so the interpreter's exit-time flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
