"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hodge_series.cli import build_parser, main
from hodge_series.formulas import chi_t_fixed_det_formula


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_classifying_sl2(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "SL2",
                           "--what", "classifying")
        assert code == 0
        assert out.strip() == "(1) / (1 - u^2*v^2)"

    def test_fixed_det_plain(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "GL2", "--degree", "1",
                           "--genus", "2", "--what", "fixed-det")
        assert code == 0
        assert out.strip() == "1 + u*v + 2*u*v^2 + 2*u^2*v + u^2*v^2 + u^3*v^3"

    def test_semistable_expansion(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "GL1", "--degree", "0",
                           "--genus", "2", "--what", "semistable",
                           "--expand", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        coeffs = {(i, j): int(c) for i, j, c in obj["expansion"]["coeffs"]}
        assert coeffs == {(0, 0): 1, (1, 0): 2, (0, 1): 2,
                          (2, 0): 1, (1, 1): 5, (0, 2): 1}

    def test_json_round_trip(self, capsys):
        from hodge_series.ratfun import BivarPoly

        code, out, _ = run(capsys, "compute", "--group", "SO5", "--degree", "1",
                           "--genus", "2", "--what", "semistable",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        num = BivarPoly({(i, j): int(c) for i, j, c in obj["num"]})
        den = BivarPoly({(i, j): int(c) for i, j, c in obj["den"]})
        assert num.json_terms() == obj["num"]
        assert den.json_terms() == obj["den"]

    def test_deterministic_output(self, capsys):
        a = run(capsys, "compute", "--group", "Sp2", "--degree", "0",
                "--genus", "2", "--what", "semistable", "--format", "json")
        b = run(capsys, "compute", "--group", "Sp2", "--degree", "0",
                "--genus", "2", "--what", "semistable", "--format", "json")
        assert a == b

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "SL2",
                           "--what", "classifying", "--format", "latex")
        assert code == 0
        assert out.strip() == "\\frac{1}{1 - u^{2}v^{2}}"

    def test_moduli_not_good_case_exit_3(self, capsys):
        code, _, err = run(capsys, "compute", "--group", "GL2", "--degree", "0",
                           "--genus", "2", "--what", "moduli")
        assert code == 3
        assert "precondition" in err

    def test_moduli_plain_is_polynomial(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "GL2", "--degree", "1",
                           "--genus", "2", "--what", "moduli")
        assert code == 0
        assert "/" not in out
        assert out.startswith("1 + ") and out.strip().endswith(" + u^5*v^5")

    @pytest.mark.parametrize("group,degree", [("GL2", 10), ("SO3", 6)])
    def test_moduli_json_polynomial(self, capsys, group, degree):
        # total degree 2 ((g-1) dim G + dim Z)
        code, out, _ = run(capsys, "compute", "--group", group, "--degree", "1",
                           "--genus", "2", "--what", "moduli", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert "num" not in obj and "den" not in obj
        assert max(i + j for i, j, _ in obj["polynomial"]) == degree

    def test_bad_group_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--group", "E8",
                           "--what", "semistable")
        assert code == 2

    def test_bad_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--group", "GL2",
                         "--what", "nonsense")
        assert code == 2

    def test_classifying_bad_degree_exit_2(self, capsys):
        code, out, err = run(capsys, "compute", "--group", "SL2",
                             "--what", "classifying", "--degree", "garbage")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_classifying_valid_degree(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "SL2", "--degree", "0",
                           "--what", "classifying", "--format", "json")
        assert code == 0
        assert "degree" not in json.loads(out)

    def test_negative_expand_exit_2(self, capsys):
        code, out, err = run(capsys, "compute", "--group", "GL2", "--degree", "1",
                             "--what", "semistable", "--expand", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")


# sha256 of the plain stdout and the exit code; any change to the printed
# bytes shows here
PINNED_OUTPUT = [
    ("GL3 d=1", 0, "a4ca2be429c5e7bea9631a058bbd1cf529814527d8e737366118fc66cd65a4eb",
     ["compute", "--group", "GL3", "--degree", "1", "--genus", "2",
      "--what", "semistable"]),
    ("SO7 d=1", 0, "9c3765e35b56a17acf596da9891b103d088a2a2c92583dfe79e668dedca9fde4",
     ["compute", "--group", "SO7", "--degree", "1", "--genus", "2",
      "--what", "semistable"]),
    ("Sp2", 0, "373f1e5b5b115e7e385acd02316783281fdfd0da04ff6261bff94a1b71b6a2b1",
     ["compute", "--group", "Sp2", "--genus", "2", "--what", "semistable"]),
    ("SO8 d=1", 0, "740cce422d4163814a265589379e9e0d8b2cc1e5cd142c266734770e440acdc2",
     ["compute", "--group", "SO8", "--degree", "1", "--genus", "2",
      "--what", "semistable"]),
    ("GL2xSO5 d=1,1", 0, "c066d1faaac0b22fe4940f6f2ef602b70c7b0508ffe3837da8212a0432a3007e",
     ["compute", "--group", "GL2xSO5", "--degree", "1,1", "--genus", "2",
      "--what", "semistable"]),
    ("SO7 classifying", 0, "41fdd628714e55e06a7b356fb5f0f2351be7bc49ff08059bf557037a9bc1f871",
     ["compute", "--group", "SO7", "--what", "classifying"]),
    ("GL3 stack json", 0, "6314fd081bf46073c1238cb6cc371ec68ae975ee9bb6b1111c7b4e62d39f2f3f",
     ["compute", "--group", "GL3", "--degree", "1", "--genus", "3", "--what", "stack",
      "--expand", "8", "--format", "json"]),
    # specializations of rational functions (not polynomials)
    ("SO7 d=1 chi-t", 0, "f9422bd0242af9d18dde7d11a3b4dea839a57ffda14d45406b188c7c0c5b0489",
     ["specialize", "--group", "SO7", "--degree", "1", "--genus", "2",
      "--what", "semistable", "--at", "chi-t"]),
    # u = -1, v = 1 makes 1 - (uv)^k vanish for even k: the pole survives
    ("SO7 d=1 signature", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     ["specialize", "--group", "SO7", "--degree", "1", "--genus", "2",
      "--what", "semistable", "--at", "signature"]),
    ("GL3 stack chi-t json", 0, "795053814d2d688ce5cda5e5e68b47bcbebfafaa11f9c5ae4aacbe6d8f23745c",
     ["specialize", "--group", "GL3", "--degree", "1", "--what", "stack",
      "--at", "chi-t", "--format", "json"]),
    # polynomials certified by to_polynomial, and the expansion of a polynomial
    ("GL3 d=1 moduli", 0, "c346aa4dd1fa6e5bcfe7b6b874f1029ea4cce95796963b5d8123478b8a129957",
     ["compute", "--group", "GL3", "--degree", "1", "--genus", "2", "--what", "moduli"]),
    ("GL3 d=1 fixed-det json", 0,
     "eff45b0d463e0d624cf088afc918276d922c1fe172532b01a266d12909868a12",
     ["compute", "--group", "GL3", "--degree", "1", "--genus", "3", "--what", "fixed-det",
      "--expand", "6", "--format", "json"]),
    ("GL3 d=1 latex", 0, "b7e9a8193ec8811fde77bb2cbc318624ea9b5ea869b2f311083577e95d5ee919",
     ["compute", "--group", "GL3", "--degree", "1", "--genus", "2",
      "--what", "semistable", "--format", "latex"]),
    # the largest root systems the benchmark prints (perfbench/digests.json)
    ("GL8 d=3", 0, "713e96821031f1274cf1a2d46ad856637ba02fc922ebc72d89af04128ef25a08",
     ["compute", "--group", "GL8", "--degree", "3", "--genus", "2",
      "--what", "semistable"]),
    ("Sp6", 0, "02871932ee0f383351e3716616b18044cbdbcbdd0bc7534560b596a2a81c5954",
     ["compute", "--group", "Sp6", "--genus", "2", "--what", "semistable"]),
    ("SO12 d=1", 0, "a1c0c914db10bdfcf94eff9d69821c80e1695ac0f9e2a0adb09afb13e1e8327e",
     ["compute", "--group", "SO12", "--degree", "1", "--genus", "2",
      "--what", "semistable"]),
    ("GL4 d=1 g=8 fixed-det chi-t", 0,
     "f448e778f247e1ac665be175bc812fdfeec1a1040a7110ae61c3bc28fae16691",
     ["specialize", "--group", "GL4", "--degree", "1", "--genus", "8",
      "--what", "fixed-det", "--at", "chi-t"]),
    # the plain stdout of every verify suite up to rank 4, 162 checks
    ("verify all rank 4", 0, "428cb9e021fc9aeee2548e2a8ae2349908d96ce8977688d588b4c1584383de24",
     ["verify", "--suite", "all", "--max-rank", "4", "--genus-list", "2,3",
      "--order", "20"]),
]


@pytest.mark.parametrize("code,digest,argv", [p[1:] for p in PINNED_OUTPUT],
                         ids=[p[0] for p in PINNED_OUTPUT])
def test_pinned_output(capsys, code, digest, argv):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_pipe_keeps_exit_code_and_stderr_quiet():
    # 68 KB of LaTeX, more than a pipe holds, so the write meets the
    # closed read end
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hodge_series.cli", "compute", "--group", "GL8",
         "--degree", "3", "--what", "semistable", "--format", "latex"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20) == b"\\frac{1 + 2 v + 2 u "
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_one_parser_serves_every_call(capsys):
    """main builds its parser once per process: a usage error, a valid
    compute and the usage error again, run in one process, print what three
    fresh processes print and exit with the same codes."""
    calls = [("compute", "--group", "GL2", "--what", "nonsense"),
             ("compute", "--group", "GL2", "--degree", "1", "--what", "semistable"),
             ("compute", "--group", "GL2", "--what", "nonsense")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "hodge_series.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert fresh[0][0] == 2 and fresh[1][0] == 0
    assert build_parser.cache_info().misses == 1


class TestSpecialize:
    def test_chi_t(self, capsys):
        code, out, _ = run(capsys, "specialize", "--group", "GL2",
                           "--degree", "1", "--genus", "2",
                           "--what", "fixed-det", "--at", "chi-t")
        assert code == 0
        assert out.strip() == "1 + t - t^2 - t^3"

    def test_euler_signature(self, capsys):
        for at in ("euler", "signature"):
            code, out, _ = run(capsys, "specialize", "--group", "GL2",
                               "--degree", "1", "--genus", "2",
                               "--what", "fixed-det", "--at", at)
            assert code == 0
            assert out.strip() == "0"

    def test_poincare_json(self, capsys):
        code, out, _ = run(capsys, "specialize", "--group", "GL1",
                           "--degree", "0", "--genus", "2", "--what", "stack",
                           "--at", "poincare", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["num_t"] == [[0, "1"], [1, "4"], [2, "6"], [3, "4"], [4, "1"]]
        assert obj["den_t"] == [[0, "1"], [2, "-1"]]

    def test_moduli_euler(self, capsys):
        code, out, _ = run(capsys, "specialize", "--group", "GL2", "--degree", "1",
                           "--genus", "2", "--what", "moduli", "--at", "euler")
        assert code == 0
        assert out.strip() == "0"

    def test_not_coprime_exit_3(self, capsys):
        code, _, _ = run(capsys, "specialize", "--group", "GL2", "--degree", "0",
                         "--genus", "2", "--what", "fixed-det", "--at", "chi-t")
        assert code == 3

    def test_latex_rejected_exit_2(self, capsys):
        code, out, _ = run(capsys, "specialize", "--group", "GL2",
                           "--degree", "1", "--genus", "2", "--what", "fixed-det",
                           "--at", "chi-t", "--format", "latex")
        assert code == 2
        assert out == ""

    def test_euler_json_value(self, capsys):
        code, out, _ = run(capsys, "specialize", "--group", "GL3",
                           "--degree", "2", "--genus", "3", "--what", "fixed-det",
                           "--at", "euler", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == "0"
        assert '"value": "0"' in out

    @pytest.mark.parametrize("degree", ["1", "3"])
    def test_genus_8_fixed_det(self, capsys, degree):
        """The largest fixed-det input at the default genus cap: chi_t is the
        closed product formula, Euler number and signature vanish."""
        argv = ["specialize", "--group", "GL4", "--degree", degree, "--genus", "8",
                "--what", "fixed-det", "--at"]
        code, out, _ = run(capsys, *argv, "chi-t")
        assert code == 0
        assert out == str(chi_t_fixed_det_formula(4, 8)) + "\n"
        for at in ("euler", "signature"):
            code, out, _ = run(capsys, *argv, at)
            assert code == 0
            assert out == "0\n"

    def test_surviving_pole_exit_3(self, capsys):
        code, out, err = run(capsys, "specialize", "--group", "GL2",
                             "--degree", "1", "--genus", "2", "--what", "stack",
                             "--at", "euler")
        assert code == 3
        assert out == ""
        assert err.startswith("precondition failed:")


@pytest.mark.parametrize("genus", ["1", "9"])
@pytest.mark.parametrize("argv", [
    ["compute", "--what", "stack"],
    ["compute", "--what", "semistable"],
    ["compute", "--what", "moduli"],
    ["compute", "--what", "fixed-det"],
    ["specialize", "--what", "stack", "--at", "poincare"],
    ["specialize", "--what", "semistable", "--at", "poincare"],
    ["specialize", "--what", "moduli", "--at", "euler"],
    ["specialize", "--what", "fixed-det", "--at", "chi-t"],
], ids=lambda a: "-".join(a[::2]))
def test_genus_out_of_range_exit_2(capsys, argv, genus):
    code, out, err = run(capsys, *argv, "--group", "GL2", "--degree", "1",
                         "--genus", genus)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_classifying_ignores_genus(capsys):
    code, out, _ = run(capsys, "compute", "--group", "SL2", "--genus", "9",
                       "--what", "classifying")
    assert code == 0
    assert out.strip() == "(1) / (1 - u^2*v^2)"


class TestVerify:
    def test_small_all_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-rank", "2",
                           "--genus-list", "2", "--order", "10")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "good-case",
                           "--max-rank", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True
        assert all(c["pass"] for c in obj["checks"])

    def test_json_recursion_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "recursion",
                           "--max-rank", "2", "--genus-list", "2",
                           "--order", "8", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        gl2 = [c for c in checks if c["name"].startswith("recursion GL2 d=(1,)")]
        wall = [c.pop("wall_s") for c in gl2]
        assert gl2 == [{"name": "recursion GL2 d=(1,) g=2 N=8", "pass": True,
                        "strata": 2, "first_mismatch": None}]
        assert all(type(w) is float and w >= 0 for w in wall)

    @staticmethod
    def break_bc_exps(monkeypatch):
        """Raise the last exponent of SO_{2m+1} and Sp_m, m > 1, in the
        composition sums alone; the closed formula reads its exponents off
        the root datum."""
        from hodge_series import formulas

        real = formulas._bc_exps
        monkeypatch.setattr(formulas, "_bc_exps", lambda m: (
            real(m)[:-1] + (real(m)[-1] + 1,) if m > 1 else real(m)))

    def test_classical_break_fails(self, capsys, monkeypatch):
        self.break_bc_exps(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "classical",
                           "--max-rank", "3", "--genus-list", "2")
        lines = out.splitlines()
        assert code == 1
        assert lines[-1] == "15/21 checks passed"
        assert [ln for ln in lines if ln.startswith("FAIL")][0] \
            == "FAIL classical SO5 d=(0,) g=2"

    def test_classical_series_branch(self, capsys):
        """Above rank 4 the classical checks compare truncated series."""
        code, out, _ = run(capsys, "verify", "--suite", "classical",
                           "--max-rank", "5", "--genus-list", "2", "--order", "10")
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "42/42 checks passed"
        assert sum(ln.endswith(" series N=10") for ln in lines) == 11

    @pytest.mark.parametrize("order,passed,series_fails", [
        (10, 33, []),
        (18, 30, ["FAIL classical SO11 d=(0,) g=2 series N=18",
                  "FAIL classical SO11 d=(1,) g=2 series N=18",
                  "FAIL classical Sp5 d=(0,) g=2 series N=18"])])
    def test_classical_series_branch_break(self, capsys, monkeypatch, order,
                                           passed, series_fails):
        """Under the same break the rank <= 4 checks of SO_{2m+1} and Sp_m
        fail at any order; at rank 5 the raised exponent 10 -> 11 first
        shows at total degree 18, so the series checks pass at order 10
        and fail at order 18."""
        self.break_bc_exps(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "classical",
                           "--max-rank", "5", "--genus-list", "2",
                           "--order", str(order))
        lines = out.splitlines()
        assert code == 1
        assert lines[-1] == "%d/42 checks passed" % passed
        assert [ln for ln in lines if ln.startswith("FAIL") and "series" in ln] \
            == series_fails

    def test_json_recursion_mismatch(self, capsys, monkeypatch):
        from hodge_series import recursion

        report = recursion.RecursionReport(False, (3, 4, 10 ** 30, -7), 8, 5)
        monkeypatch.setattr(recursion, "verify_recursion", lambda *a: report)
        code, out, _ = run(capsys, "verify", "--suite", "recursion",
                           "--max-rank", "1", "--genus-list", "2",
                           "--order", "8", "--format", "json")
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["pass"] is False
        assert check["strata"] == 5
        assert check["first_mismatch"] == [3, 4, str(10 ** 30), "-7"]

    def test_fixed_det_built_once_per_input(self, capsys, monkeypatch):
        """The chi_t and euler+signature checks of one (r, d, g) share one
        fixed-determinant polynomial: 10 inputs, 10 constructions."""
        from hodge_series import formulas

        calls = []
        real = formulas.hp_moduli_fixed_det

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(formulas, "hp_moduli_fixed_det", counting)
        code, out, _ = run(capsys, "verify", "--suite", "corollaries",
                           "--max-rank", "4", "--genus-list", "2,3")
        assert code == 0
        assert out.strip().endswith("26/26 checks passed")
        assert len(calls) == len(set(calls)) == 10

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_suite_without_checks_exit_2(self, capsys, fmt):
        """No corollary exists below rank 2: an empty run is a usage error,
        not 0/0 checks passed."""
        code, out, err = run(capsys, "verify", "--suite", "corollaries",
                             "--max-rank", "1", "--genus-list", "2",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ["--suite", "good-case", "--genus-list", "2,x"],
        ["--suite", "good-case", "--genus-list", "1"],
        ["--suite", "good-case", "--max-rank", "0"],
        ["--suite", "recursion", "--max-rank", "1", "--order", "-1"],
        ["--suite", "recursion", "--max-rank", "1", "--genus-list", "9"],
        ["--suite", "all", "--max-rank", "1", "--genus-list", "2,9"],
        ["--suite", "recursion", "--max-rank", "2", "--genus-list", ""],
        ["--suite", "recursion", "--max-rank", "2", "--genus-list", ","],
    ], ids=["genus-not-integer", "genus-below-2", "max-rank-0", "order-negative",
            "genus-above-cap", "genus-above-cap-all", "genus-empty", "genus-comma"])
    def test_bad_parameter_exit_2(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2
        assert "PASS" not in out


class TestCertificateFailure:
    """A fixed-determinant polynomial whose certificate fails is a
    verification failure (exit 1), never a traceback: ``compute`` and
    ``specialize`` print one line on stderr, ``verify`` marks the check FAIL
    and runs the rest."""

    @staticmethod
    def wrong_stack_term(monkeypatch):
        """Add 1 to the GL3 d=2 stack term list that the fixed-determinant
        certificate builds; every other closed formula stays right."""
        from hodge_series import formulas
        from hodge_series.formulas import FTerm
        from hodge_series.rootdata import GroupSpec

        real = formulas.closed_terms
        _, target = formulas._datum_residues(GroupSpec((("GL", 3),)), (2,))

        def closed(datum, residues, *args, **kwargs):
            terms = real(datum, residues, *args, **kwargs)
            if residues == target:
                terms = terms + [FTerm(1, 0, (), Counter())]
            return terms

        monkeypatch.setattr(formulas, "closed_terms", closed)

    @pytest.mark.parametrize("argv", [
        ["compute", "--what", "fixed-det"],
        ["compute", "--what", "fixed-det", "--format", "json"],
        ["specialize", "--what", "fixed-det", "--at", "chi-t"]])
    def test_compute_and_specialize_exit_1(self, capsys, monkeypatch, argv):
        self.wrong_stack_term(monkeypatch)
        code, out, err = run(capsys, *argv, "--group", "GL3", "--degree", "2",
                             "--genus", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: ")
        assert len(err.splitlines()) == 1

    def test_verify_fails_the_check_and_runs_the_rest(self, capsys, monkeypatch):
        self.wrong_stack_term(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", "corollaries",
                             "--max-rank", "3", "--genus-list", "2")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert [ln for ln in lines if not ln.startswith("PASS ")] == [
            "FAIL chi_t fixed-det GL3 d=2 g=2",
            "FAIL euler+signature GL3 d=2 g=2",
            "6/8 checks passed"]

    def test_verify_json_carries_the_reason(self, capsys, monkeypatch):
        self.wrong_stack_term(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "corollaries",
                           "--max-rank", "3", "--genus-list", "2",
                           "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["all_pass"] is False
        failed = [c for c in obj["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["chi_t fixed-det GL3 d=2 g=2",
                                               "euler+signature GL3 d=2 g=2"]
        assert all("GL3 stack series" in c["error"] for c in failed)
        assert all("error" not in c for c in obj["checks"] if c["pass"])


class TestNonIntegral:
    """A w-exponent or a stratum codimension that comes out non-integral is
    a verification failure too (exit 1), never a traceback: ``verify`` marks
    the check FAIL with its error and runs the rest, ``compute`` and
    ``specialize`` print one line on stderr."""

    @staticmethod
    def non_integral_gl2_codim(monkeypatch):
        """Make the HN enumeration of GL2, and of no other group, raise."""
        from hodge_series import recursion
        from hodge_series.recursion import NonIntegralCodim
        from hodge_series.rootdata import GroupSpec

        real = recursion.enumerate_hn_types

        def enumerate_hn_types(spec, *args):
            if spec == GroupSpec((("GL", 2),)):
                raise NonIntegralCodim("codimension 7/2 is not an integer")
            return real(spec, *args)

        monkeypatch.setattr(recursion, "enumerate_hn_types", enumerate_hn_types)

    @staticmethod
    def non_integral_exponent(monkeypatch):
        from hodge_series import formulas
        from hodge_series.rootdata import NonIntegralExponent

        def exponent(x, D):
            raise NonIntegralExponent("non-integer (uv)-exponent %d/%d" % (x, D))

        monkeypatch.setattr(formulas, "_exponent", exponent)

    def test_verify_fails_the_check_and_runs_the_rest(self, capsys, monkeypatch):
        self.non_integral_gl2_codim(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", "recursion",
                             "--max-rank", "2", "--genus-list", "2")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert [ln for ln in lines if not ln.startswith("PASS ")] == [
            "FAIL recursion GL2 d=(0,) g=2 N=20",
            "FAIL recursion GL2 d=(1,) g=2 N=20",
            "10/12 checks passed"]

    def test_verify_json_carries_the_error(self, capsys, monkeypatch):
        self.non_integral_gl2_codim(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "recursion",
                           "--max-rank", "2", "--genus-list", "2",
                           "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["all_pass"] is False
        failed = [c for c in obj["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["recursion GL2 d=(0,) g=2 N=20",
                                               "recursion GL2 d=(1,) g=2 N=20"]
        assert all(c["error"] == "codimension 7/2 is not an integer"
                   for c in failed)
        assert all("error" not in c for c in obj["checks"] if c["pass"])

    @pytest.mark.parametrize("argv", [
        ["compute", "--what", "semistable"],
        ["compute", "--what", "moduli", "--format", "json"],
        ["specialize", "--what", "stack", "--at", "poincare"]])
    def test_compute_and_specialize_exit_1(self, capsys, monkeypatch, argv):
        self.non_integral_exponent(monkeypatch)
        code, out, err = run(capsys, *argv, "--group", "GL3", "--degree", "1",
                             "--genus", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("verification failed: non-integer (uv)-exponent")
        assert len(err.splitlines()) == 1
