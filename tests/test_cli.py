"""End-to-end tests of the command-line interface."""

import json

import pytest

from hodge_series.cli import main


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
        num = BivarPoly.from_json_terms(obj["num"])
        den = BivarPoly.from_json_terms(obj["den"])
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

    def test_bad_group_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--group", "E8",
                           "--what", "semistable")
        assert code == 2

    def test_bad_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--group", "GL2",
                         "--what", "nonsense")
        assert code == 2

    def test_negative_expand_exit_2(self, capsys):
        code, out, err = run(capsys, "compute", "--group", "GL2", "--degree", "1",
                             "--what", "semistable", "--expand", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")


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

    def test_not_coprime_exit_3(self, capsys):
        code, _, _ = run(capsys, "specialize", "--group", "GL2", "--degree", "0",
                         "--genus", "2", "--what", "fixed-det", "--at", "chi-t")
        assert code == 3

    def test_surviving_pole_exit_3(self, capsys):
        code, out, err = run(capsys, "specialize", "--group", "GL2",
                             "--degree", "1", "--genus", "2", "--what", "stack",
                             "--at", "euler")
        assert code == 3
        assert out == ""
        assert err.startswith("precondition failed:")


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
        assert gl2 == [{"name": "recursion GL2 d=(1,) g=2 N=8", "pass": True,
                        "strata": 2, "first_mismatch": None}]

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

    @pytest.mark.parametrize("argv", [
        ["--suite", "good-case", "--genus-list", "2,x"],
        ["--suite", "good-case", "--genus-list", "1"],
        ["--suite", "good-case", "--max-rank", "0"],
        ["--suite", "recursion", "--max-rank", "1", "--order", "-1"],
        ["--suite", "recursion", "--max-rank", "1", "--genus-list", "9"],
        ["--suite", "all", "--max-rank", "1", "--genus-list", "2,9"],
    ], ids=["genus-not-integer", "genus-below-2", "max-rank-0", "order-negative",
            "genus-above-cap", "genus-above-cap-all"])
    def test_bad_parameter_exit_2(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2
        assert "PASS" not in out
