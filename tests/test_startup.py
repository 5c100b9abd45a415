"""Start-up guard: ``import hodge_series.cli`` loads only what a command
runs.  The period-matrix names (``vhs``) load on first access, and ``json``
and ``csv`` where a JSON or CSV output is written, so each check starts a
fresh interpreter (``python -s``, no user site) and reads its
``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules that only a rational result loads: a substitution at a
#: non-integral point, a slope or a rational matrix
RATIONAL = ("fractions", "decimal", "_decimal", "numbers")

#: modules no plain-format command and no pool operation uses
NOT_AT_IMPORT = ("dataclasses", "inspect", "json", "csv", "hodge_series.vhs") + RATIONAL

VHS_NAMES = ("PeriodMatrix", "QC", "basis_change_consistent",
             "theta_coefficients", "validate_period_matrix")


def python(*args):
    """(exit code, stdout, stderr) of a fresh ``python -s`` importing the
    package from this checkout, writing no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-s", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_no_unused_module():
    code, out, err = python("-c", "import sys, hodge_series.cli\n"
                            "print(' '.join(m for m in %r if m in sys.modules))"
                            % (NOT_AT_IMPORT,))
    assert code == 0, err
    assert out.strip() == ""


def test_integer_paths_load_no_rational_arithmetic():
    """The closed formula, a fixed-det specialization, every verify suite
    and the recursion check compute in ints from the degree's lift to the
    printed series: after the operations below and every operation of the
    benchmark pools (``perfbench/workloads.py``, only read), all run in one
    interpreter and all passing, no module of rational arithmetic is
    loaded."""
    code, out, err = python("-c", """
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from hodge_series import cli, parse_group
from hodge_series.recursion import verify_recursion
spec = importlib.util.spec_from_file_location("workloads", %r)
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
ops = [{"kind": "cli", "argv": argv} for argv in [
    ["compute", "--group", "GL8", "--degree", "3", "--what", "semistable"],
    ["compute", "--group", "Sp6", "--what", "semistable"],
    ["specialize", "--group", "GL4", "--degree", "1", "--genus", "8",
     "--what", "fixed-det", "--at", "chi-t"],
    ["verify", "--suite", "all", "--max-rank", "2"],
]] + [{"kind": "recursion", "group": name, "degree": d, "genus": 2, "order": order}
      for name, d, order in [("GL5", (2,), 40), ("GL3xSO5", (2, 1), 30)]]
ops += [op for pools in workloads.POOLS.values() for pool in pools for op in pool]
failed = []
for op in ops:
    if op["kind"] == "cli":
        with redirect_stdout(io.StringIO()):
            ok = cli.main(op["argv"]) == 0
    else:
        ok = verify_recursion(parse_group(op["group"]), tuple(op["degree"]),
                              op["genus"], op["order"]).match
    if not ok:
        failed.append(op)
print(len(ops), failed, [m for m in %r if m in sys.modules])
""" % (str(SRC.parent / "perfbench" / "workloads.py"), RATIONAL))
    assert code == 0, err
    assert out.strip() == "36 [] []"


def test_vhs_names_load_on_first_access():
    code, out, err = python("-c", """
import sys
import hodge_series
assert "hodge_series.vhs" not in sys.modules
from hodge_series import (PeriodMatrix, QC, theta_coefficients,
                          validate_period_matrix, basis_change_consistent)
import hodge_series.vhs as vhs
assert hodge_series.vhs is vhs
assert (PeriodMatrix, QC, theta_coefficients, validate_period_matrix,
        basis_change_consistent) == (
    vhs.PeriodMatrix, vhs.QC, vhs.theta_coefficients,
    vhs.validate_period_matrix, vhs.basis_change_consistent)
print("ok")
""")
    assert code == 0, err
    assert out.strip() == "ok"


def test_vhs_module_attribute_loads_it():
    code, out, err = python("-c", "import hodge_series\n"
                            "print(hodge_series.vhs.__name__)")
    assert code == 0, err
    assert out.strip() == "hodge_series.vhs"


def test_star_import_and_dir_list_every_name():
    code, out, err = python("-c", """
import json
import hodge_series
names = dir(hodge_series)
ns = {}
exec("from hodge_series import *", ns)
print(json.dumps([hodge_series.__all__, names, sorted(ns)]))
""")
    assert code == 0, err
    all_, names, star = json.loads(out)
    for name in VHS_NAMES + ("vhs", "parse_group", "hp_semistable_closed",
                             "verify_recursion", "GroupSpec"):
        assert name in all_ and name in names and name in star
    assert set(all_) <= set(star)


def test_unknown_attribute_still_raises():
    code, _, err = python("-c", "import hodge_series\nhodge_series.no_such_name")
    assert code == 1
    assert "AttributeError" in err and "no_such_name" in err


def test_json_formats_still_print_json():
    for argv, key in [
        (["compute", "--group", "GL2", "--degree", "1", "--what",
          "semistable", "--format", "json"], "num"),
        (["specialize", "--group", "GL2", "--degree", "1", "--what",
          "fixed-det", "--at", "chi-t", "--format", "json"], "value_t"),
        (["verify", "--suite", "good-case", "--max-rank", "2",
          "--format", "json"], "checks"),
    ]:
        code, out, err = python("-m", "hodge_series.cli", *argv)
        assert code == 0, err
        assert key in json.loads(out)

