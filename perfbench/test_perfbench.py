"""Tests of the benchmark harness itself, on reduced inputs.

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hodge_series import cli  # noqa: E402

SMALL_OPS = [
    {"kind": "cli", "key": "GL3 d=1 g=2 semistable", "expect": "digest",
     "argv": ["compute", "--group", "GL3", "--degree", "1", "--genus", "2",
              "--what", "semistable"]},
    {"kind": "cli", "key": "GL2 d=1 g=2 fixed-det chi-t", "expect": "digest",
     "argv": ["specialize", "--group", "GL2", "--degree", "1", "--genus", "2",
              "--what", "fixed-det", "--at", "chi-t"]},
    {"kind": "recursion", "key": "SO5 d=1 g=2 N=10", "group": "SO5",
     "degree": [1], "genus": 2, "order": 10},
    {"kind": "cli", "key": "verify all r<=2 g=2 N=8", "expect": "verify",
     "argv": ["verify", "--suite", "all", "--max-rank", "2", "--genus-list", "2",
              "--order", "8"]},
]


def _true_digests():
    out = {}
    for op in SMALL_OPS:
        if op.get("expect") == "digest":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(op["argv"]) == 0
            out[op["key"]] = workloads.digest(buf.getvalue())
    return out


def _child(ops, digests, trace):
    result, _, code, err = run.spawn({"ops": ops, "trace": trace, "digests": digests})
    assert result is not None, "child exit %s: %s" % (code, err)
    return result


def test_wrong_digest_and_fail_line_count_in_failed_frac():
    digests = _true_digests()
    good = _child(SMALL_OPS, digests, trace=False)
    assert all(op["ok"] for op in good["ops"]), good["ops"]

    wrong = dict(digests, **{SMALL_OPS[0]["key"]: "0" * 64})
    bad = _child(SMALL_OPS, wrong, trace=False)
    assert [op["ok"] for op in bad["ops"]] == [False, True, True, True]
    assert "digest" in bad["ops"][0]["detail"]

    verify_op = SMALL_OPS[3]
    ok, _ = workloads.check_cli(verify_op, 0, "PASS a\nPASS b\n2/2 checks passed\n", {})
    assert ok
    fail_out = "PASS a\nFAIL b\n2/2 checks passed\n"
    ok, detail = workloads.check_cli(verify_op, 0, fail_out, {})
    assert not ok and "FAIL b" in detail
    fail_rep = {"ops": [{"key": verify_op["key"], "ok": ok, "detail": detail}]}

    attempted, failed, _ = run.summarize([good, bad, fail_rep])
    assert (attempted, failed) == (9, 2)


def test_recursion_gate():
    from hodge_series.recursion import RecursionReport

    assert workloads.check_report(RecursionReport(True, None, 10, 3))[0]
    assert not workloads.check_report(RecursionReport(False, (1, 2, 3, 4), 10, 3))[0]
    assert not workloads.check_report(RecursionReport(True, (1, 2, 3, 4), 10, 3))[0]


def _exact(metrics):
    keep = {"recursion.enumerate_per_verify", "recursion.strata_useful_ratio"}
    return {k: v for k, v in metrics.items() if v[1] == "count" or k in keep}


def test_counts_repeat_exactly_and_every_metric_is_reported():
    digests = _true_digests()
    first = _child(SMALL_OPS, digests, trace=True)
    second = _child(SMALL_OPS, digests, trace=True)
    assert all(op["ok"] for op in first["ops"])
    m1, m2 = first["trace"]["metrics"], second["trace"]["metrics"]
    assert _exact(m1) == _exact(m2)
    assert [op["output_bytes"] for op in first["ops"]] == \
        [op["output_bytes"] for op in second["ops"]]
    assert first["trace"]["missing"] == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    added_by_run = {"cli.output_bytes", "trace.overhead"}
    for metric in declared:
        if metric["name"] not in added_by_run:
            assert m1[metric["name"]][1] == metric["unit"], metric["name"]
    assert m1["recursion.enumerate_per_verify"][0] == 2
    assert m1["ratfun.BivarPoly.mul.calls"][0] > 0


def test_no_enumeration_without_recursion():
    result = _child(SMALL_OPS[:1], _true_digests(), trace=True)
    metrics = result["trace"]["metrics"]
    assert metrics["recursion.enumerate_hn_types.calls"][0] == 0
    assert metrics["formulas.assemble_exact.calls"][0] > 0


def test_every_binding_is_wrapped():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracer, hodge_series\n"
        "from hodge_series import ratfun, formulas, recursion\n"
        "t = tracer.Tracer(); t.install()\n"
        "assert ratfun.to_polynomial is formulas.to_polynomial is hodge_series.to_polynomial\n"
        "for name in ('a_series_term', 'assemble_series', 'closed_series_for'):\n"
        "    assert getattr(formulas, name) is getattr(recursion, name)\n"
        "    assert getattr(recursion, name).perfbench_span == 'formulas.' + name\n"
        "B = ratfun.BivarPoly\n"
        "assert B.__mul__ is B.__rmul__ and B.__mul__.perfbench_span == 'ratfun.BivarPoly.mul'\n"
        "x = ratfun.U + 1\n"
        "y = 2 * x * x\n"
        "assert t.counts['ratfun.BivarPoly.mul.term_pairs'] == 2 + 2 * 2\n"
        % (str(HERE), str(ROOT / "src")))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=str(ROOT))


def test_missing_name_is_reported_not_zero():
    t = tracer.Tracer()
    t.names = set(tracer.FUNCTION_METRICS) - {"ratfun.BivarPoly.mul_trunc"}
    metrics, missing = t.metrics()
    assert "ratfun.BivarPoly.mul_trunc" in missing
    assert not any(k.startswith("ratfun.BivarPoly.mul_trunc.") for k in metrics)
    assert "ratfun.BivarPoly.mul.calls" in metrics


def test_draw_is_seeded_and_every_digest_is_committed():
    digests = workloads.load_digests()
    for name in workloads.WORKLOADS:
        assert workloads.draw_ops(name, 7) == workloads.draw_ops(name, 7)
        for pool in workloads.POOLS[name]:
            for op in pool:
                if op.get("expect") == "digest":
                    assert op["key"] in digests


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "digests.json", bare / "perfbench")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
