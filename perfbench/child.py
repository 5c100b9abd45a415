"""One repetition of a workload, run in a fresh interpreter by ``run.py``.

Usage: ``python child.py '<job json>'``.  The job holds ``ops`` (drawn by
``workloads.draw_ops``), ``trace`` (wrap the layers and collect spans) and
optionally ``spans_path`` and ``digests`` (reference digests overriding
``digests.json``; the benchmark's own test uses it to feed a wrong one).
A job with ``setup_only`` imports the package and stops.

The last stdout line is one JSON object: the ``time.monotonic_ns`` at which
``hodge_series.cli`` finished importing, the wall time of the operations,
one entry per operation, the peak resident memory and, when traced, the
per-layer metrics.  Exit code 3 means the package could not be imported.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
try:
    import hodge_series.cli
except ImportError as exc:
    print("cannot import hodge_series from %s: %s" % (SRC, exc), file=sys.stderr)
    sys.exit(3)
IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402  (after the timed import, on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import workloads  # noqa: E402
from hodge_series import recursion  # noqa: E402
from hodge_series.rootdata import parse_group  # noqa: E402
from tracer import Tracer  # noqa: E402


def peak_rss_mb():
    """High-water resident memory of this process's own address space.

    ``ru_maxrss`` is not used: exec copies the spawning process's high-water
    mark into it, so it would report the parent's memory when that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op, digests):
    """Run one operation; returns (ok, detail, stdout bytes, wall ns)."""
    if op["kind"] == "recursion":
        spec = parse_group(op["group"])
        degree = tuple(op["degree"])
        t0 = perf_counter_ns()
        report = recursion.verify_recursion(spec, degree, op["genus"], op["order"])
        t1 = perf_counter_ns()
        ok, detail = workloads.check_report(report)
        return ok, detail, 0, t1 - t0
    buf = io.StringIO()
    t0 = perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        rc = hodge_series.cli.main(op["argv"])
    t1 = perf_counter_ns()
    out = buf.getvalue()
    ok, detail = workloads.check_cli(op, rc, out, digests)
    return ok, detail, len(out.encode("utf-8")), t1 - t0


def main():
    job = json.loads(sys.argv[1])
    real = os.path.realpath(hodge_series.cli.__file__)
    if not real.startswith(os.path.realpath(SRC) + os.sep):
        print("hodge_series imported from %s, not from %s" % (real, SRC), file=sys.stderr)
        return 3
    result = {"imported_ns": IMPORTED_NS}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0
    digests = job.get("digests") or workloads.load_digests()
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    ops_out = []
    wall_ns = 0
    for i, op in enumerate(job["ops"]):
        span = tracer.begin_op(i) if tracer is not None else None
        try:
            ok, detail, nbytes, ns = run_op(op, digests)
        except Exception as exc:  # an operation failing counts, it does not stop the run
            ok, detail, nbytes, ns = False, "%s: %s" % (type(exc).__name__, exc), 0, 0
        finally:
            if span is not None:
                tracer.end_op(span)
        wall_ns += ns
        ops_out.append({"key": op["key"], "ok": ok, "detail": detail, "output_bytes": nbytes})
    result.update(
        wall_s=wall_ns / 1e9,
        ops=ops_out,
        peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        metrics, missing = tracer.metrics()
        result["trace"] = {"metrics": metrics, "missing": missing}
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"], job.get("header", {}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
