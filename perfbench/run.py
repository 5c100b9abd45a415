"""Benchmark of the hodge-series package.

Usage::

    python3 perfbench/run.py --workload closed-exact --seed 1 --seconds 30 --trace 0

Each repetition of the workload runs in a fresh interpreter (``child.py``),
one at a time, so no cache of the package carries over from one repetition
to the next; within a repetition the operations share the process.  The
seed draws the operation list once, and every repetition of the run repeats
that list.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_norm_s``
(median time of the operation list, start-up and import excluded, rescaled
to a fixed host speed, see ``REF_NOMINAL_S``), ``setup_s`` (median time
from spawning an interpreter until ``hodge_series.cli`` is imported) and
``peak_rss_mb`` (median peak resident memory of a repetition).  With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(medians of times, exact counts) and ``trace.overhead``.

The last stdout line is the result object; the line before it records the
environment (seed, commit, Python, nproc, load average), the raw wall times
and ``failed_frac``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7      # extra set-up-only interpreters per run
MIN_REPS = 3           # untraced repetitions of a --trace 0 run, at least
CHILD_TIMEOUT_S = 150  # one repetition; the whole run must end within 180 s

# The host's speed drifts by tens of percent over minutes, so raw wall times
# of runs a few minutes apart differ by more than a regression worth
# catching.  The run therefore keeps itself and its children on one CPU and
# times a fixed reference loop REF_LOOPS times before each repetition and
# after the last; wall_norm_s rescales the median wall time by
# REF_NOMINAL_S / (median reference-loop time of the run), giving the wall
# time on a host where that loop takes REF_NOMINAL_S, its typical time on a
# 2-vCPU Intel Xeon VM at 2.0 GHz.
REF_NOMINAL_S = 0.09
REF_LOOPS = 3


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("HODGE_SERIES_THREADS", None)  # measure the default single-thread path
    env.pop("PYTHONPATH", None)            # the child imports the checkout's src/
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job):
    """Run one child interpreter to completion.

    Returns (result or None, spawn time in monotonic ns, exit code, stderr).
    """
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(CHILD), json.dumps(job)],
        cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran longer than %d s" % CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result, t_spawn, proc.returncode, err


def reference_loop():
    """Time, in seconds, of fixed pure-Python work that does not touch the
    package (tuple-keyed dict updates, as in its sparse polynomials)."""
    t0 = time.perf_counter()
    d = {}
    for i in range(150000):
        k = (i % 977, i % 131)
        d[k] = d.get(k, 0) + i * 3
    return time.perf_counter() - t0


def setup_seconds(result, t_spawn):
    return (result["imported_ns"] - t_spawn) / 1e9


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def median_metrics(samples):
    """Median of each timed metric over the traced repetitions; every
    repetition must give the same value of each count."""
    out = {}
    for name, (_, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        if unit == "count":
            if len(set(values)) > 1:
                raise BenchError("count %s differs between repetitions: %s" % (name, values))
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out


def summarize(reps):
    """attempted, failed and the failure details over all repetitions."""
    attempted = failed = 0
    details = []
    for rep in reps:
        for op in rep["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                details.append("%s: %s" % (op["key"], op["detail"]))
    return attempted, failed, details


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "hodge_series" / "cli.py").is_file():
        raise BenchError("no hodge_series source under %s" % (ROOT / "src"))
    ops = workloads.draw_ops(workload, seed)
    # one CPU for everything, so the reference loop times the CPU the children use
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "ops": [op["key"] for op in ops], "commit": git_commit(),
           "source_sha256": source_digest(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}

    # The first interpreter compiles the package's bytecode; it is not timed.
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        result, t_spawn, _, err = spawn({"setup_only": True})
        if result is None:
            raise BenchError("the package does not import:\n" + err)
        if i:
            setups.append(setup_seconds(result, t_spawn))

    plain, traced = [], []
    rep_s = {False: [], True: []}
    spans_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / ("spans-%s.jsonl" % workload))
    start = time.monotonic()
    refs = []
    while True:
        refs += [reference_loop() for _ in range(REF_LOOPS)]
        traced_next = trace and len(traced) < len(plain)
        enough = (plain and traced) if trace else len(plain) >= MIN_REPS
        if enough:
            expect = max(rep_s[traced_next] or rep_s[False])
            if time.monotonic() - start + expect > seconds:
                break
        job = {"ops": ops, "trace": traced_next, "spans_path": spans_path,
               "header": {"workload": workload, "seed": seed, "rep": len(traced)}}
        t0 = time.monotonic()
        result, t_spawn, code, err = spawn(job)
        rep_s[traced_next].append(time.monotonic() - t0)
        if result is None:
            # the interpreter died: every operation of the repetition failed
            sys.stderr.write(err)
            result = {"ops": [{"key": op["key"], "ok": False, "output_bytes": 0,
                               "detail": "interpreter exit code %s" % code} for op in ops]}
        else:
            setups.append(setup_seconds(result, t_spawn))
        (traced if traced_next else plain).append(result)

    attempted, failed, details = summarize(plain + traced)
    timed_plain = [r for r in plain if "wall_s" in r]
    timed_traced = [r for r in traced if "trace" in r]
    metrics = {}
    missing = []
    if not trace:
        if not timed_plain:
            raise BenchError("no repetition completed:\n" + "\n".join(details))
        wall = statistics.median(r["wall_s"] for r in timed_plain)
        ref = statistics.median(refs)
        env.update(wall_s=wall, ref_s=ref)
        metrics["wall_norm_s"] = {"value": wall * REF_NOMINAL_S / ref, "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in timed_plain), "unit": "MB"}
    else:
        if not timed_plain or not timed_traced:
            raise BenchError("no repetition completed:\n" + "\n".join(details))
        metrics = median_metrics([r["trace"]["metrics"] for r in timed_traced])
        missing = sorted({m for r in timed_traced for m in r["trace"]["missing"]})
        out_bytes = {sum(op["output_bytes"] for op in r["ops"]) for r in timed_traced}
        if len(out_bytes) > 1:
            raise BenchError("cli output differs between repetitions: %s" % out_bytes)
        metrics["cli.output_bytes"] = {"value": out_bytes.pop(), "unit": "bytes"}
        traced_wall = statistics.median(r["wall_s"] for r in timed_traced)
        plain_wall = statistics.median(r["wall_s"] for r in timed_plain)
        metrics["trace.overhead"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}

    env.update(
        loadavg_after=os.getloadavg(), failed_frac=failed / attempted,
        repetitions={"untraced": len(plain), "traced": len(traced)},
        rep_wall_s=[r["wall_s"] for r in timed_plain + timed_traced],
        setup_samples=len(setups), missing=missing, failures=details[:10])
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
