"""Workloads of the benchmark: operation pools, seeded draws, and the
correctness gate applied to every operation.

An operation is a JSON-serialisable dict, so the parent process can hand
the drawn list to a fresh interpreter:

* ``{"kind": "cli", "key": ..., "argv": [...], "expect": "digest"}`` runs
  ``hodge_series.cli.main(argv)`` in-process; its stdout must hash to the
  committed reference digest of ``key`` (see ``digests.json``).
* ``{"kind": "cli", ..., "expect": "verify"}`` runs a ``verify`` suite,
  which certifies itself: exit 0, every line ``PASS`` and ``n/n checks
  passed``.
* ``{"kind": "recursion", "key": ..., "group": ..., "degree": [...],
  "genus": g, "order": N}`` calls ``recursion.verify_recursion``; it passes
  when ``match is True`` and ``first_mismatch is None``.  The stratum count
  of the report is not checked, because its meaning is due to change.

Within a pool every entry costs about the same, so the seed changes the
inputs but not the size of the work.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def _semistable(group, degree):
    argv = ["compute", "--group", group]
    if degree is not None:
        argv += ["--degree", str(degree)]
    return argv + ["--genus", "2", "--what", "semistable"]


def _cli(key, argv):
    return {"kind": "cli", "key": key, "argv": argv, "expect": "digest"}


def _recursion(group, degree, order):
    return {"kind": "recursion",
            "key": "%s d=%s g=2 N=%d" % (group, ",".join(map(str, degree)), order),
            "group": group, "degree": list(degree), "genus": 2, "order": order}


def _verify(order, genus_list):
    return {"kind": "cli", "key": "verify all r<=4 g=%s N=%d" % (genus_list, order),
            "argv": ["verify", "--suite", "all", "--max-rank", "4",
                     "--genus-list", genus_list, "--order", str(order)],
            "expect": "verify"}


# Each workload is a list of pools; one operation is drawn from each pool.
# Pool entries were chosen for equal work: equal BivarPoly term pairs
# (closed-exact) and HN-enumeration box sizes within 2 % (recursion-deep);
# degrees whose box is 10-20 % larger or smaller are left out.  In
# verify-suite each order step adds about 4 % of work, so the pool takes two
# adjacent orders and both orders of the genus list (same checks, printed in
# another order).  Only outputs that are promised to stay byte-identical are
# digested, so no ``--what moduli`` (its printing is due to change).
POOLS = {
    "closed-exact": [
        [_cli("GL8 d=%d g=2 semistable" % d, _semistable("GL8", d))
         for d in range(8)],
        [_cli("Sp6 g=2 semistable", _semistable("Sp6", None))],
        [_cli("SO12 d=%d g=2 semistable" % d, _semistable("SO12", d))
         for d in (0, 1)],
        [_cli("GL4 d=%d g=8 fixed-det chi-t" % d,
              ["specialize", "--group", "GL4", "--degree", str(d),
               "--genus", "8", "--what", "fixed-det", "--at", "chi-t"])
         for d in (1, 3)],
    ],
    "recursion-deep": [
        [_recursion("GL6", (d,), 30) for d in (2, 3, 4)],
        [_recursion("GL5", (d,), 40) for d in (1, 2, 3, 4)],
        [_recursion("SO10", (d,), 30) for d in (0, 1)],
        [_recursion("GL3xSO5", (d1, d2), 30) for d1 in (1, 2) for d2 in (0, 1)],
    ],
    "verify-suite": [
        [_verify(n, genus) for n in (20, 21) for genus in ("2,3", "3,2")],
    ],
}

WORKLOADS = tuple(POOLS)


def draw_ops(workload, seed):
    """The operation list of one repetition; the same seed gives the same list."""
    rng = random.Random("%s/%d" % (workload, seed))
    return [rng.choice(pool) for pool in POOLS[workload]]


def load_digests():
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify_output(rc, stdout):
    """(ok, detail) for a plain-format ``verify`` run."""
    if rc != 0:
        return False, "exit code %d" % rc
    lines = stdout.splitlines()
    if not lines:
        return False, "no output"
    m = _VERIFY_TOTAL.match(lines[-1])
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 1:
        return False, "summary line %r" % (lines[-1],)
    bad = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
    if bad:
        return False, "%d non-PASS lines, first %r" % (len(bad), bad[0])
    return True, ""


def check_cli(op, rc, stdout, digests):
    """(ok, detail) for a CLI operation, given its exit code and stdout."""
    if op["expect"] == "verify":
        return check_verify_output(rc, stdout)
    if rc != 0:
        return False, "exit code %d" % rc
    want = digests.get(op["key"])
    if want is None:
        return False, "no reference digest for %r" % (op["key"],)
    got = digest(stdout)
    if got != want:
        return False, "stdout digest %s, reference %s" % (got[:12], want[:12])
    return True, ""


def check_report(report):
    """(ok, detail) for a ``RecursionReport``."""
    if report.match is True and report.first_mismatch is None:
        return True, ""
    return False, "match=%r first_mismatch=%r" % (report.match, report.first_mismatch)
