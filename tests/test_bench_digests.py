"""Every digest-gated operation of the benchmark, replayed in process.

``perfbench/workloads.POOLS`` lists the CLI operations whose stdout the
benchmark checks against ``perfbench/digests.json``.  Each is run here
through ``cli.main`` and its stdout hashed against that file, which is only
read, so an output change fails a test before it fails the benchmark.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from hodge_series import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DIGEST_OPS = [op for pools in workloads.POOLS.values() for pool in pools for op in pool
              if op.get("expect") == "digest"]


def test_every_reference_digest_is_replayed():
    assert sorted(op["key"] for op in DIGEST_OPS) == sorted(workloads.load_digests())


@pytest.mark.parametrize("op", DIGEST_OPS, ids=lambda op: op["key"])
def test_stdout_matches_reference_digest(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op["argv"])
    ok, detail = workloads.check_cli(op, rc, buf.getvalue(), workloads.load_digests())
    assert ok, detail
