"""The package keeps every name the benchmark's tracer reports on.

``perfbench/tracer.py`` wraps the public functions and methods of the layer
modules and reports per-layer metrics for a fixed list of them.  A metric
whose function was renamed or made private goes missing, and the benchmark's
traced run then ends without a result.  The check runs in a subprocess so
that the wrapping stays out of this test session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import sys
sys.path[:0] = [%r, %r]
from tracer import Tracer
t = Tracer()
t.install()
metrics, missing = t.metrics()
assert missing == [], missing
""" % (str(ROOT / "perfbench"), str(ROOT / "src"))


def test_every_traced_name_exists():
    proc = subprocess.run([sys.executable, "-c", CODE], cwd=str(ROOT),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
