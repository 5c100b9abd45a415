"""Each demo script, and the README's library session, runs to completion
and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the README's one ```python block, run as ``python -c``
SESSION = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("args", [[str(p)] for p in DEMOS] + [["-c", SESSION]],
                         ids=[p.name for p in DEMOS] + ["README.md"])
def test_demo_runs(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
