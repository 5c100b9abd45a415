"""Each demo script, and the README's library session, runs to completion
and prints what it printed when pinned."""

import hashlib
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


# sha256 of each run's stdout; any change to what a demo prints shows here
DIGESTS = {
    "moduli_polynomials.py": "f29fe620138380a5f9d26e2ad2f175638867f0f987c27ef8dea5dea003458706",
    "period_matrix.py": "7eb049e08b7bacfab87ecdb21ad6208bb69f741d65316efeaa99acb4dd3aba10",
    "semistable_series.py": "78fbb1508ad6eb1ae58f7f5e3bbbecf31467742c85a19f9340694c6cb783bb04",
    "README.md": "f22f83d6c702f816eab83613ebbf798217c1b048bb4b828e93a5b3f048d71852",
}


@pytest.mark.parametrize("args", [[str(p)] for p in DEMOS] + [["-c", SESSION]],
                         ids=[p.name for p in DEMOS] + ["README.md"])
def test_demo_output_is_pinned(request, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    name = request.node.callspec.id
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DIGESTS[name]
