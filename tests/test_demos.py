"""Every demo script, and the README's python blocks joined in order into one
script, run to completion in a fresh interpreter."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SCRIPT = "\n".join(re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                                     re.S | re.M))
assert README_SCRIPT, "README.md has no python block"
SCRIPTS = ([pytest.param([str(demo)], id=demo.name) for demo in DEMOS]
           + [pytest.param(["-c", README_SCRIPT], id="README.md")])


@pytest.mark.parametrize("argv", SCRIPTS)
def test_demo_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
