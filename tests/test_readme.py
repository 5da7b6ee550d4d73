"""The Python examples in README.md run against the package as it is.

Each ```python block runs in a fresh interpreter with ``src`` on the
import path, so an example that names a removed module, function or
keyword fails here.  The library quick start must also print what its
comments say.
"""

import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
    encoding="utf-8"), flags=re.M | re.S)


def run_block(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    proc = run_block(BLOCKS[index])
    assert proc.returncode == 0, proc.stderr


def test_library_quick_start_prints_what_it_says():
    """theta = 1.8755 rad per trip; after 3000 trips at gamma = 1e-3,
    w1 has fallen by e^{-gamma n / 2} = e^{-1.5} to 1e-3 relative
    (measured 0.2231228 against 0.2231302), and w1 w2 varies by less than
    1e-10 (measured 3.6e-12)."""
    quick = [b for b in BLOCKS if "run_collapse" in b]
    assert len(quick) == 1
    proc = run_block(quick[0])
    assert proc.returncode == 0, proc.stderr
    theta, ratio, spread = (float(v) for v in proc.stdout.split())
    assert round(theta, 4) == 1.8755
    assert abs(ratio / math.exp(-1.5) - 1.0) < 1e-3
    assert 0.0 <= spread < 1e-10
