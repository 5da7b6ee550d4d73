"""What the benchmark in ``perfbench/`` needs from the package.

perfbench wraps package functions by name (``perfbench/tracing.py``) and
fails closed when one is missing, and it runs every command with the argv
``CMD --config PATH --out DIR --jobs 1``.  These tests keep both working,
so a refactor that renames a wrapped target fails here and not only in a
benchmark run.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import kanai_cavity
from kanai_cavity import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

INSTALL_AND_UNDO = """
import tracing
import kanai_cavity.cli as cli
raw = cli.iterate_ray
patches = tracing.instrument(tracing.Tracer())
assert cli.iterate_ray is not raw, "iterate_ray is not wrapped"
patches.undo()
assert cli.iterate_ray is raw, "undo left a wrapper installed"
"""


def test_perfbench_tracing_installs_every_target():
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(
        kanai_cavity.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PERFBENCH), import_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", INSTALL_AND_UNDO],
                          capture_output=True, text=True, env=env,
                          cwd=str(PERFBENCH))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_accepts_the_benchmark_argv(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"schema_version": 1,'
        ' "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5},'
        ' "friction": {"kind": "constant", "gamma": 1e-3},'
        ' "run": {"n_max": 20, "grid_n": 512},'
        ' "stability": {"resolution": 8}}')
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 0
    assert list(out.iterdir())
