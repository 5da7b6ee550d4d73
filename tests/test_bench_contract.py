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


def run_with_perfbench(code, *args):
    """Run ``code`` in a child that imports perfbench and this package."""
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(
        kanai_cavity.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PERFBENCH), import_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code] + list(args),
                          capture_output=True, text=True, env=env,
                          cwd=str(PERFBENCH))


def test_perfbench_tracing_installs_every_target():
    proc = run_with_perfbench(INSTALL_AND_UNDO)
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


GRID_RUNS = """
import json, os, sys
import tracing
from kanai_cavity import cli
tracer = tracing.Tracer()
tracing.instrument(tracer)
work = sys.argv[1]
base = {"schema_version": 1,
        "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5,
                     "lambda_over_f": 1e-4},
        "friction": {"kind": "constant", "gamma": 1e-3},
        "collapse": {"center_over_w1": 0.5}}
# transforms of 3 trips: the first field's moments take 2 (spectrum and
# covariance), then fresnel 1 per trip + 1 per row, split_step 2 per trip
# + 1 per row, crosscheck 1 per trip
runs = (("collapse", "fresnel", 2 + 3 + 4),
        ("collapse", "split_step", 2 + 3 * 2 + 4),
        ("crosscheck", "fresnel", 2 + 3))
for command, engine, transforms in runs:
    cfg = dict(base, run={"n_max": 3, "grid_n": 256, "engine": engine})
    path = os.path.join(work, "%s_%s.json" % (command, engine))
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    tracer.reset()
    code = cli.main([command, "--config", path, "--out",
                     os.path.join(work, "out"), "--jobs", "1"])
    metrics = tracing.summarize(tracer)
    assert code == 0, (command, engine, code)
    tracing.check_fft_traced(metrics)
    assert metrics["wavesim.fft.calls"] == transforms, (
        command, engine, metrics["wavesim.fft.calls"])
"""


def test_grid_trips_run_through_the_traced_fft(tmp_path):
    """Every transform of a grid trip is a traced ``wavesim.np.fft`` span.

    A kernel that reaches numpy's transforms another way (say, cached in a
    closure or a dict) passes the other tests; a benchmark run then stops
    in ``check_fft_traced``, or counts too few transforms."""
    proc = run_with_perfbench(GRID_RUNS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


SOLUTION_CALLS = """
import json, os, sys
import tracing
from kanai_cavity import cli
tracer = tracing.Tracer()
tracing.instrument(tracer)
work = sys.argv[1]
table = os.path.join(work, "table.csv")
with open(table, "w") as handle:
    handle.write("n,g\\n0,0\\n3.3,0.011\\n7.1,0.027\\n12.45,0.05\\n"
                 "26.7,0.12\\n41.9,0.21\\n50,0.26\\n")
calls = []
for n_max in (5, 40):
    cfg = {"schema_version": 1,
           "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5},
           "friction": {"kind": "tabulated", "path": table},
           "run": {"n_max": n_max, "grid_n": 256}}
    path = os.path.join(work, "crosscheck_%d.json" % n_max)
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    tracer.reset()
    code = cli.main(["crosscheck", "--config", path, "--out",
                     os.path.join(work, "out"), "--jobs", "1"])
    assert code == 0, (n_max, code)
    calls.append(tracing.summarize(tracer)["core.solution_eval.calls"])
assert calls[0] == calls[1] > 0, calls
"""


def test_crosscheck_evaluates_the_classical_solutions_once_per_run(
        tmp_path):
    """The traced ``ClassicalSolution._eval`` calls of a tabulated
    crosscheck do not grow with the trip count: u1, u2 and u2' are
    evaluated over every trip at once, not one scalar per trip."""
    proc = run_with_perfbench(SOLUTION_CALLS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


TRIP_CALLS = """
import tracing
from kanai_cavity.core import FrictionProfile
from kanai_cavity.kanai import crosscheck_engines
from kanai_cavity.paraxial import ResonatorGeometry, round_trip_matrix
from kanai_cavity.schedule import MirrorSchedule
from kanai_cavity.wavesim import eigenmode_beam, run_collapse
calls = []


def counting(raw):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)
    return wrapper


tracing.Patches().replace("wavesim", "fresnel_round_trip", counting)
sched = MirrorSchedule(ResonatorGeometry(1.7, 1.5),
                       FrictionProfile.constant(1e-3))
beam = eigenmode_beam(round_trip_matrix(sched.geom0))
for n_max in (0, 1, 5):
    del calls[:]
    crosscheck_engines(sched, 1e-4, n_max, grid_n=256)
    assert len(calls) == n_max, ("crosscheck", n_max, len(calls))
    del calls[:]
    trace = run_collapse(sched, beam, n_max, "fresnel", wavelength=1e-4,
                         grid_n=256)
    assert not trace.truncated
    assert len(calls) == n_max, ("collapse", n_max, len(calls))
"""


def test_grid_trips_call_the_rebound_fresnel_trip():
    """perfbench counts Fresnel trips by rebinding ``fresnel_round_trip``
    in every package module.  A crosscheck and a fresnel collapse of n
    trips each reach the rebound function n times, so a trip loop that
    held its own reference to the raw function (say, as a default
    argument) would drop their trips out of the trace."""
    proc = run_with_perfbench(TRIP_CALLS)
    assert proc.returncode == 0, proc.stderr
