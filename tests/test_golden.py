"""Golden bytes: the SHA-256 of every file the CLI writes for fixed inputs.

The other CLI tests check physics to a tolerance; these pin the exact bytes,
so a refactor that claims to keep the outputs unchanged is held to that.
The grid-engine cases (fresnel and split_step collapse, a tabulated
crosscheck) are small enough to run in well under a second.
The digests were recorded with numpy 2.4 on x86-64 Linux; a different
libm or numpy build may round differently and need them re-recorded.

The six grid-engine digests (the README crosscheck, the four grid collapse
runs and the tabulated crosscheck) were re-recorded once, when the Fresnel
chirps moved to mirrored half tables with the FFT shifts folded in, the
analytic propagator to one exponential and the Suzuki half-kicks were
merged.  Against the kernels before that change, every spot-size and width
value moved by at most 7e-14 relative, every centroid by at most 3.5e-14 of
its column's largest magnitude, and each l2_distance by at most 2.1e-11
absolute (the cancellation floor of ``phase_aligned_l2``); the
oracle tests in ``test_wavesim.py`` and ``test_kanai.py`` keep the earlier
kernels.  The other eight cases kept their bytes.

The two gaussian_q digests (the README and the tabulated
``collapse_gaussian_q.csv``) were re-recorded once more, when the flow
began to compose each trip's Magnus steps into one matrix before the
trip-to-trip products.  Against the stepwise products, the README file moved
by at most 9.3e-15 relative in ``w1_over_w0``, 1.2e-14 in ``w2_over_w0`` and
1.7e-14 in ``product``; the tabulated file by at most 2.1e-15, 9.3e-16 and
1.8e-15.  ``test_wavesim.py`` keeps the stepwise flow as an oracle.  The
other twelve cases kept their bytes.

The same two digests were re-recorded a third time, a physics-level
re-baseline, when the engine stopped integrating one (q-numerator,
q-denominator) flow per mirror and began to read both mirrors off the
damped-oscillator flow ``core.trip_flow``.  With constant friction that
flow's Magnus steps are exact, so the README file now matches the closed
form to rounding; against the two-flow engine it moved by at most 9.0e-9
relative in ``w1_over_w0`` and ``w2_over_w0`` and 1.9e-11 in ``product``.
The tabulated file, whose table nodes lie off the 1/8-trip step grid, moved
by at most 6.3e-8 and 6.2e-10.  ``test_wavesim.py`` keeps the two-flow
engine as an oracle.  The other twelve cases kept their bytes.

The two split_step collapse digests were re-recorded a second time, also a
physics-level re-baseline, when the engine stopped integrating the
continuous-time equation with 40 fourth-order Suzuki stages per trip and
began to apply each trip's own ray matrix exactly, as one kick-drift-kick.
That removes the Suzuki error: both files moved by at most 1.1e-5 relative
in ``w1_over_w0``, 6.9e-6 in ``w2_over_w0`` and 1.0e-5 in ``product``.
``test_wavesim.py`` keeps the Suzuki integrator as an oracle.  The other
twelve cases kept their bytes.

The six grid-engine digests were re-recorded a second time, a rounding
re-baseline, when the grid trips began to carry the spectral moments
through each trip's matrix instead of measuring every field's spectrum,
to leave the Fresnel post-chirp pending for the next pre-chirp, and to
take |psi|^2, its centroid and its variance from one product with the rows
[1, s, s^2].  Against the kernels before that change, the four collapse
files moved by at most 4.1e-15 relative in any column; in the two
crosscheck files ``centroid_wave`` moved by at most 4.2e-14 and
``width_wave`` by 2.9e-14 of ``width_wave``, and ``l2_distance`` by at most
9.5e-9 absolute, except at trip 0 of the tabulated file, where it fell
from the earlier formula's cancellation floor, 1.0e-7, to 0.0: there both
fields are the same sampled Gaussian.  ``tests/grid_oracles.py`` keeps
the earlier kernels.  The other eight cases kept their bytes.

Two tabulated digests (``collapse_gaussian_q.csv`` and the crosscheck) were
re-recorded when both the gaussian_q engine and the ODE branch of the
fundamental solutions began to read one flow, ``core.oscillator_flow``,
whose steps end on the 1/8-trip grid and at every table node.  The
collapse file is a physics-level re-baseline: its nodes now end steps, so
no kink of gdot falls inside one, and it moved toward the converged flow
by at most 4.6e-8 relative in ``w1_over_w0`` and ``w2_over_w0`` and 1.8e-10
in ``product``.  In the crosscheck only the analytic columns, which read
the ODE branch on its new grid, moved: ``centroid_analytic`` by at most
2.5e-14 of its largest magnitude, ``width_analytic`` by 3.6e-14 relative,
and ``l2_distance`` by 3.7e-13 absolute, within the branch's 1e-11
convergence tolerance.  ``tests/oracles.py`` keeps both earlier flows.
The other twelve cases kept their bytes.

The six grid-engine digests were re-recorded a third time, a rounding
re-baseline, when every quadratic phase on the grid (the Fresnel chirps,
the split-step kicks and drift, the sampled beam and the analytic
propagator) began to come from one angle-addition kernel, which evaluates
cos and sin on digit pairs of the centred index, and when the beam and the
propagator began to take their envelope as one real exp of a completed
square.  Against the per-sample cos/sin and complex exp, the four collapse
files moved by at most 3.9e-15 relative in any column (the displaced
split-step run; the other three by at most 1.1e-15).  In the README
crosscheck ``centroid_wave`` moved by at most 2.6e-15 of its largest
magnitude, ``width_wave`` by 1.8e-14 relative, and ``l2_distance`` by at
most 1.7e-11 absolute, the cancellation floor of ``phase_aligned_l2``; in
the tabulated crosscheck by at most 3.2e-16, 1.0e-15 and 3.7e-13.  The
analytic columns and trip 0's ``l2_distance`` of 0.0 did not move.
``tests/grid_oracles.py`` keeps the per-sample formulas.  The other eight
cases kept their bytes.

Six digests (the README ``ray``, ``lissajous`` and ``collapse`` and the
tabulated ``ray``, ``collapse`` and crosscheck) were re-recorded, a rounding
re-baseline, when ``core.flow_products`` stopped carrying the start from
block end to block end in a scalar loop and began to carry it by a
Hillis-Steele prefix product over blocks of 8 steps.  Against the products
carried one step at a time (``oracles.stepwise_products``), every column
moved by at most 1.2e-14 of its largest magnitude (the README lissajous
``yp``); the crosscheck's ``l2_distance`` moved by at most 3.7e-13 absolute.
``test_rescanned_cases_follow_the_stepwise_products`` holds each file to
that oracle.  The other eight cases kept their bytes.
"""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from kanai_cavity import cli, core, raysim
from oracles import stepwise_products

#: The README quick-start scenario.
README_SCENARIO = {
    "schema_version": 1,
    "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5, "lambda_over_f": 1e-4},
    "friction": {"kind": "constant", "gamma": 1e-3},
    "run": {"n_max": 3000, "dn": 1, "engine": "gaussian_q"},
    "outputs": {"formats": ["csv", "json"]},
}

#: A small monotone g(n) table whose nodes are off the 1/8-trip grid.
TABLE_N = (0.0, 3.3, 7.1, 12.45, 18.0, 26.7, 33.05, 41.9, 50.0, 60.0)
TABLE_G = (0.0, 0.011, 0.027, 0.05, 0.081, 0.12, 0.152, 0.21, 0.26, 0.33)

TABULATED_SCENARIO = {
    "schema_version": 1,
    "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5, "lambda_over_f": 1e-4},
    "friction": {"kind": "tabulated", "path": "table.csv"},
    "run": {"n_max": 60, "dn": 0.5, "engine": "gaussian_q"},
    "outputs": {"formats": ["csv", "json"]},
}
#: Commands that write every trip and so refuse dn != 1; their tabulated
#: runs use dn = 1, which leaves the bytes they wrote with dn = 0.5.
EVERY_TRIP = ("ray", "collapse")

#: Small grid-engine runs: 20 trips at gamma = 5e-3, centred and displaced.
GRID_N = {"fresnel": 512, "split_step": 256}

README_DIGESTS = {
    "stability": {
        "schedule_path.csv":
            "fd2b7dd5aaa1b1b3f472fc7a680d06832ad8930983c6e4d03f509ae6a8e2b6ce",
        "stability_raster.csv":
            "97a5ccfb8a753dac3b6c537c054b006898ead475010c65f8384d3e1bc4ad6c92",
    },
    "schedule": {
        "schedule.csv":
            "31a3f8bdec640ca1c200a5bf1a454d707d5843f584fcd82d3fd901b6ea4d4351",
    },
    "ray": {
        "ray_fit.json":
            "d8cc5cc064da05f47fcf1d3132295038e415c6897017e50e3d318e4bc71f0acb",
        "ray_trace.csv":
            "ac925fbd079f04a6d5a12b4fb4e305a27518dd07e2c7452d0462fe15fcf0d91d",
    },
    "lissajous": {
        "lissajous_fit.json":
            "a99a4772ef06b6cb9fc66ed9cfdd48cc54df6f7e1a0dcd74ab16e5e13d04f214",
        "lissajous_trace.csv":
            "53b3330d3e8e9878420fd6d5754ffaf12b7cac5fb1e8f1504f029f4edebd2856",
    },
    "collapse": {
        "collapse_gaussian_q.csv":
            "7a85ba3196cd11a9f3d2a74d201d99c75f44f1861c10ad4e310916a45acde176",
    },
    "crosscheck": {
        "crosscheck_report.json":
            "e0bb6f6caa139215a85d894a8f6c9b66b5400c129248395942f8d5e895b4bca1",
    },
}

TABULATED_DIGESTS = {
    "schedule": {
        "schedule.csv":
            "a67e587e4ec43b2f2113dc48db5254fe7fe36299c4b378276018f08f00d416e9",
    },
    "ray": {
        "ray_fit.json":
            "4ed2aa301aa5e1f5d0a044da2daa862878af27a59865c056cfb46fab8b4e5bc3",
        "ray_trace.csv":
            "21005a8624b9b3fd1da29d96e9ed1d2d035be3d9df3f384efb9e9c1f89766a01",
    },
    "collapse": {
        "collapse_gaussian_q.csv":
            "4808ec648afa19cd398cf7377e6bfb10794a8a3d2577044ab64bd057c730ddad",
    },
}


GRID_DIGESTS = {
    ("fresnel", 0.0):
        "1bd9639768f34c1368eb963c8120c0573e8bf785adf145f4e19fa12a6f12de37",
    ("fresnel", 1.0):
        "d361958621cae2ad56319eca0ba242a6706e58e26077e75bcae23677c01e5517",
    ("split_step", 0.0):
        "40157b816d46c5aaf8f93f6631037600b58b797e38544ae25884272547ac0a3f",
    ("split_step", 1.0):
        "e3c1b686520a22f2bfc026b7e7a0d1ea31bb0f567b0a9455f723b9e88e42acba",
}

#: A 20-trip crosscheck at N = 512 on the tabulated table.
TABULATED_CROSSCHECK_DIGEST = \
    "7e1225187cd2af82e55beec89134d56a6f3cb85dfa4e1701b33dd51f3076e5a6"


def _write_table(tmp_path):
    rows = ["n,g"] + ["%r,%r" % pair for pair in zip(TABLE_N, TABLE_G)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n")


def _digests(tmp_path, scenario, command):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    out = tmp_path / command
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_readme_scenario_bytes(tmp_path, command):
    assert _digests(tmp_path, README_SCENARIO, command) == \
        README_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(TABULATED_DIGESTS))
def test_tabulated_scenario_bytes(tmp_path, command):
    _write_table(tmp_path)
    scenario = TABULATED_SCENARIO
    if command in EVERY_TRIP:
        scenario = dict(scenario, run=dict(scenario["run"], dn=1))
    assert _digests(tmp_path, scenario, command) == \
        TABULATED_DIGESTS[command]


@pytest.mark.parametrize("engine,center", sorted(GRID_DIGESTS))
def test_grid_engine_collapse_bytes(tmp_path, engine, center):
    scenario = dict(README_SCENARIO,
                    friction={"kind": "constant", "gamma": 5e-3},
                    run={"n_max": 20, "engine": engine,
                         "grid_n": GRID_N[engine]},
                    collapse={"center_over_w1": center})
    assert _digests(tmp_path, scenario, "collapse") == {
        "collapse_%s.csv" % engine: GRID_DIGESTS[engine, center]}


def test_tabulated_crosscheck_bytes(tmp_path):
    _write_table(tmp_path)
    scenario = dict(TABULATED_SCENARIO, run={"n_max": 20, "grid_n": 512})
    assert _digests(tmp_path, scenario, "crosscheck") == {
        "crosscheck_report.json": TABULATED_CROSSCHECK_DIGEST}


def _stepwise(steps, start=(1.0, 0.0, 0.0, 1.0), ends_only=False):
    """``flow_products`` with every product carried one step at a time."""
    rows = stepwise_products(steps, start)
    return rows[::8] if ends_only else rows


def _columns(name, text):
    """The numbers of a CSV file by column, or of a JSON file by key path
    (list entries share their list's path)."""
    columns = {}
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        for j, key in enumerate(header):
            columns[key] = [float(row[j]) for row in rows]
        return columns

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + "/" + key)
        elif isinstance(value, list):
            for item in value:
                walk(item, path + "[]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            columns.setdefault(path, []).append(float(value))
    walk(json.loads(text), "")
    return columns


#: The six cases whose digests moved when ``core.flow_products`` began to
#: carry the start by a prefix scan: (scenario, command, run section).
RESCANNED = {
    "readme_ray": (README_SCENARIO, "ray", README_SCENARIO["run"]),
    "readme_lissajous": (README_SCENARIO, "lissajous", README_SCENARIO["run"]),
    "readme_collapse": (README_SCENARIO, "collapse", README_SCENARIO["run"]),
    "tabulated_ray": (TABULATED_SCENARIO, "ray",
                      dict(TABULATED_SCENARIO["run"], dn=1)),
    "tabulated_collapse": (TABULATED_SCENARIO, "collapse",
                           dict(TABULATED_SCENARIO["run"], dn=1)),
    "tabulated_crosscheck": (TABULATED_SCENARIO, "crosscheck",
                             {"n_max": 20, "grid_n": 512}),
}
#: Largest change of a rescanned column, relative to its largest magnitude
#: (the README lissajous ``yp`` moved most, by 1.2e-14).
RESCAN_TOL = 5e-14
#: l2 distances are held absolutely, at the cancellation floor of
#: ``phase_aligned_l2`` (they moved by at most 3e-13).
L2_FLOOR = 1e-11


@pytest.mark.parametrize("case", sorted(RESCANNED))
def test_rescanned_cases_follow_the_stepwise_products(tmp_path, monkeypatch,
                                                      case):
    """Each re-recorded file against the same run with every flow carried
    one step at a time by ``oracles.stepwise_products``: the same columns,
    each within ``RESCAN_TOL`` of its largest magnitude."""
    scenario, command, run = RESCANNED[case]
    _write_table(tmp_path)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(scenario, run=run)))

    def outputs(label):
        out = tmp_path / label
        assert cli.main([command, "--config", str(config),
                         "--out", str(out)]) == 0
        return {path.name: _columns(path.name, path.read_text())
                for path in sorted(out.iterdir())}

    got = outputs("scan")
    monkeypatch.setattr(core, "flow_products", _stepwise)
    monkeypatch.setattr(raysim, "flow_products", _stepwise)
    expected = outputs("stepwise")
    assert got.keys() == expected.keys()
    for name, columns in expected.items():
        assert got[name].keys() == columns.keys(), name
        for key, ref in columns.items():
            diff = np.max(np.abs(np.subtract(got[name][key], ref)))
            bound = (L2_FLOOR if "l2_distance" in key
                     else RESCAN_TOL * np.max(np.abs(ref)))
            assert diff <= bound, (name, key, diff)
