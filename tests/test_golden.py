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
"""

import hashlib
import json

import pytest

from kanai_cavity import cli

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
            "881447b215e813c9342cd10bba4d2367b06e2db3e7f108ef079aaee444d058bb",
        "ray_trace.csv":
            "6711b1ff7b7795a7bc2f7e1e4f0909ab61c66839eee2117abf3c14749ddb29ef",
    },
    "lissajous": {
        "lissajous_fit.json":
            "f89d063dc0b840263c7e24ffc20fc5d739a4675ea6c0fc249fa86d9589393283",
        "lissajous_trace.csv":
            "e8835944283c3ae660da45a65dd64c298f8e1813ffddad511e734793dae4cd29",
    },
    "collapse": {
        "collapse_gaussian_q.csv":
            "16c69ba5bd0b52ab1070047a0a724cb986221b7df14e708381bf9a1ebc4fc83d",
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
            "990bddedd503c4b9a2bdd8d6d795aa2b69078267e7b8d7bdec9956b7c8119d6f",
        "ray_trace.csv":
            "4afe0537c0c5e3777eee2a7e1beaeb9aa97719d9dfff9b94f2a91498c3027a54",
    },
    "collapse": {
        "collapse_gaussian_q.csv":
            "1b919592236be34ccc28b48b0919cc1848c358ff536b6323f5dd1b0aea07cabc",
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
    "e50b97a9a2b0920ae6e121657603a122d3691dd6353ff550ca576543afd51b4c"


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
