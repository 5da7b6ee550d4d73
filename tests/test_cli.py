"""End-to-end tests for the scenario-runner command line."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest
from scipy import ndimage

import kanai_cavity
from kanai_cavity import cli, core
from kanai_cavity._formats import csv_text
from kanai_cavity.paraxial import stability_map
from oracles import raster_columns
from textcheck import assert_equal_text

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
THETA = math.acos(-0.3)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5,
                     "lambda_over_f": 1e-4},
        "friction": {"kind": "constant", "gamma": 1e-3},
        "run": {"n_max": 50, "dn": 1},
        "outputs": {"formats": ["csv", "json"]},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    return np.genfromtxt(str(path), delimiter=",", names=True)


# ---------------------------------------------------------------------------
# stability


def test_stability_raster_has_two_stable_domains(tmp_path):
    res = 150
    cfg = write_config(tmp_path, stability={"resolution": res})
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "stability_raster.csv")
    assert rows.shape[0] == res * res
    # l1 is the outer loop, l2 the inner one
    assert np.all(rows["l1_over_f"][:res] == 0.0)
    theta = rows["theta"].reshape(res, res)
    stable = rows["stable"].reshape(res, res) > 0.5
    interior = stable & (theta > 1e-9) & (theta < math.pi - 1e-9)
    assert ndimage.label(interior)[1] == 2
    # the path overlay starts at the initial geometry
    path = read_csv(out / "schedule_path.csv")
    assert path["l1_over_f"][0] == pytest.approx(1.7, abs=1e-12)
    assert path["l2_over_f"][0] == pytest.approx(1.5, abs=1e-12)


def test_stability_raster_matches_its_columns(tmp_path):
    # Over two chunks, on unequal ranges so that l1 and l2 cannot swap.
    cfg = write_config(tmp_path, stability={
        "resolution": 101, "l1_range": [0.5, 3.5], "l2_range": [0.0, 4.0]})
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", cfg, "--out", str(out)]) == 0
    raster = stability_map((0.5, 3.5), (0.0, 4.0), 101)
    expected = csv_text(["l1_over_f", "l2_over_f", "stable", "theta"],
                        raster_columns(raster))
    assert_equal_text((out / "stability_raster.csv").read_bytes(),
                      expected.encode())


def test_stability_degenerate_grid_single_cell(tmp_path):
    cfg = write_config(tmp_path, stability={
        "resolution": 1, "l1_range": [1.7, 1.7], "l2_range": [1.5, 1.5]})
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(str(out / "stability_raster.csv"), delimiter=",",
                         names=True)
    assert rows.ndim == 0  # single data row
    assert float(rows["stable"]) == 1.0
    assert abs(float(rows["theta"]) - 1.875) < 5e-3


def test_stability_empty_range_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, stability={"l1_range": [2.0, 2.0]})
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


def test_stability_jobs_output_identical(tmp_path):
    cfg = write_config(tmp_path, stability={"resolution": 64})
    out1, out4 = tmp_path / "one", tmp_path / "four"
    assert cli.main(["stability", "--config", cfg, "--out", str(out1),
                     "--jobs", "1"]) == 0
    assert cli.main(["stability", "--config", cfg, "--out", str(out4),
                     "--jobs", "4"]) == 0
    assert_equal_text((out1 / "stability_raster.csv").read_bytes(),
                      (out4 / "stability_raster.csv").read_bytes())


# ---------------------------------------------------------------------------
# schedule


def test_schedule_csv_follows_closed_form(tmp_path):
    cfg = write_config(tmp_path, run={"n_max": 3000, "dn": 10})
    out = tmp_path / "out"
    assert cli.main(["schedule", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert header == "gamma_n,l1_over_f,l2_over_f,a,b_over_f,c_times_f"
    rows = read_csv(out / "schedule.csv")
    assert rows["l1_over_f"][0] == pytest.approx(1.7, abs=1e-12)
    assert rows["l2_over_f"][0] == pytest.approx(1.5, abs=1e-12)
    # far-mirror distance grows as 1 + 0.5 e^{gamma n}
    law = 1.0 + 0.5 * np.exp(rows["gamma_n"])
    assert np.max(np.abs(rows["l2_over_f"] - law)) < 1e-9
    # near-mirror distance falls monotonically toward one focal length
    assert np.all(np.diff(rows["l1_over_f"]) < 0.0)
    assert rows["l1_over_f"][-1] < 1.1
    # the trace element is frozen along the schedule
    assert np.max(np.abs(rows["a"] - rows["a"][0])) < 1e-10


def test_schedule_evaluates_friction_once(tmp_path, monkeypatch):
    """g(n) is evaluated once on the sample times and shared by the
    positions and the elements."""
    calls = []
    evaluate = core.FrictionProfile.evaluate

    def counted(self, n):
        calls.append(np.size(n))
        return evaluate(self, n)
    monkeypatch.setattr(core.FrictionProfile, "evaluate", counted)
    cfg = write_config(tmp_path, run={"n_max": 300, "dn": 1})
    assert cli.main(["schedule", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
    assert calls == [301]


def test_schedule_with_tabulated_friction(tmp_path):
    table = tmp_path / "gtable.csv"
    n = np.arange(0.0, 101.0)
    lines = ["n,g"] + ["%r,%r" % (float(v), float(2e-3 * v)) for v in n]
    table.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path,
                       friction={"kind": "tabulated", "path": "gtable.csv"},
                       run={"n_max": 100, "dn": 5})
    out = tmp_path / "out"
    assert cli.main(["schedule", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "schedule.csv")
    law = 1.0 + 0.5 * np.exp(2e-3 * np.arange(0.0, 101.0, 5.0))
    assert np.max(np.abs(rows["l2_over_f"] - law)) < 1e-9


# ---------------------------------------------------------------------------
# ray and lissajous


def test_ray_fit_matches_characteristic_roots(tmp_path):
    cfg = write_config(tmp_path, run={"n_max": 5000, "dn": 1})
    out = tmp_path / "out"
    assert cli.main(["ray", "--config", cfg, "--out", str(out)]) == 0
    trace = read_csv(out / "ray_trace.csv")
    assert trace.shape[0] == 5001
    assert trace["x"][0] == 1.0 and trace["xp"][0] == 0.0
    fit = json.loads((out / "ray_fit.json").read_text())
    assert abs(fit["decay_rate"] / 5e-4 - 1.0) < 0.01
    assert abs(fit["period"] / (2.0 * math.pi / THETA) - 1.0) < 0.01


def test_ray_zero_friction_has_no_decay(tmp_path):
    cfg = write_config(tmp_path, friction={"kind": "constant", "gamma": 0.0},
                       run={"n_max": 2000, "dn": 1})
    out = tmp_path / "out"
    assert cli.main(["ray", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "ray_fit.json").read_text())
    assert abs(fit["decay_rate"]) < 1e-6


def test_lissajous_trace_contracts(tmp_path):
    cfg = write_config(tmp_path, run={"n_max": 3000, "dn": 1})
    out = tmp_path / "out"
    assert cli.main(["lissajous", "--config", cfg, "--out", str(out)]) == 0
    trace = read_csv(out / "lissajous_trace.csv")
    assert list(trace.dtype.names) == ["n", "x", "xp", "y", "yp"]
    assert trace["x"][0] == 1.0 and trace["y"][0] == 0.7
    radius = np.hypot(trace["x"], trace["y"])
    assert np.max(radius[-100:]) < np.max(radius[:100])
    fit = json.loads((out / "lissajous_fit.json").read_text())
    assert abs(fit["decay_rate"] / 5e-4 - 1.0) < 0.02


# ---------------------------------------------------------------------------
# collapse


def test_collapse_gaussian_q_trace(tmp_path):
    cfg = write_config(tmp_path,
                       run={"n_max": 3000, "dn": 1, "engine": "gaussian_q"})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "collapse_gaussian_q.csv")
    assert rows.shape[0] == 3001
    # left spot collapses, right spot grows, product stays put
    assert rows["w1_over_w0"][0] == pytest.approx(0.91 ** 0.25, abs=1e-12)
    assert rows["w1_over_w0"][-1] < 0.3 * rows["w1_over_w0"][0]
    assert rows["w2_over_w0"][-1] > 2.0 * rows["w2_over_w0"][0]
    target = math.sqrt((1.0 - math.cos(THETA)) / 2.0)
    assert np.max(np.abs(rows["product"] / target - 1.0)) < 1e-6


def test_collapse_zero_trips_single_row(tmp_path):
    cfg = write_config(tmp_path,
                       run={"n_max": 0, "dn": 1, "engine": "gaussian_q"})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "collapse_gaussian_q.csv").read_text().splitlines()
    assert len(text) == 2  # header plus the initial row
    row = [float(v) for v in text[1].split(",")]
    assert row[0] == 0.0
    assert abs(row[1] - 0.91 ** 0.25) < 1e-12
    assert abs(row[3] - math.sqrt(0.65)) < 1e-12


def test_collapse_engine_comparison_report(tmp_path):
    cfg = write_config(tmp_path, run={
        "n_max": 40, "dn": 1, "engine": ["fresnel", "gaussian_q"],
        "grid_n": 1024})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out),
                     "--jobs", "2"]) == 0
    assert (out / "collapse_fresnel.csv").exists()
    assert (out / "collapse_gaussian_q.csv").exists()
    report = json.loads((out / "collapse_comparison.json").read_text())
    assert report["schema_version"] == 1
    assert report["engines"] == ["fresnel", "gaussian_q"]
    assert report["common_trips"] == 41
    assert report["max_w1_rel_spread"] < 1e-2
    assert report["max_w2_rel_spread"] < 1e-2
    assert report["diagnostics"] == {}


# ---------------------------------------------------------------------------
# crosscheck


def test_crosscheck_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["crosscheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "crosscheck_report.json").read_text())
    assert report["schema_version"] == 1
    assert len(report["records"]) == 51
    assert report["max_l2_distance"] < 1e-3
    record = report["records"][0]
    assert sorted(record) == ["centroid_analytic", "centroid_wave",
                              "l2_distance", "n", "width_analytic",
                              "width_wave"]
    assert report["max_l2_distance"] == max(
        r["l2_distance"] for r in report["records"])


@pytest.mark.parametrize("friction", [
    {"kind": "constant", "gamma": 1e-3},
    {"kind": "tabulated", "path": "table.csv"},
])
def test_crosscheck_zero_trips_single_record(tmp_path, friction):
    (tmp_path / "table.csv").write_text("n,g\n0,0\n0.5,0.001\n")
    cfg = write_config(tmp_path, friction=friction,
                       run={"n_max": 0, "grid_n": 1024})
    out = tmp_path / "out"
    assert cli.main(["crosscheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "crosscheck_report.json").read_text())
    assert [r["n"] for r in report["records"]] == [0]
    assert report["max_l2_distance"] < 1e-6


def test_collapse_past_the_table_names_the_last_trip_start(tmp_path,
                                                           capsys):
    """A fresnel collapse fetches the matrices of all its trips before the
    first one runs, so 30 trips on a 20-trip table stop on the last trip
    start, n = 29, before the half trips reach n = 30."""
    (tmp_path / "table.csv").write_text("n,g\n0,0\n10,0.01\n20,0.03\n")
    cfg = write_config(tmp_path,
                       friction={"kind": "tabulated", "path": "table.csv"},
                       run={"n_max": 30, "dn": 1, "engine": "fresnel",
                            "grid_n": 256})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: n = 29.0 outside tabulated friction range [0, 20]\n")
    assert not out.exists() or not list(out.iterdir())


def test_crosscheck_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"n_max": 5, "dn": 1, "grid_n": 16})
    out = tmp_path / "out"
    assert cli.main(["crosscheck", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists() or not list(out.iterdir())
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["collapse", "crosscheck"])
def test_beam_outside_window_exits_2(tmp_path, capsys, command):
    # 40 spot sizes off centre, the beam misses the sampled window entirely
    cfg = write_config(tmp_path,
                       run={"n_max": 5, "dn": 1, "engine": "fresnel",
                            "grid_n": 256},
                       collapse={"center_over_w1": 40},
                       crosscheck={"center_over_w1": 40})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "beam must lie inside the window" in err
    assert not out.exists() or not list(out.iterdir())


# ---------------------------------------------------------------------------
# non-finite results


@pytest.mark.parametrize("command, filename", [
    ("stability", "schedule_path.csv"),
    ("schedule", "schedule.csv"),
    ("ray", "ray_trace.csv"),
    ("lissajous", "lissajous_trace.csv"),
    ("collapse", "collapse_gaussian_q.csv"),
])
def test_non_finite_data_exits_3(tmp_path, capsys, command, filename):
    # at gamma = 1000, e^{g} overflows after one trip
    cfg = write_config(tmp_path,
                       friction={"kind": "constant", "gamma": 1000},
                       run={"n_max": 3, "engine": "gaussian_q"},
                       stability={"resolution": 8})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning reaches stderr
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: %s: column " % filename)
    assert "is not finite" in err
    assert not out.exists() or not list(out.iterdir())


def test_crosscheck_overflow_exits_3(tmp_path, capsys):
    # at gamma = 1000, W = e^{-g} underflows after one trip, so the analytic
    # propagator cannot be evaluated: a numerical failure, not a bad config
    cfg = write_config(tmp_path,
                       friction={"kind": "constant", "gamma": 1000},
                       run={"n_max": 3, "grid_n": 256})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["crosscheck", "--config", cfg, "--out",
                         str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: analytic propagator")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("gamma, code, prefix", [
    (1e-3, 0, "warning: fresnel run truncated at trip 0"),
    (1000, 3, "numerical failure: collapse_gaussian_q.csv: column "),
])
def test_truncated_multi_engine_collapse_prints_one_line(
        tmp_path, capsys, gamma, code, prefix):
    # a two-point grid truncates fresnel at trip 0; at gamma = 1000 the
    # gaussian_q CSV is refused as well, and then no warning is printed
    cfg = write_config(tmp_path,
                       friction={"kind": "constant", "gamma": gamma},
                       run={"n_max": 3, "engine": ["fresnel", "gaussian_q"],
                            "grid_n": 2})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix)


def _refuse_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def test_comparison_spreads_are_null_without_common_trips(tmp_path, capsys):
    # a two-point grid truncates fresnel at trip 0, leaving no common trip
    cfg = write_config(tmp_path, run={
        "n_max": 3, "engine": ["fresnel", "gaussian_q"], "grid_n": 2})
    out = tmp_path / "out"
    assert cli.main(["collapse", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "collapse_comparison.json").read_text(),
                        parse_constant=_refuse_constant)
    assert report["common_trips"] == 0
    assert report["max_w1_rel_spread"] is None
    assert report["max_w2_rel_spread"] is None
    assert list(report["diagnostics"]) == ["fresnel"]
    assert "warning: fresnel run truncated" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing: validation, determinism, formats, entry points


def test_validation_failures_exit_2(tmp_path, capsys):
    bad_configs = [
        write_config(tmp_path, "a.json", schema_version=99),
        write_config(tmp_path, "b.json", geometry={"l1_over_f": 1.7}),
        write_config(tmp_path, "c.json",
                     friction={"kind": "constant", "gamma": -1.0}),
        write_config(tmp_path, "d.json", friction={"kind": "mystery"}),
        write_config(tmp_path, "e.json",
                     run={"n_max": 10, "engine": "unknown_engine"}),
        write_config(tmp_path, "f.json", outputs={"formats": ["yaml"]}),
        write_config(tmp_path, "g.json",
                     friction={"kind": "tabulated", "path": "missing.csv"}),
    ]
    out = tmp_path / "out"
    for cfg in bad_configs:
        assert cli.main(["schedule", "--config", cfg,
                         "--out", str(out)]) == 2, cfg
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert cli.main(["schedule", "--config", str(not_json),
                     "--out", str(out)]) == 2
    assert cli.main(["schedule", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)]) == 2
    cfg = write_config(tmp_path, "h.json")
    assert cli.main(["schedule", "--config", cfg, "--out", str(out),
                     "--jobs", "0"]) == 2
    assert not out.exists() or not list(out.iterdir())
    capsys.readouterr()


@pytest.mark.parametrize("overrides, key", [
    ({"run": {"n_mx": 10}}, "run.n_mx"),
    ({"colapse": {"center_over_w1": 0.5}}, "'colapse'"),
    ({"friction": {"kind": "tabulated", "path": "table.csv", "gamma": 1e-3}},
     "friction.gamma"),
    ({"friction": {"kind": "constant", "gamma": 1e-3, "path": "table.csv"}},
     "friction.path"),
    ({"geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5, "lambda": 1e-4}},
     "geometry.lambda"),
    ({"_config_dir": "."}, "'_config_dir'"),
])
@pytest.mark.parametrize("command", ["schedule", "crosscheck"])
def test_unknown_config_keys_exit_2(tmp_path, capsys, command, overrides,
                                    key):
    (tmp_path / "table.csv").write_text("n,g\n0,0\n100,0.1\n")
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: unknown config ") and key in err
    assert not out.exists() or not list(out.iterdir())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, overrides", [
    ("collapse", {"geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5,
                               "lambda_over_f": NAN}}),
    ("ray", {"run": {"n_max": INF}}),
    ("schedule", {"run": {"n_max": 50, "dn": NAN}}),
    ("stability", {"stability": {"l1_range": [0.0, NAN]}}),
    ("stability", {"stability": {"l2_range": [-INF, 4.0]}}),
    ("ray", {"ray": {"x0": NAN}}),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command,
                                          overrides):
    # json.dumps writes these as the NaN / Infinity tokens json.loads accepts
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command, run", [
    ("schedule", {"n_max": 3000, "dn": 1e-320}),
    ("schedule", {"n_max": 3000, "dn": 1e-300}),
    ("ray", {"n_max": 1e15, "dn": 1}),
])
def test_oversize_runs_exit_2(tmp_path, capsys, command, run):
    # Each request is refused before any of its arrays is allocated: the
    # sample count overflows, exceeds the index range, or asks for petabytes.
    cfg = write_config(tmp_path, run=run)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("dn", [0.5, 7])
@pytest.mark.parametrize("command",
                         ["ray", "lissajous", "collapse", "crosscheck"])
def test_dn_is_refused_where_every_trip_is_written(tmp_path, capsys,
                                                   command, dn):
    """These commands write every trip, so a run.dn other than 1 could not
    take effect; it is refused before any work."""
    cfg = write_config(tmp_path, run={"n_max": 50, "dn": dn})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: run.dn must be 1")
    assert not out.exists() or not list(out.iterdir())


def _config_text(**overrides):
    def write(tmp_path):
        return pathlib.Path(write_config(tmp_path, **overrides)).read_bytes()
    return write


def _table(data):
    def write(tmp_path):
        (tmp_path / "table.csv").write_bytes(data)
        return _config_text(friction={"kind": "tabulated",
                                      "path": "table.csv"})(tmp_path)
    return write


HUGE = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("command, config, code", [
    ("schedule", _config_text(run={"n_max": HUGE}), 2),
    ("schedule", _config_text(geometry={"l1_over_f": HUGE,
                                        "l2_over_f": 1.5}), 2),
    ("stability", _config_text(stability={"l1_range": [0.0, HUGE]}), 2),
    ("schedule", lambda tmp_path: b"[" * 100000 + b"]" * 100000, 2),
    ("schedule", lambda tmp_path: b'{"schema_version": 1, "\xff": 0}', 2),
    ("schedule", _table(b"n,g\n0,0\n\xff,1\n"), 2),
    ("schedule", _table(b"n,g\n" + b"0" * 140000 + b",0\n"), 2),
    ("ray", _config_text(run={"n_max": 1e20}), 2),
    ("lissajous", _config_text(run={"n_max": 1e20}), 2),
    ("collapse", _config_text(run={"n_max": 1e20}), 2),
    ("crosscheck", _config_text(run={"n_max": 1e20}), 2),
    ("crosscheck", _config_text(run={"n_max": 1, "window_factor": 1e-300,
                                     "grid_n": 16}), 3),
    ("crosscheck", _config_text(crosscheck={"width_scale": 1e300}), 3),
], ids=["n_max-int-overflow", "l1-int-overflow", "range-int-overflow",
        "deep-nesting", "config-not-utf8", "table-not-utf8",
        "table-long-field", "ray-1e20", "lissajous-1e20", "collapse-1e20",
        "crosscheck-1e20",
        "window-factor-overflow", "width-scale-overflow"])
def test_hostile_inputs_exit_with_one_line(tmp_path, capsys, command,
                                           config, code):
    """Inputs that once ended in a traceback: numbers beyond the float
    range, deep nesting, bytes that are not UTF-8, an overlong CSV field,
    trip counts beyond float64's exact integers and float overflow."""
    path = tmp_path / "config.json"
    path.write_bytes(config(tmp_path))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert not out.exists() or not list(out.iterdir())


def test_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path,
                       run={"n_max": 200, "dn": 1, "engine": "gaussian_q"})
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert cli.main(["collapse", "--config", cfg,
                         "--out", str(out)]) == 0
        assert cli.main(["crosscheck", "--config", cfg,
                         "--out", str(out)]) == 0
    for name in ("collapse_gaussian_q.csv", "crosscheck_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_formats_filter_skips_csv(tmp_path):
    cfg = write_config(tmp_path, run={"n_max": 100, "dn": 1},
                       outputs={"formats": ["json"]})
    out = tmp_path / "out"
    assert cli.main(["ray", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "ray_fit.json").exists()
    assert not (out / "ray_trace.csv").exists()


def test_out_flag_overrides_config_directory(tmp_path):
    configured = tmp_path / "configured"
    cfg = write_config(tmp_path, run={"n_max": 20, "dn": 1},
                       outputs={"directory": str(configured),
                                "formats": ["csv", "json"]})
    out = tmp_path / "flag"
    assert cli.main(["ray", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "ray_trace.csv").exists()
    assert not configured.exists()
    # without the flag, outputs.directory is honored
    assert cli.main(["ray", "--config", cfg]) == 0
    assert (configured / "ray_trace.csv").exists()


def _declared_script_launcher(directory):
    """Write the launcher pip generates for the declared console script.

    The entry point is read from ``[project.scripts]`` in the repository's
    ``pyproject.toml``, so the test follows what an install would ship
    without needing the package to be installed.
    """
    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = toml.load(fh)["project"].get("scripts", {})
    assert "kanai-cavity" in scripts, "[project.scripts] lacks kanai-cavity"
    module, attr = scripts["kanai-cavity"].split(":")
    launcher = directory / "kanai-cavity"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)
    return launcher


def _child_env():
    """Environment that makes a child process import this `kanai_cavity`."""
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(
        kanai_cavity.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p)
    return env


#: Refuses every scipy import, runs the given commands on one config and
#: prints {command: [exit code, {file: sha256}]} and the scipy modules loaded.
_NO_SCIPY_CHILD = """
import hashlib, json, pathlib, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is refused: " + name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from kanai_cavity import cli

config, root = sys.argv[1], pathlib.Path(sys.argv[2])
runs = {}
for command in sys.argv[3:]:
    out = root / command
    code = cli.main([command, "--config", config, "--out", str(out)])
    runs[command] = [code, {path.name: hashlib.sha256(path.read_bytes())
                            .hexdigest() for path in sorted(out.iterdir())}]
print(json.dumps({"runs": runs, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # The package runs on numpy alone: with scipy refused, every README
    # command writes its golden bytes, and numpy is the one declared
    # runtime dependency.
    from test_golden import README_DIGESTS, README_SCENARIO

    config = tmp_path / "readme.json"
    config.write_text(json.dumps(README_SCENARIO))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(config), str(tmp_path)]
        + sorted(README_DIGESTS),
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["scipy"] == []
    assert result["runs"] == {command: [0, digests]
                              for command, digests in README_DIGESTS.items()}
    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        project = toml.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_tabulated_runs_import_no_numpy_ma(tmp_path):
    # The step grid's union with the table nodes must not reach np.unique's
    # masked-array check, which imports numpy.ma in every such process.
    from test_golden import TABULATED_SCENARIO, _write_table

    _write_table(tmp_path)
    runs = {"collapse": dict(TABULATED_SCENARIO["run"], dn=1),
            "crosscheck": {"n_max": 20, "grid_n": 512}}
    configs = []
    for command, run in runs.items():
        config = tmp_path / (command + ".json")
        config.write_text(json.dumps(dict(TABULATED_SCENARIO, run=run)))
        configs += [command, str(config)]
    child = ("import json, sys\n"
             "from kanai_cavity import cli\n"
             "args = sys.argv[2:]\n"
             "codes = [cli.main([command, '--config', config, '--out', "
             "sys.argv[1] + '/' + command])\n"
             "         for command, config in zip(args[::2], args[1::2])]\n"
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "out")] + configs,
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], False]


def test_stability_run_imports_no_fractions_or_decimal(tmp_path):
    # Exact rational arithmetic would cost every CLI process its import;
    # the 17-digit writer needs neither module.
    from test_golden import README_SCENARIO

    config = tmp_path / "readme.json"
    config.write_text(json.dumps(README_SCENARIO))
    child = ("import json, sys\n"
             "from kanai_cavity import cli\n"
             "code = cli.main(['stability', '--config', sys.argv[1], "
             "'--out', sys.argv[2]])\n"
             "print(json.dumps([code, sorted({'fractions', 'decimal'} "
             "& set(sys.modules))]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert (tmp_path / "out" / "stability_raster.csv").is_file()


def _libc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return ""


def test_cli_import_sets_no_heap_policy(tmp_path):
    # Importing the package changes nothing in the process: no C library is
    # opened and mallopt is not called until cli.main runs.  (numpy imports
    # ctypes itself, so the module's presence would show nothing.)
    child = ("import ctypes, json, sys\n"
             "import numpy\n"
             "opened = []\n"
             "ctypes.CDLL = lambda *args, **kwargs: opened.append(args)\n"
             "import kanai_cavity, kanai_cavity.cli\n"
             "print(json.dumps([opened, kanai_cavity.cli._keep_freed_heap"
             ".cache_info().currsize]))\n")
    proc = subprocess.run([sys.executable, "-c", child],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0]


@pytest.mark.parametrize("libc", ["glibc 2.36", "musl", None, ValueError])
def test_main_keeps_freed_heap_once_on_glibc(tmp_path, monkeypatch, libc):
    # cli.main sets M_TRIM_THRESHOLD (-1) to 64 MiB and M_MMAP_THRESHOLD
    # (-3) to 32 MiB once per process on glibc, and never where os.confstr
    # raises or names another C library.
    import ctypes

    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    class Libc:
        mallopt = Mallopt()

    def confstr(name):
        assert name == "CS_GNU_LIBC_VERSION"
        if libc is ValueError:
            raise ValueError("unrecognized configuration name")
        return libc

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(os, "confstr", confstr)
    cli._keep_freed_heap.cache_clear()
    config = write_config(tmp_path, run={"n_max": 5, "dn": 1})
    try:
        for _ in range(2):
            assert cli.main(["schedule", "--config", config, "--out",
                             str(tmp_path / "out")]) == 0
    finally:
        cli._keep_freed_heap.cache_clear()
    expected = [(-1, 64 << 20), (-3, 32 << 20)]
    assert calls == (expected if libc == "glibc 2.36" else [])


@pytest.mark.skipif(not _libc_version().startswith("glibc"),
                    reason="the heap policy applies on glibc only")
def test_second_raster_job_reuses_the_freed_heap(tmp_path):
    # Without the policy glibc trims the heap a 200 x 200 raster freed, and
    # the second run faults it in again: about 1,740 minor faults each run
    # after the first.  With it the second run took none.
    config = write_config(tmp_path, stability={"resolution": 200})
    child = ("import json, resource, sys\n"
             "from kanai_cavity import cli\n"
             "runs = []\n"
             "for _ in range(2):\n"
             "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
             "    code = cli.main(['stability', '--config', sys.argv[1], "
             "'--out', sys.argv[2]])\n"
             "    runs.append([code, resource.getrusage("
             "resource.RUSAGE_SELF).ru_minflt - before])\n"
             "print(json.dumps(runs))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, config, str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    (first_code, first), (second_code, second) = json.loads(proc.stdout)
    assert first_code == second_code == 0
    assert second < 0.1 * first, (first, second)


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # main parses with one parser built once: two runs of different commands
    # and then a bad argv behave as with a fresh parser each call
    cfg = write_config(tmp_path, run={"n_max": 20, "dn": 1})
    assert cli.main(["ray", "--config", cfg, "--out",
                     str(tmp_path / "ray")]) == 0
    assert cli.main(["schedule", "--config", cfg, "--out",
                     str(tmp_path / "schedule")]) == 0
    assert (tmp_path / "ray" / "ray_fit.json").exists()
    assert (tmp_path / "schedule" / "schedule.csv").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        cli.main(["ray", "--config"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: kanai-cavity ray [-h] --config CONFIG [--out OUT] "
        "[--jobs JOBS]",
        "kanai-cavity ray: error: argument --config: expected one argument"]
    assert cli._parser() is cli._parser()


def test_console_script_entry_point(tmp_path):
    script = _declared_script_launcher(tmp_path)
    env = _child_env()
    cfg = write_config(tmp_path, run={"n_max": 20, "dn": 1})
    out = tmp_path / "out"
    proc = subprocess.run([str(script), "ray", "--config", cfg,
                           "--out", str(out)],
                          capture_output=True, text=True, env=env,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (out / "ray_fit.json").exists()
    # with no command the script stops in argparse under its declared name
    proc = subprocess.run([str(script)], capture_output=True, text=True,
                          env=env, cwd=str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "kanai-cavity" in proc.stderr


@pytest.mark.skipif(shutil.which("kanai-cavity") is None,
                    reason="kanai-cavity console script not on PATH")
def test_installed_console_script(tmp_path):
    script = shutil.which("kanai-cavity")
    cfg = write_config(tmp_path, run={"n_max": 20, "dn": 1})
    out = tmp_path / "out"
    proc = subprocess.run([script, "ray", "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "ray_fit.json").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, run={"n_max": 20, "dn": 1})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "kanai_cavity.cli", "ray",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "ray_trace.csv").exists()
