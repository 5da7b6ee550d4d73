"""Scenario runner: JSON config in, plot-ready CSV / JSON reports out.

Commands::

    kanai-cavity stability  --config cfg.json [--out DIR]
    kanai-cavity schedule   --config cfg.json [--out DIR]
    kanai-cavity ray        --config cfg.json [--out DIR]
    kanai-cavity lissajous  --config cfg.json [--out DIR]
    kanai-cavity collapse   --config cfg.json [--out DIR]
    kanai-cavity crosscheck --config cfg.json [--out DIR]

Every command also accepts ``--jobs N`` (N >= 1), which has no effect.
Exit codes: 0 success, 2 validation error (bad config, bad domain, a run
too large for memory), 3 numerical failure (singular kernel, aliasing,
caustic, non-finite data, floating-point overflow).

The config is a single JSON document with a ``schema_version`` field; see
the README for the full schema.  A key outside it is refused (exit 2).
Outputs are deterministic: floats are written with 17 significant digits
in lowercase scientific notation and every file is written to a temp file
and atomically renamed, so a failed run leaves no partial data files.
Every data value is finite except theta = nan for the unstable cells of
the stability raster.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._formats import atomic_write_text, csv_text, json_text
from .core import FrictionProfile
from .errors import (KanaiCavityError, NumericalError, ValidationError)
from .kanai import crosscheck_engines
from .paraxial import ResonatorGeometry, round_trip_matrix, stability_map
from .raysim import (fit_damped_oscillation, fit_envelope_rate, iterate_ray,
                     lissajous, pattern_radius)
from .schedule import MirrorSchedule
from .wavesim import (DEFAULT_GRID_N, DEFAULT_WAVELENGTH,
                      DEFAULT_WINDOW_FACTOR, eigenmode_beam, GaussianBeam,
                      run_collapse)

SCHEMA_VERSION = 1
ENGINES = ("fresnel", "split_step", "gaussian_q")
#: The keys each config section may hold; any other key is refused.
SECTION_KEYS = {
    "geometry": ("l1_over_f", "l2_over_f", "lambda_over_f"),
    "friction": ("kind", "gamma", "path"),
    "run": ("n_max", "dn", "grid_n", "window_factor", "engine"),
    "stability": ("resolution", "l1_range", "l2_range"),
    "ray": ("x0", "xp0"),
    "lissajous": ("x0", "xp0", "y0", "yp0"),
    "collapse": ("center_over_w1",),
    "crosscheck": ("center_over_w1", "tilt", "width_scale"),
    "outputs": ("formats", "directory"),
}


def _fail(message):
    raise ValidationError(message)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail("cannot read config %s: %s" % (path, exc))
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("config %s is not valid JSON: %s" % (path, exc))
    except RecursionError:
        _fail("config %s is nested too deeply to parse" % path)
    if not isinstance(cfg, dict):
        _fail("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        _fail("config must declare \"schema_version\": %d" % SCHEMA_VERSION)
    for name, sec in cfg.items():
        if name != "schema_version" and name not in SECTION_KEYS:
            _fail("unknown config section %r" % name)
        # A section that is not an object is refused when a command reads it.
        if isinstance(sec, dict):
            _reject_unknown(sec, name, SECTION_KEYS[name])
    return cfg


def _reject_unknown(sec, name, keys, context=""):
    for key in sec:
        if key not in keys:
            _fail("unknown config key %s.%s%s" % (name, key, context))


def _section(cfg, name, required=False):
    sec = cfg.get(name)
    if sec is None:
        if required:
            _fail("config section %r is required for this command" % name)
        return {}
    if not isinstance(sec, dict):
        _fail("config section %r must be an object" % name)
    return sec


def _is_finite_number(value):
    """A JSON number inside the float range; NaN, infinities and integers
    beyond it compare false, and a bool is no number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(sec, name, key, default=None, minimum=None, integer=False):
    value = sec.get(key, default)
    if value is None:
        _fail("%s.%s is required" % (name, key))
    if not _is_finite_number(value):
        _fail("%s.%s must be a finite number" % (name, key))
    if integer:
        if float(value) != int(value):
            _fail("%s.%s must be an integer" % (name, key))
        value = int(value)
    else:
        value = float(value)
    if minimum is not None and value < minimum:
        _fail("%s.%s must be >= %g" % (name, key, minimum))
    return value


def _pair(sec, name, key, default):
    value = sec.get(key, list(default))
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_finite_number(v) for v in value)):
        _fail("%s.%s must be a pair of finite numbers" % (name, key))
    lo, hi = float(value[0]), float(value[1])
    if hi < lo:
        _fail("%s.%s is an empty range" % (name, key))
    return lo, hi


def _build_geometry(cfg):
    geo = _section(cfg, "geometry", required=True)
    l1 = _number(geo, "geometry", "l1_over_f", minimum=0.0)
    l2 = _number(geo, "geometry", "l2_over_f", minimum=0.0)
    wavelength = _number(geo, "geometry", "lambda_over_f",
                         default=DEFAULT_WAVELENGTH)
    if wavelength <= 0.0:
        _fail("geometry.lambda_over_f must be > 0")
    return ResonatorGeometry(l1, l2), wavelength


def _build_friction(cfg, config_dir):
    fr = _section(cfg, "friction", required=True)
    kind = fr.get("kind")
    if kind == "constant":
        _reject_unknown(fr, "friction", ("kind", "gamma"),
                        " for constant friction")
        gamma = _number(fr, "friction", "gamma", minimum=0.0)
        return FrictionProfile.constant(gamma)
    if kind == "tabulated":
        _reject_unknown(fr, "friction", ("kind", "path"),
                        " for tabulated friction")
        path = fr.get("path")
        if not isinstance(path, str) or not path:
            _fail("friction.path is required for tabulated friction")
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        if not os.path.exists(path):
            _fail("friction table %s does not exist" % path)
        return FrictionProfile.from_csv(path)
    _fail("friction.kind must be \"constant\" or \"tabulated\"")


def _run_section(cfg):
    run = _section(cfg, "run")
    n_max = _number(run, "run", "n_max", default=3000, minimum=0, integer=True)
    if n_max > 2 ** 53:
        _fail("run.n_max must be <= 2**53 (trip indices are float64)")
    dn = _number(run, "run", "dn", default=1.0)
    if dn <= 0.0:
        _fail("run.dn must be > 0")
    grid_n = _number(run, "run", "grid_n", default=DEFAULT_GRID_N,
                     minimum=2, integer=True)
    window = _number(run, "run", "window_factor",
                     default=DEFAULT_WINDOW_FACTOR)
    if window <= 0.0:
        _fail("run.window_factor must be > 0")
    engine = run.get("engine", "gaussian_q")
    if not isinstance(engine, (str, list)):
        _fail("run.engine must be an engine name or a list of names")
    engines = [engine] if isinstance(engine, str) else list(engine)
    for name in engines:
        if name not in ENGINES:
            _fail("run.engine must be among %r" % (ENGINES,))
    if len(set(engines)) != len(engines) or not engines:
        _fail("run.engine must list distinct engines")
    return {"n_max": n_max, "dn": dn, "grid_n": grid_n,
            "window_factor": window, "engines": engines}


def _formats(cfg):
    out = _section(cfg, "outputs")
    formats = out.get("formats", ["csv", "json"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("csv", "json") for f in formats)):
        _fail("outputs.formats must be a non-empty subset of [csv, json]")
    return set(formats)


def _setup(cfg, sampled=False):
    """Schedule, wavelength and run options; dn != 1 needs ``sampled``."""
    geom, wavelength = _build_geometry(cfg)
    friction = _build_friction(cfg, cfg["_config_dir"])
    run = _run_section(cfg)
    if run["dn"] != 1.0 and not sampled:
        _fail("run.dn must be 1 for this command, which writes every trip")
    return MirrorSchedule(geom, friction), wavelength, run


def _data_csv(filename, header, columns, nan_column=None):
    """CSV text whose values must be finite, except NaN in ``nan_column``;
    a column may be a ``(values, index)`` pair, as :func:`csv_text` takes."""
    for name, column in zip(header, columns):
        values = column[0] if isinstance(column, tuple) else column
        if name != nan_column and not np.all(np.isfinite(values)):
            raise NumericalError("%s: column %s is not finite"
                                 % (filename, name))
    return csv_text(header, columns)


def _sample_times(n_max, dn):
    steps = n_max / dn + 1e-9
    if not math.isfinite(steps) or steps >= np.iinfo(np.intp).max:
        _fail("run.n_max / run.dn = %g samples is more than an array can hold"
              % (n_max / dn))
    return np.arange(math.floor(steps) + 1) * dn


def cmd_stability(cfg):
    """Stability raster over (L1/f, L2/f) plus the schedule path overlay."""
    st = _section(cfg, "stability")
    resolution = _number(st, "stability", "resolution", default=400,
                         minimum=1, integer=True)
    l1_lo, l1_hi = _pair(st, "stability", "l1_range", (0.0, 4.0))
    l2_lo, l2_hi = _pair(st, "stability", "l2_range", (0.0, 4.0))
    sched, _, run = _setup(cfg, sampled=True)
    raster = stability_map((l1_lo, l1_hi), (l2_lo, l2_hi), resolution)
    n_values = _sample_times(run["n_max"], run["dn"])
    path_l1, path_l2 = sched.positions_at(n_values)
    # The grids as (values, index) pairs, l1 outer and l2 inner, with no
    # sort to find the grid values again.
    steps = np.arange(resolution)
    columns = [(raster.l1_values, np.repeat(steps, resolution)),
               (raster.l2_values, np.tile(steps, resolution)),
               raster.stable.ravel(), raster.theta.ravel()]
    return {
        "stability_raster.csv": _data_csv(
            "stability_raster.csv",
            ["l1_over_f", "l2_over_f", "stable", "theta"], columns,
            nan_column="theta"),
        "schedule_path.csv": _data_csv(
            "schedule_path.csv", ["n", "l1_over_f", "l2_over_f"],
            [n_values, path_l1, path_l2]),
    }


def cmd_schedule(cfg):
    """Mirror positions and matrix elements along the damping schedule."""
    sched, _, run = _setup(cfg, sampled=True)
    n_values = _sample_times(run["n_max"], run["dn"])
    g_values = sched.friction.evaluate(n_values)[0]
    l1, l2 = sched._positions(g_values)
    a, b, c = sched._elements(g_values)
    return {"schedule.csv": _data_csv(
        "schedule.csv",
        ["gamma_n", "l1_over_f", "l2_over_f", "a", "b_over_f", "c_times_f"],
        [g_values, l1, l2, a, b, c])}


def cmd_ray(cfg):
    """Single-ray trace and fitted decay/period."""
    sched, _, run = _setup(cfg)
    ray = _section(cfg, "ray")
    x0 = _number(ray, "ray", "x0", default=1.0)
    xp0 = _number(ray, "ray", "xp0", default=0.0)
    if run["n_max"] < 1:
        _fail("run.n_max must be >= 1 for the ray command")
    trace = iterate_ray(sched, (x0, xp0), run["n_max"])
    trace_csv = _data_csv("ray_trace.csv", ["n", "x", "xp"],
                          [trace.n, trace.x, trace.xp])
    fit = fit_damped_oscillation(trace.n, trace.x)
    return {
        "ray_trace.csv": trace_csv,
        "ray_fit.json": json_text(
            {"decay_rate": fit["decay_rate"], "period": fit["period"]}),
    }


def cmd_lissajous(cfg):
    """Two-axis ray trace, contracting pattern radius, fitted envelope."""
    sched, _, run = _setup(cfg)
    li = _section(cfg, "lissajous")
    init = (_number(li, "lissajous", "x0", default=1.0),
            _number(li, "lissajous", "xp0", default=0.0),
            _number(li, "lissajous", "y0", default=0.7),
            _number(li, "lissajous", "yp0", default=0.5))
    if run["n_max"] < 1:
        _fail("run.n_max must be >= 1 for the lissajous command")
    trace = lissajous(sched, init, run["n_max"])
    trace_csv = _data_csv(
        "lissajous_trace.csv", ["n", "x", "xp", "y", "yp"],
        [trace.n, trace.x, trace.xp, trace.y, trace.yp])
    radius = pattern_radius(sched, trace)
    slope = fit_envelope_rate(trace.n, radius)
    period = fit_damped_oscillation(trace.n, trace.x)["period"]
    return {
        "lissajous_trace.csv": trace_csv,
        "lissajous_fit.json": json_text(
            {"decay_rate": -slope, "period": period}),
    }


def cmd_collapse(cfg):
    """Spot-size collapse traces, one CSV per engine, normalized to w0."""
    sched, wavelength, run = _setup(cfg)
    co = _section(cfg, "collapse")
    center_over_w1 = _number(co, "collapse", "center_over_w1", default=0.0)
    beam0 = eigenmode_beam(round_trip_matrix(sched.geom0))
    w1_0 = beam0.spot_size(wavelength)
    beam = GaussianBeam(beam0.q, center=center_over_w1 * w1_0)
    w0 = math.sqrt(wavelength / math.pi)
    engines = run["engines"]
    traces = [run_collapse(sched, beam, run["n_max"], engine,
                           wavelength=wavelength, grid_n=run["grid_n"],
                           window_factor=run["window_factor"])
              for engine in engines]

    files = {}
    for engine, trace in zip(engines, traces):
        filename = "collapse_%s.csv" % engine
        files[filename] = _data_csv(
            filename, ["n", "w1_over_w0", "w2_over_w0", "product"],
            [trace.n, trace.w1 / w0, trace.w2 / w0,
             trace.w1 * trace.w2 / (w0 * w0)])
    if len(engines) > 1:
        common = min(trace.n.size for trace in traces)
        rel = [None, None]
        if common:
            for i, width in enumerate(("w1", "w2")):
                stack = np.vstack([getattr(t, width)[:common] for t in traces])
                rel[i] = float(np.max(np.ptp(stack, axis=0)
                                      / stack.mean(axis=0)))
        report = {
            "schema_version": SCHEMA_VERSION,
            "engines": list(engines),
            "common_trips": int(common),
            "max_w1_rel_spread": rel[0],
            "max_w2_rel_spread": rel[1],
            "diagnostics": {engine: trace.diagnostic
                            for engine, trace in zip(engines, traces)
                            if trace.truncated},
        }
        files["collapse_comparison.json"] = json_text(report)
    # Warn only once every file is built: a refused run prints one line.
    for engine, trace in zip(engines, traces):
        if trace.truncated:
            print("warning: %s %s" % (engine, trace.diagnostic),
                  file=sys.stderr)
    return files


def cmd_crosscheck(cfg):
    """Analytic propagator vs diffraction engine report."""
    sched, wavelength, run = _setup(cfg)
    cc = _section(cfg, "crosscheck")
    center_over_w1 = _number(cc, "crosscheck", "center_over_w1", default=1.0)
    tilt = _number(cc, "crosscheck", "tilt", default=0.0)
    width_scale = _number(cc, "crosscheck", "width_scale", default=1.0)
    if width_scale <= 0.0:
        _fail("crosscheck.width_scale must be > 0")
    w1_0 = eigenmode_beam(round_trip_matrix(sched.geom0)).spot_size(wavelength)
    records = crosscheck_engines(
        sched, wavelength, run["n_max"],
        center=center_over_w1 * w1_0, tilt=tilt, width_scale=width_scale,
        grid_n=run["grid_n"], window_factor=run["window_factor"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "records": records,
        "max_l2_distance": max(r["l2_distance"] for r in records),
    }
    return {"crosscheck_report.json": json_text(report)}


_COMMANDS = {
    "stability": cmd_stability,
    "schedule": cmd_schedule,
    "ray": cmd_ray,
    "lissajous": cmd_lissajous,
    "collapse": cmd_collapse,
    "crosscheck": cmd_crosscheck,
}


@functools.lru_cache(maxsize=1)
def _parser():
    """The argument parser, built once: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="kanai-cavity",
        description="Damped-oscillator optics scenarios: stability maps, "
                    "mirror schedules, ray traces, and wave collapse runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON scenario config")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: outputs.directory "
                              "from the config, else the working directory)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; has no effect")
    return parser


@functools.lru_cache(maxsize=1)
def _keep_freed_heap():
    """On glibc, keep up to 64 MiB of freed heap for the next job rather
    than trim it and fault it back in (man 3 mallopt): blocks under 32 MiB
    come from the heap (M_MMAP_THRESHOLD), trimmed past 64 MiB free."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if libc and libc.startswith("glibc"):
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None):
    _keep_freed_heap()
    args = _parser().parse_args(argv)

    try:
        if args.jobs < 1:
            _fail("--jobs must be >= 1")
        cfg = _load_config(args.config)
        cfg["_config_dir"] = os.path.dirname(os.path.abspath(args.config))
        formats = _formats(cfg)
        out_dir = args.out or _section(cfg, "outputs").get("directory") or "."
        if not isinstance(out_dir, str):
            _fail("outputs.directory must be a string")
        # Non-finite data exits 3 with one message; numpy's overflow and
        # invalid-value warnings would only repeat it on stderr.
        with np.errstate(all="ignore"):
            files = _COMMANDS[args.command](cfg)
        os.makedirs(out_dir, exist_ok=True)
        for filename, text in sorted(files.items()):
            if filename.endswith(".csv") and "csv" not in formats:
                continue
            if filename.endswith(".json") and "json" not in formats:
                continue
            atomic_write_text(os.path.join(out_dir, filename), text)
    except (NumericalError, OverflowError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (KanaiCavityError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: the run does not fit in memory: %s" % exc,
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
