"""The CLI's contract as a property: every config it is given ends in one of
two ways.

* exit 0, with every data value finite (theta = nan in the stability raster
  excepted) and every JSON file strictly parseable; or
* exit 2 or 3, with one line on stderr that names its cause (no bare
  errno text such as ``(34, 'Numerical result out of range')``) and no
  data file written.

Configs are drawn over all six commands and all three engines, kept cheap
(grid_n <= 256, n_max <= 20, resolution <= 8), and then corrupted by up to
two edits: unknown sections and keys, friction keys of the other kind,
non-finite numbers, integers beyond the float range and values of the wrong
type.  Every such edit to a section the command reads, and a run.dn other
than 1 on a command that writes every trip, must be refused with exit 2:
a key either takes effect or is refused.  ``derandomize=True`` makes the
drawn configs the same on every run; the pinned examples are the breach
classes a random fuzz of the CLI once found.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kanai_cavity import cli

ENGINES = ("fresnel", "split_step", "gaussian_q")
#: The section each command reads besides geometry, friction, run, outputs.
OWN_SECTION = {"stability": "stability", "schedule": None, "ray": "ray",
               "lissajous": "lissajous", "collapse": "collapse",
               "crosscheck": "crosscheck"}
#: Commands that write every trip and so take no run.dn but 1.
EVERY_TRIP = ("ray", "lissajous", "collapse", "crosscheck")
#: Values no config key may hold: non-finite numbers, an integer beyond the
#: float range and values of the wrong type.
BAD_VALUES = (math.nan, math.inf, -math.inf, 10 ** 400, "1.5", None, True,
              [], {}, [1.0, 2.0, 3.0])
#: Strictly stable (l1/f, l2/f) pairs with l2 > f, which a schedule needs;
#: one geometry in four is drawn anywhere in [0, 4]^2 instead.
STABLE = ((1.7, 1.5), (1.2, 1.6), (2.0, 1.9), (1.5, 1.8), (1.05, 1.02))
#: The text of an OSError or a math range error, "(34, 'Numerical ...')".
ERRNO_TEXT = re.compile(r"\(\d+, '")


def coord(lo, hi, *extremes):
    """Floats in [lo, hi]; one draw in eight is one of ``extremes``."""
    floats = st.floats(lo, hi, allow_nan=False)
    if not extremes:
        return floats
    rare = st.sampled_from([False] * 7 + [True])
    return st.tuples(rare, floats, st.sampled_from(extremes)).map(
        lambda drawn: drawn[2] if drawn[0] else drawn[1])


@st.composite
def tables(draw):
    """A friction table over at least 20 trips: mostly a valid monotone g(n)
    from g(0) = 0, at times one that decreases or does not start at 0."""
    steps = st.lists(st.tuples(coord(0.5, 8.0), coord(0.0, 0.05)),
                     min_size=1, max_size=5)
    rows = [(0.0, 0.0)]
    for dn, dg in draw(steps) + [(20.0, 0.0)]:
        rows.append((rows[-1][0] + dn, rows[-1][1] + dg))
    if draw(st.integers(0, 5)) == 0:
        shift = draw(st.sampled_from([0.0, 0.1]))
        rows = [(n, g + shift) for (n, _), (_, g) in zip(rows, rows[::-1])]
    return "n,g\n" + "".join("%r,%r\n" % row for row in rows)


@st.composite
def clean_configs(draw):
    if draw(st.integers(0, 3)):
        l1, l2 = draw(st.sampled_from(STABLE))
    else:
        l1, l2 = draw(st.tuples(coord(0.0, 4.0), coord(0.0, 4.0)))
    geometry = {"l1_over_f": l1, "l2_over_f": l2}
    if draw(st.booleans()):
        geometry["lambda_over_f"] = draw(coord(1e-6, 1e-3))
    table = None
    if draw(st.integers(0, 3)) == 0:
        friction = {"kind": "tabulated", "path": "table.csv"}
        table = draw(tables())
    else:
        friction = {"kind": "constant",
                    "gamma": draw(coord(0.0, 0.05, 0.0, 30.0, 1000.0))}
    engine = draw(st.sampled_from(ENGINES)
                  | st.lists(st.sampled_from(ENGINES), min_size=1,
                             max_size=3, unique=True))
    run = {"n_max": draw(st.sampled_from([0, 1, 7] + [20] * 5)),
           "dn": draw(st.sampled_from([1] * 5 + [1.0, 0.5, 7])),
           "grid_n": draw(st.sampled_from([2, 4, 16, 64, 100, 128, 256])),
           "window_factor": draw(coord(0.5, 32.0, 1e-300)),
           "engine": engine}
    pair = st.tuples(coord(0.0, 4.0), coord(0.0, 4.0)).map(sorted)
    offset = coord(-2.0, 2.0, 40.0)
    cfg = {
        "schema_version": 1,
        "geometry": geometry,
        "friction": friction,
        "run": run,
        "stability": {"resolution": draw(st.integers(1, 8)),
                      "l1_range": draw(pair), "l2_range": draw(pair)},
        "ray": {"x0": draw(coord(-2.0, 2.0)), "xp0": draw(coord(-2.0, 2.0))},
        "lissajous": {key: draw(coord(-2.0, 2.0))
                      for key in ("x0", "xp0", "y0", "yp0")},
        "collapse": {"center_over_w1": draw(offset)},
        "crosscheck": {"center_over_w1": draw(offset),
                       "tilt": draw(coord(-1e-2, 1e-2)),
                       "width_scale": draw(coord(0.5, 2.0, 1e300))},
        "outputs": {"formats": draw(st.sampled_from(
            [["csv", "json"], ["csv"], ["json"]]))},
    }
    return cfg, table


@st.composite
def edit(draw, cfg, command):
    """Apply one edit to ``cfg``: a bad value, an unknown key or section, or
    a friction key of the other kind.  Returns whether the command must
    refuse the edited config."""
    kind = draw(st.sampled_from(["value", "key", "section", "friction"]))
    sections = sorted(name for name, sec in cfg.items()
                      if isinstance(sec, dict) and sec)
    name = draw(st.sampled_from(sections))
    if kind == "value":
        cfg[name][draw(st.sampled_from(sorted(cfg[name])))] = draw(
            st.sampled_from(BAD_VALUES))
        return name in ("geometry", "friction", "run", "outputs",
                        OWN_SECTION[command])
    if kind == "key":
        cfg[name]["unknown_key"] = 1.0
    elif kind == "section":
        cfg[draw(st.sampled_from(["extra", "run"]))] = draw(
            st.sampled_from([1.0, "run", [1.0]]))
    elif cfg["friction"]["kind"] == "constant":
        cfg["friction"]["path"] = "table.csv"
    else:
        cfg["friction"]["gamma"] = 1e-3
    return True


@st.composite
def cases(draw):
    """(command, config, friction table text or None, must refuse)."""
    command = draw(st.sampled_from(sorted(OWN_SECTION)))
    cfg, table = draw(clean_configs())
    refuse = command in EVERY_TRIP and cfg["run"]["dn"] != 1
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        refuse |= draw(edit(cfg, command))
    return command, cfg, table, refuse


def _config(**sections):
    cfg = {"schema_version": 1,
           "geometry": {"l1_over_f": 1.7, "l2_over_f": 1.5},
           "friction": {"kind": "constant", "gamma": 1e-3},
           "run": {"n_max": 3, "grid_n": 256}}
    cfg.update(sections)
    return cfg


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def _refuse_constant(token):
    raise AssertionError("JSON holds the non-standard constant %s" % token)


def check_data_file(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_float=_finite_float,
                   parse_constant=_refuse_constant)
        return
    # a run truncated before its first row writes the header alone
    header, *rows = text.splitlines()
    names = header.split(",")
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(names), (path.name, row)
        for name, cell in zip(names, cells):
            if path.name == "stability_raster.csv" and name == "theta":
                continue
            assert math.isfinite(float(cell)), (path.name, name, row)


@settings(derandomize=True, max_examples=150, deadline=None,
          database=None)
@given(cases())
# the beam centred outside the window (once a ZeroDivisionError)
@example(("collapse", _config(run={"n_max": 3, "grid_n": 256,
                                   "engine": "fresnel"},
                              collapse={"center_over_w1": 40}), None, False))
# e^g overflowing at trip 1 (once inf and nan in schedule.csv, exit 0)
@example(("schedule", _config(friction={"kind": "constant", "gamma": 1000}),
          None, False))
# an engine truncated at trip 0 (once a bare NaN spread in the JSON, exit 0)
@example(("collapse", _config(run={"n_max": 3, "grid_n": 2,
                                   "engine": ["fresnel", "gaussian_q"]}),
          None, False))
# a non-finite number in the config (once a NaN trace)
@example(("ray", _config(run={"n_max": 20}, ray={"x0": math.nan}), None,
          True))
# a misspelt key and a run.dn the command never reads (once ignored)
@example(("collapse", _config(run={"n_mx": 3}), None, True))
@example(("ray", _config(run={"n_max": 3, "dn": 0.5}), None, True))
# float overflow in the crosscheck beam (once an OverflowError traceback,
# then errno text) and in the Fresnel output spacing (once errno text)
@example(("crosscheck", _config(crosscheck={"width_scale": 1e300}), None,
          False))
@example(("crosscheck", _config(run={"n_max": 3, "grid_n": 256,
                                     "window_factor": 1e-300}), None, False))
def test_every_config_ends_in_data_or_one_line(case):
    command, cfg, table, refuse = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if table is not None:
            (tmp / "table.csv").write_text(table)
        config = tmp / "config.json"
        config.write_text(json.dumps(cfg))
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config),
                             "--out", str(out)])
        err = err.getvalue()
        event("%s exit %d" % (command, code))
        if code == 0:
            assert not refuse, cfg
            for path in sorted(out.iterdir()):
                check_data_file(path)
        else:
            assert code == 2 if refuse else code in (2, 3), (code, err)
            assert len(err.splitlines()) == 1, err
            assert not ERRNO_TEXT.search(err), err
            assert not out.exists() or not list(out.iterdir())
