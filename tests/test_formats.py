"""Tests for the column-wise CSV writer in ``kanai_cavity._formats``.

``csv_text`` formats a short column as it stands and each distinct value of a
long one once; the oracle here is the per-cell formatter it replaced, and the
two must agree byte for byte, for array and ``(values, index)`` columns.
``json_text`` formats a document's floats in one kernel call; its oracle is
the recursive writer it replaced.
"""

import json
import math
import os
import stat
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanai_cavity import _formats
from kanai_cavity._formats import (CSV_CHUNK_ROWS, atomic_write_bytes,
                                   csv_text, json_text)
from kanai_cavity.errors import NumericalError
from kanai_cavity.paraxial import stability_map
from oracles import raster_columns
from textcheck import assert_equal_text


def reference_cell(v):
    """The per-cell formatter ``csv_text`` replaced, kept as the oracle.

    It also takes ``np.bool_``, which its callers used to turn into an int
    before the call.
    """
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "{:.16e}".format(float(v))
    return str(v)


def reference_csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(columns):
    header = ["c%d" % j for j in range(len(columns))]
    expected = reference_csv_text(header, zip(*columns))
    assert_equal_text(csv_text(header, columns), expected)


def float_from_bits(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def scaled_fraction(x):
    """The part of |x| * 10**(16 - e) below 1, exactly, where the decade e
    puts that product in [1e16, 1e17): what ``%.16e`` rounds away."""
    scaled = abs(Fraction(x)) * Fraction(10) ** (16 - math.floor(
        math.log10(abs(x))))
    while scaled >= 10**17:
        scaled /= 10
    while scaled < 10**16:
        scaled *= 10
    return scaled - math.floor(scaled)


def powers_of_ten():
    """Every power of ten from 1e-320 to 1e308 and its +-1-ulp neighbours."""
    tens = np.array([float("1e%d" % k) for k in range(-320, 309)])
    return np.concatenate([np.nextafter(tens, 0.0), tens,
                           np.nextafter(tens, np.inf)])


def exact_ties():
    """x = t / 2**(m + 1) with t odd, m = 0..24, in the decade that makes
    x * 10**m, and so its 17-digit remainder, an odd multiple of 1/2.

    No such t is below 2**53 for m = 0; later m give up to 64 ties each.
    """
    ties = []
    for m in range(25):
        lo = -(-2 * 10**16 // 5**m) | 1
        hi = min(2 * 10**17 // 5**m, 2**53)
        odd = range(lo, hi, 2)
        picks = sorted({odd[i] for i in np.linspace(
            0, len(odd) - 1, min(64, len(odd))).astype(int)}) if odd else []
        ties += [math.ldexp(t, -(m + 1)) for t in picks]
    return np.array(ties + [-t for t in ties])


FLOAT64_PARTS = (st.booleans(), st.integers(0, 2047),
                 st.integers(0, 2**52 - 1))
FLOAT32_PARTS = (st.booleans(), st.integers(0, 255),
                 st.integers(0, 2**23 - 1))


@st.composite
def bit_pattern_columns(draw):
    """A float64 and a float32 column drawn as sign, exponent and mantissa,
    so every exponent (subnormals, inf and NaN payloads too) turns up."""
    n = draw(st.integers(1, 32))
    wide = draw(st.lists(st.tuples(*FLOAT64_PARTS), min_size=n, max_size=n))
    narrow = draw(st.lists(st.tuples(*FLOAT32_PARTS), min_size=n,
                           max_size=n))
    return [
        np.array([s << 63 | e << 52 | m for s, e, m in wide],
                 dtype=np.uint64).view(np.float64),
        np.array([s << 31 | e << 23 | m for s, e, m in narrow],
                 dtype=np.uint32).view(np.float32),
    ]


def test_constructed_ties_are_exact():
    ties = exact_ties()
    assert len(ties) > 2000
    assert all(scaled_fraction(x) == Fraction(1, 2) for x in ties)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bit_pattern_columns())
@example([powers_of_ten()])
@example([exact_ties()])
@example([np.arange(10.0**5 + 1)])
@example([np.array([5e-324, 1.7976931348623157e308, -5e-324])])
def test_float_cells_match_the_per_cell_formatter(columns):
    assert_same_text(columns)


def test_fallback_formats_only_zeros_nan_and_exact_ties(monkeypatch):
    """``format_float`` writes a CSV float only where the numpy digits
    cannot: zero, NaN and the exact ties that dtoa rounds half-to-even."""
    fell = []
    scalar = _formats.format_float
    monkeypatch.setattr(_formats, "format_float",
                        lambda x: fell.append(float(x)) or scalar(x))
    theta = raster_columns(stability_map((0.0, 4.0), (0.0, 4.0), 400))[3]
    tens = np.array([float("1e%d" % k) for k in range(-250, 251)])
    # log10 rounds up to n at 499 of the 501 values just below 10**n: their
    # decade is corrected, not handed to the fallback.
    near = np.concatenate([np.nextafter(tens, 0.0), np.nextafter(tens, 1e300)])
    near_ties = sum(scaled_fraction(x) == Fraction(1, 2) for x in near)
    # One call per distinct bit pattern, also in short columns, which are
    # not deduplicated before the kernel.
    repeats = np.tile([np.nan, 0.0, -0.0, 1.5], 50)
    for column, expected in ((np.arange(3001.0), 1), (np.zeros(3001), 1),
                             (repeats, 3),
                             (np.linspace(0.0, 4.0, 400), 1), (theta, 2),
                             (near, near_ties),
                             (exact_ties(), exact_ties().size)):
        fell.clear()
        csv_text(["x"], [column])
        assert len(fell) == expected
        assert all(x == 0.0 or math.isnan(x)
                   or scaled_fraction(x) == Fraction(1, 2) for x in fell)


def test_signed_zeros_stay_apart():
    col = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
    assert_same_text([col])
    assert csv_text(["x"], [col]).splitlines()[2] == "-0.0000000000000000e+00"


def test_non_finite_values():
    sign_nan = float_from_bits(0xFFF8000000000000)
    payload_nan = float_from_bits(0x7FF8000000000001)
    assert np.signbit(sign_nan)
    col = np.array([np.nan, sign_nan, payload_nan, np.inf, -np.inf, 2.5,
                    np.nan, -np.inf])
    assert_same_text([col])


def test_extreme_magnitudes():
    col = np.array([5e-324, -5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308, 2.2250738585072014e-308])
    assert_same_text([col])


def test_repeated_and_distinct_values():
    rng = np.random.default_rng(7)
    repeated = rng.choice([0.1, -3.75, 1e10, 0.0], size=500)
    distinct = rng.standard_normal(500)
    assert_same_text([repeated, distinct, np.arange(500)])


def test_bool_and_integer_columns():
    rng = np.random.default_rng(11)
    n = 300
    columns = [
        rng.random(n) < 0.5,
        rng.integers(-2**31, 2**31 - 1, size=n, dtype=np.int32),
        np.array([0, 2**64 - 1, 2**63] * 100, dtype=np.uint64),
        rng.integers(-2**63, 2**63 - 1, size=n, dtype=np.int64),
        rng.standard_normal(n).astype(np.float32),
    ]
    assert_same_text(columns)


def test_integer_columns_at_digit_group_edges():
    edges = [sign * (10**k + step) for k in range(19) for step in (-1, 0, 1)
             for sign in (1, -1)]
    column = np.array(edges + [-2**63, 2**63 - 1])
    assert_same_text([column, column.astype(np.uint64) >> 1,
                      (column % 256).astype(np.int8)])


def test_bool_columns_of_one_value_and_strided():
    flags = np.random.default_rng(12).random(301) < 0.5
    for column in (np.ones(40, dtype=bool), np.zeros(40, dtype=bool),
                   flags[::3], flags[::-1]):
        assert_same_text([column, np.arange(column.size)])


def test_zero_and_one_row():
    assert csv_text(["a", "b"], [np.array([]), np.array([], dtype=int)]) \
        == "a,b\n"
    assert_same_text([np.array([]), np.array([], dtype=bool)])
    assert_same_text([np.array([-1.5]), np.array([3]), np.array([True])])


def test_row_count_one_past_chunk_size():
    n = CSV_CHUNK_ROWS + 1
    columns = [np.arange(n), np.linspace(-1.0, 1.0, n), np.arange(n) % 3 == 0]
    text = csv_text(["n", "x", "flag"], columns)
    assert text.count("\n") == n + 1
    assert_equal_text(text, reference_csv_text(["n", "x", "flag"],
                                               zip(*columns)))


#: Row counts on both sides of the chunk size, and over two chunks.
CHUNK_EDGES = (CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
               2 * CSV_CHUNK_ROWS + 3)
#: Signed zeros, infinities, NaNs with sign and payload, the extremes.
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan,
                  float_from_bits(0xFFF8000000000000),
                  float_from_bits(0x7FF8000000000001),
                  float_from_bits(0x7FF0000000000001), 5e-324,
                  -1.7976931348623157e308, 0.5, 1e20)
FLOAT64_VALUES = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.tuples(*FLOAT64_PARTS).map(lambda p: float_from_bits(
        p[0] << 63 | p[1] << 52 | p[2])))
FLOAT32_VALUES = st.tuples(*FLOAT32_PARTS).map(lambda p: np.array(
    [p[0] << 31 | p[1] << 23 | p[2]], dtype=np.uint32).view(np.float32)[0])
#: A column's values before they are indexed into rows: few, so that the
#: rows repeat them, or (for "distinct") one per row.
COLUMN_POOLS = {
    "float64": st.lists(FLOAT64_VALUES, min_size=1, max_size=12).map(
        lambda v: np.array(v, dtype=np.float64)),
    "float32": st.lists(FLOAT32_VALUES, min_size=1, max_size=12).map(
        lambda v: np.array(v, dtype=np.float32)),
    "bool": st.sampled_from([[False], [True], [False, True], [True, False]]
                            ).map(np.array),
    "int": st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                    max_size=12).map(lambda v: np.array(v, dtype=np.int64)),
    "distinct": st.just(None),
}


@st.composite
def chunk_edge_columns(draw):
    """Columns of one of ``CHUNK_EDGES`` rows, each an array or a
    ``(values, index)`` pair, and the same columns as arrays."""
    n = draw(st.sampled_from(CHUNK_EDGES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, arrays = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(COLUMN_POOLS)))
        values = draw(COLUMN_POOLS[kind])
        if values is None:
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
            index = rng.permutation(n)
        else:
            index = rng.integers(0, values.size, n)
        columns.append((values, index) if draw(st.booleans())
                       else values[index])
        arrays.append(values[index])
    return columns, arrays


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(chunk_edge_columns())
def test_columns_at_chunk_edges_match_the_per_cell_formatter(drawn):
    columns, arrays = drawn
    header = ["c%d" % j for j in range(len(columns))]
    rows = zip(*[array.tolist() for array in arrays])
    assert_equal_text(csv_text(header, columns),
                      reference_csv_text(header, rows))


def test_short_and_pair_columns_are_not_sorted(monkeypatch):
    sorted_sizes = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda values, **kwargs: (
        sorted_sizes.append(values.size) or unique(values, **kwargs)))
    n = CSV_CHUNK_ROWS
    csv_text(["n", "x", "y", "flag"], [
        np.arange(n), np.zeros(n), np.linspace(-1.0, 1.0, n, dtype=np.float32),
        np.arange(n) % 3 == 0])
    grid, steps = np.linspace(0.0, 4.0, 400), np.arange(400)
    csv_text(["l1", "l2", "n", "flag"], [
        (grid, np.repeat(steps, 400)), (grid, np.tile(steps, 400)),
        (np.arange(5), np.arange(160000) % 5),
        (np.array([False, True]), np.arange(160000) % 2)])
    assert sorted_sizes == []
    # A long column given as an array is still sorted to its values.
    csv_text(["l2"], [np.tile(grid, 400)])
    assert sorted_sizes == [160000]


def test_unequal_columns_raise():
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.zeros(3)])
    with pytest.raises(ValueError):
        csv_text(["a"], [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [(np.zeros(2), np.zeros(3, dtype=int)),
                              np.zeros(2)])
    with pytest.raises(ValueError):
        csv_text(["a"], [(np.zeros((2, 2)), np.zeros(2, dtype=int))])


def test_raster_peak_memory_below_reference():
    raster = stability_map((0.0, 4.0), (0.0, 4.0), 400)
    header = ["l1_over_f", "l2_over_f", "stable", "theta"]
    columns = raster_columns(raster)

    def peak(build):
        tracemalloc.start()
        try:
            text = build()
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    new_peak, text = peak(lambda: csv_text(header, columns))
    ref_peak, expected = peak(
        lambda: reference_csv_text(header, zip(*columns)))
    assert_equal_text(text, expected)
    assert new_peak <= ref_peak, (new_peak, ref_peak)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    {"outer": [1.0, {"inner": float("inf")}]},
])
def test_json_text_refuses_non_finite_floats(value):
    with pytest.raises(NumericalError, match="cannot write"):
        json_text(value)



def reference_dump_json(obj, indent=0):
    """The recursive JSON writer ``json_text`` replaced, kept as the oracle:
    it formats each float and encodes each key as it meets them."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, val in obj.items():
            items.append('{}{}: {}'.format(inner, json.dumps(str(key)),
                                           reference_dump_json(val,
                                                               indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [inner + reference_dump_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalError("cannot write %r to JSON" % float(obj))
        return "{:.16e}".format(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot serialize {!r} to JSON".format(type(obj)))


def outcome(write, doc):
    try:
        return write(doc)
    except (NumericalError, TypeError) as exc:
        return type(exc), str(exc)


#: Floats of every magnitude, as Python, float64 and float32 values.
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        np.float32))
JSON_SCALARS = st.one_of(JSON_FLOATS, st.integers(-2**70, 2**70),
                         st.integers(-5, 5).map(np.int64), st.booleans(),
                         st.none(), st.text(max_size=8))
#: Keys, among them distinct keys with one text (1, 1.0 and True) and
#: non-ASCII text.
JSON_KEYS = st.one_of(st.sampled_from(["n", "l2_distance", "w", 1, 1.0, True,
                                       None, "\u00e9", 'q"']),
                      st.text(max_size=6))
NESTED = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.tuples(inner, inner),
    st.dictionaries(JSON_KEYS, inner, max_size=5)), max_leaves=30)
#: Nested documents; report-like ones, whose record lists carry more floats
#: than ``json_text`` formats one by one; and documents with one value no
#: writer takes, a non-finite float or a type JSON has no place for.
JSON_DOCS = st.one_of(
    NESTED,
    st.fixed_dictionaries({"records": st.lists(st.fixed_dictionaries(
        {"n": st.integers(0, 500), "l2": JSON_FLOATS, "x": JSON_FLOATS,
         "w": JSON_FLOATS, "y": JSON_FLOATS}, optional={"z": JSON_SCALARS}),
        min_size=25, max_size=40), "max": JSON_FLOATS}),
    st.lists(st.one_of(NESTED, st.sampled_from(
        [math.nan, -math.inf, np.float32("inf"), 1j, b"x"])), min_size=2,
        max_size=4))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(JSON_DOCS)
@example([float(x) for x in np.random.default_rng(5).standard_normal(300)])
@example({"records": [{"n": n, "l2_distance": n / 7.0, "zero": -0.0,
                       "tie": 0.5 + n, "tiny": 5e-324 * n}
                      for n in range(200)], "max": 1.7976931348623157e308})
@example([0.1] * 150 + [float("nan")])
def test_json_text_matches_the_recursive_writer(doc):
    """The same bytes, or the same exception and message, as the writer
    that formatted float by float."""
    expected = outcome(lambda d: reference_dump_json(d) + "\n", doc)
    assert outcome(json_text, doc) == expected


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out" / "data.csv"
    with pytest.raises(TypeError):
        atomic_write_bytes(str(target), object())
    assert list(target.parent.iterdir()) == []
    atomic_write_bytes(str(target), b"a\n")
    assert [p.name for p in target.parent.iterdir()] == ["data.csv"]


def test_written_files_honour_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write_bytes(str(tmp_path / "data.csv"), b"a\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "data.csv").stat().st_mode) == 0o644
