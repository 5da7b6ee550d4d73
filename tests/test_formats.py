"""Tests for the column-wise CSV writer in ``kanai_cavity._formats``.

``csv_text`` formats each distinct value of a column once; the oracle here is
the per-cell formatter it replaced, and the two must agree byte for byte.
"""

import tracemalloc

import numpy as np
import pytest

from kanai_cavity._formats import CSV_CHUNK_ROWS, csv_text, json_text
from kanai_cavity.errors import NumericalError
from kanai_cavity.paraxial import stability_map


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
    assert csv_text(header, columns) == expected


def float_from_bits(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


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
    assert text == reference_csv_text(["n", "x", "flag"], zip(*columns))


def test_unequal_columns_raise():
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.zeros(3)])
    with pytest.raises(ValueError):
        csv_text(["a"], [np.zeros((2, 2))])


def test_raster_peak_memory_below_reference():
    raster = stability_map((0.0, 4.0), (0.0, 4.0), 400)
    header = ["l1_over_f", "l2_over_f", "stable", "theta"]
    columns = raster.columns()

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
    assert text == expected
    assert new_peak <= ref_peak, (new_peak, ref_peak)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    {"outer": [1.0, {"inner": float("inf")}]},
])
def test_json_text_refuses_non_finite_floats(value):
    with pytest.raises(NumericalError, match="cannot write"):
        json_text(value)

