"""Deterministic text output helpers shared by the CSV/JSON writers.

All floating-point values are rendered with 17 significant digits in
lowercase scientific notation so that identical runs produce byte-identical
files on every platform; numpy writes the CSV cells (:func:`_float_cells`).
Files are written atomically (temp file in the target directory, then
rename) so a failed run never leaves a partial data file behind; they get
the mode the umask allows, as files that ``open`` creates do.
"""

import json
import math
import os

import numpy as np

from .errors import NumericalError


def format_float(x):
    """Render a float with 17 significant digits, lowercase scientific."""
    return "{:.16e}".format(float(x))


#: Rows assembled per chunk, which bounds the byte matrix alive at once;
#: a column no longer than this is formatted as it stands, without a sort.
CSV_CHUNK_ROWS = 8192

#: ASCII digits as numbers whose little-endian bytes are the text, so that
#: one gather writes four characters: "0".."9", "00".."99", "0000".."9999".
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_PAIRS = (_DIGIT[:, None] | _DIGIT << 8).ravel()
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).ravel()
#: "000e" to "999e": the last three digits and the exponent mark.
_TRIPLES = (_PAIRS[:, None] | (_DIGIT | ord("e") << 8) << 16).ravel()
#: "d.d" for the two leading digits, after a 0 byte that is the sign's place.
_LEADS = (_DIGIT[:, None] << 8 | ord(".") << 16 | _DIGIT << 24).ravel()
_E = np.arange(-999, 1000)
#: "-999" to "+999" indexed by e + 999; a 0 byte pads "+05" for e = 5.
_EXPONENTS = (np.where(_E < 0, ord("-"), ord("+"))
              | np.where(abs(_E) >= 100, _DIGIT[abs(_E) // 100], 0) << 8
              | _PAIRS[abs(_E) % 100] << 16)
#: Magnitudes formatted in numpy: there Veltkamp's split cannot overflow,
#: |e| <= _E_MAX before e's correction and 10**(16 - e) is two normal floats.
_FORMATTED, _E_MAX = (1e-280, 1e280), 281


def _power_of_ten(k):
    """10**k as floats hi + lo, each correctly rounded, from int arithmetic."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits or fewer."""
    t = a * 134217729.0
    hi = t - (t - a)
    return hi, a - hi


def _scaled(mag, e):
    """floor(mag * 10**(16 - e)) as int64 and the fraction above it, from
    a double-double product (Dekker, Numer. Math. 18, 224 (1971)): ``mag *
    hi``, its exact rounding error and ``mag * lo``.  Its relative error is
    near 2**-104, under 1e-14 of a unit in the 17th digit.  The table holds
    each decade's hi, lo and the halves of hi."""
    table = np.zeros((4, 2 * _E_MAX + 1))
    for i in np.flatnonzero(np.bincount(e + _E_MAX)):
        hi, lo = _power_of_ten(16 + _E_MAX - int(i))
        table[:, i] = (hi, lo) + _split(hi)
    hi, lo, b1, b2 = table[:, e + _E_MAX]
    head = mag * hi
    a1, a2 = _split(mag)
    tail = (((a1 * b1 - head) + a1 * b2 + a2 * b1) + a2 * b2) + mag * lo
    whole = np.floor(tail)
    return head.astype(np.int64) + whole.astype(np.int64), tail - whole


def _float_cells(values):
    """The ``%.16e`` text of each float64 as NUL-padded ``S24`` cells: the
    double-double product rounded half up, or :func:`format_float` for zero,
    NaN, inf, magnitudes outside ``_FORMATTED``, fractions within 1e-6 of
    one half (exact ties, which dtoa rounds half-to-even) and the rare
    decade the product cannot settle (1e20 scales to exactly 1e16), once
    per distinct bit pattern."""
    mag = np.abs(values)
    inside = (mag >= _FORMATTED[0]) & (mag < _FORMATTED[1])
    mag[~inside] = 1.0
    e = np.floor(np.log10(mag)).astype(np.int64)
    digits, frac = _scaled(mag, e)
    off = (digits < 10**16) | (digits >= 10**17)
    e[off] += np.sign(digits[off] - 10**16)
    digits[off], frac[off] = _scaled(mag[off], e[off])
    fallback = ~inside | (np.abs(frac - 0.5) < 1e-6) | (
        digits < 10**16) | (digits >= 10**17)
    digits += frac > 0.5
    e += digits == 10**17
    digits[(digits == 10**17) | fallback] = 10**16

    words = np.empty((values.size, 6), dtype="<u4")
    words[:, 0] = _LEADS[digits // 10**15] | np.signbit(values) * ord("-")
    for j, scale in enumerate((10**11, 10**7, 10**3)):
        words[:, 1 + j] = _QUADS[digits // scale % 10000]
    words[:, 4] = _TRIPLES[digits % 1000]
    words[:, 5] = _EXPONENTS[e + 999]
    cells = words.view("S24")[:, 0]
    keys = values[fallback].view(np.int64).tolist()
    texts = {key: format_float(np.int64(key).view(np.float64))
             for key in set(keys)}
    cells[fallback] = [texts[key] for key in keys]
    return cells


#: The cells of False and True, indexed by a bool column's bytes.
_BOOL_CELLS = np.array([b"0", b"1"])


def _distinct(values, index):
    """A column as values and each row's index into them, or index None
    where the rows are the values as they stand: a given index is kept, a
    bool column indexes its cells by its bytes, and a float or integer
    column longer than ``CSV_CHUNK_ROWS`` is sorted to its distinct values,
    floats by bit pattern so that 0.0 and -0.0 (and NaN payloads) stay
    apart."""
    if index is None and values.dtype.kind == "b":
        return _BOOL_CELLS, values.view(np.uint8)
    if values.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            values = np.ascontiguousarray(values, dtype=np.float64)
    if index is not None or values.size <= CSV_CHUNK_ROWS:
        return values, index
    if values.dtype.kind == "f":
        distinct, index = np.unique(values.view(np.int64), return_inverse=True)
        return distinct.view(np.float64), index
    return np.unique(values, return_inverse=True)


def _cells(values):
    """The ``%d`` text of bool or integer values as NUL-padded ``S``
    cells: a word for the sign, then four digits a word, with leading
    zeros written as 0 bytes, which the CSV rows drop like the padding."""
    if values.dtype.kind == "S":
        return values
    negative = values < 0
    mag = values.astype(np.uint64)
    mag[negative] = -mag[negative]
    groups = -(-len(str(int(mag.max(initial=0)))) // 4)
    words = np.zeros((values.size, 1 + groups), dtype="<u4")
    words[:, 0] = negative * ord("-")
    words[:, 1:] = _QUADS[mag[:, None] // np.uint64(10) ** np.arange(
        4 * groups - 4, -1, -4, dtype=np.uint64) % 10000]
    digits = words.view(np.uint8)[:, 4:-1]
    digits[np.logical_and.accumulate(digits == ord("0"), axis=1)] = 0
    return words.view("S%d" % (4 + 4 * groups))[:, 0]


def csv_text(header, columns):
    """Build the full text of a CSV file from a header and 1-D columns.

    A column is an array or a ``(values, index)`` pair whose rows are
    ``values[index]``.  Float cells carry the bytes of :func:`format_float`;
    bool and integer cells are decimal ints.  Each chunk of rows is one
    uint8 matrix: the cells of the values, sliced or gathered by index, and
    the separators, less the NUL padding.
    """
    columns = [tuple(np.asarray(part) for part in col)
               if isinstance(col, tuple) else (np.asarray(col), None)
               for col in columns]
    rows = [values if index is None else index for values, index in columns]
    if (len(columns) != len(header)
            or any(part is not None and part.ndim != 1
                   for col in columns for part in col)
            or len({col.size for col in rows}) > 1):
        raise ValueError("CSV needs one 1-D column per header name, "
                         "all of equal length")
    found = [_distinct(values, index) for values, index in columns]
    # One kernel call for all the floats: it costs ~70 us even for one value.
    floats = [values for values, _ in found if values.dtype == np.float64]
    float_cells = iter(np.split(
        _float_cells(np.concatenate([np.zeros(0)] + floats)),
        np.cumsum([values.size for values in floats])))
    formatted = [(next(float_cells) if values.dtype == np.float64
                  else _cells(values), index) for values, index in found]
    width = sum(cells.itemsize + 1 for cells, _ in formatted)
    size = rows[0].size if rows else 0
    parts = [",".join(header) + "\n"]
    for lo in range(0, size, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, size)
        chunk = np.full((hi - lo, width), ord(","), dtype=np.uint8)
        at = 0
        for cells, index in formatted:
            taken = cells[lo:hi] if index is None else cells.take(index[lo:hi])
            chunk[:, at:at + cells.itemsize] = taken.view(np.uint8).reshape(
                hi - lo, -1)
            at += cells.itemsize + 1
        chunk[:, -1] = ord("\n")
        parts.append(chunk.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


#: Fewer floats than this are formatted one by one: the kernel costs about
#: 0.1 ms even for one value.
_JSON_KERNEL_MIN = 100


def _json_parts(obj, pad, parts, floats, keys):
    """Append the JSON text of ``obj``, indented from ``pad``, to ``parts``.
    A float's place is left as None and its (place, value) appended to
    ``floats``; ``keys`` holds each key's encoding, made once."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner, sep = pad + "  ", "{\n"
        for key, val in obj.items():
            name = str(key)
            text = keys.get(name)
            if text is None:
                text = keys[name] = json.dumps(name)
            parts.append(sep + inner + text + ": ")
            _json_parts(val, inner, parts, floats, keys)
            sep = ",\n"
        parts.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner, sep = pad + "  ", "[\n"
        for val in obj:
            parts.append(sep + inner)
            _json_parts(val, inner, parts, floats, keys)
            sep = ",\n"
        parts.append("\n" + pad + "]")
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalError("cannot write %r to JSON" % float(obj))
        floats.append((len(parts), float(obj)))
        parts.append(None)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError("cannot serialize {!r} to JSON".format(type(obj)))


def json_text(obj):
    """Serialize dicts/lists/scalars to JSON with deterministic floats;
    a non-finite float, which strict JSON cannot hold, raises NumericalError.
    A document's floats are formatted in one :func:`_float_cells` call."""
    parts, floats = [], []
    _json_parts(obj, "", parts, floats, {})
    if len(floats) >= _JSON_KERNEL_MIN:
        places, values = zip(*floats)
        rows = np.full((len(values), 25), ord("\n"), dtype=np.uint8)
        rows[:, :-1] = _float_cells(np.array(values)).view(np.uint8).reshape(
            -1, 24)
        texts = rows[rows != 0].tobytes().decode("ascii").split("\n")
        floats = zip(places, texts)
    else:
        floats = [(place, format_float(value)) for place, value in floats]
    for place, text in floats:
        parts[place] = text
    return "".join(parts) + "\n"


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` via a same-directory temp file + rename.
    The temp file is created with mode 0o666, so the umask sets the mode."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, "tmp%s.tmp" % os.urandom(8).hex())
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
