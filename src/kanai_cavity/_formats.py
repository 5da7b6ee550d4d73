"""Deterministic text output helpers shared by the CSV/JSON writers.

All floating-point values are rendered with 17 significant digits in
lowercase scientific notation so that identical runs produce byte-identical
files on every platform.  Files are written atomically (temp file in the
target directory, then rename) so a failed run never leaves a partial data
file behind.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import NumericalError


def format_float(x):
    """Render a float with 17 significant digits, lowercase scientific."""
    return "{:.16e}".format(float(x))


#: Rows joined per chunk, which bounds the cell lists alive at once.
CSV_CHUNK_ROWS = 8192


def _distinct_cells(column):
    """Format each distinct value once; row i's text is ``cells[index[i]]``.

    Floats are matched by bit pattern, keeping 0.0 and -0.0 (and NaN
    payloads) apart; bools and integers are written as decimal ints.
    """
    if column.dtype.kind == "f":
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        template, values = "%.16e\n", distinct.view(np.float64).tolist()
    else:
        distinct, index = np.unique(column, return_inverse=True)
        template, values = "%d\n", distinct.tolist()
    cells = (template * len(values) % tuple(values)).split("\n")[:-1]
    return np.array(cells, dtype=object), index


def csv_text(header, columns):
    """Build the full text of a CSV file from a header and 1-D columns.

    Float cells carry the bytes of :func:`format_float`; bool and integer
    cells are decimal ints.
    """
    columns = [np.asarray(col) for col in columns]
    if (len(columns) != len(header) or any(col.ndim != 1 for col in columns)
            or len({col.size for col in columns}) > 1):
        raise ValueError("CSV needs one 1-D column per header name, "
                         "all of equal length")
    formatted = [_distinct_cells(col) for col in columns]
    parts = [",".join(header) + "\n"]
    for lo in range(0, columns[0].size if columns else 0, CSV_CHUNK_ROWS):
        chunk = [cells[index[lo:lo + CSV_CHUNK_ROWS]].tolist()
                 for cells, index in formatted]
        parts.append("\n".join(map(",".join, zip(*chunk))) + "\n")
    return "".join(parts)


def _dump_json(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, val in obj.items():
            items.append('{}{}: {}'.format(inner, json.dumps(str(key)),
                                           _dump_json(val, indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [inner + _dump_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalError("cannot write %r to JSON" % float(obj))
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot serialize {!r} to JSON".format(type(obj)))


def json_text(obj):
    """Serialize dicts/lists/scalars to JSON with deterministic floats;
    a non-finite float, which strict JSON cannot hold, raises NumericalError."""
    return _dump_json(obj, 0) + "\n"


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
