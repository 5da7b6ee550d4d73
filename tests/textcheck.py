"""A short failure for comparisons of long output texts.

pytest explains a failed ``==`` between two strings with a diff of the
whole texts, which on multi-megabyte CSV files does not finish in useful
time.  :func:`assert_equal_text` asserts the same equality and, when it
fails, says in one line where the texts first differ.
"""

import hashlib

import numpy as np
import pytest

#: Bytes shown on each side of the first differing offset.
CONTEXT = 40


def assert_equal_text(got, expected):
    """Assert ``got == expected`` for two ``str`` or two ``bytes`` values.

    The lengths and SHA-256 digests are compared first.  On a mismatch the
    test fails with one line naming the first differing offset (of the
    UTF-8 bytes) and up to ``CONTEXT`` bytes of each text on each side.
    """
    if type(got) is not type(expected):
        pytest.fail("comparing %s with %s" % (type(got).__name__,
                                              type(expected).__name__))
    if isinstance(got, str):
        got, expected = got.encode(), expected.encode()
    if (len(got) == len(expected) and hashlib.sha256(got).digest()
            == hashlib.sha256(expected).digest()):
        return
    common = min(len(got), len(expected))
    differ = np.flatnonzero(np.frombuffer(got, np.uint8, common)
                            != np.frombuffer(expected, np.uint8, common))
    offset = int(differ[0]) if differ.size else common
    window = slice(max(offset - CONTEXT, 0), offset + CONTEXT)
    pytest.fail("texts differ at byte %d of %d (got) and %d (expected): "
                "got %r, expected %r" % (offset, len(got), len(expected),
                                         got[window], expected[window]),
                pytrace=False)
