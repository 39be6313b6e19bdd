"""Fixed-width binary string helpers.

Candidate indices and torsion-sign words use the same convention
everywhere: the leftmost character is the most significant bit and
belongs to the lowest branching vertex (vertex 4).  `decimal_text`
writes such indices, and the sizes of their ranges, in decimal.
"""

from __future__ import annotations

import decimal

import numpy as np


def decimal_text(k: int) -> str:
    """str(k) at any length: `str` refuses an int past
    sys.get_int_max_str_digits() digits (4300 by default), `Decimal` does
    not.  int() lets numpy integers in."""
    return str(decimal.Decimal(int(k)))


def int_to_bits(k: int, width: int) -> str:
    if not 0 <= k < (1 << width):
        raise ValueError(f"index {k} does not fit in {width} bits")
    return format(k, f"0{width}b")


def bitstrings(width: int, index: np.ndarray) -> list[str]:
    """int_to_bits(k, width), `width` up to 63, for each k of an integer index
    array, such as a block's np.arange(start, stop) or a slice of a marked set:
    one byte array of digit rows, decoded and split once, not a format per index."""
    rows = np.full((len(index), width + 1), ord("\n"), dtype=np.uint8)
    _bit_digits(index, width, rows[:, :width])
    return rows.tobytes().decode("ascii").split()


def _bit_digits(k: np.ndarray, width: int, out: np.ndarray) -> None:
    """Write the digits of each index's low `width` bits, up to 63, into the
    rows of `out` (K, width): each of the indices' bytes, most significant
    first, unpacked through a table of its eight ASCII digits."""
    size = -(-width // 8)
    low = k.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, size - 1::-1]
    out[:] = _BYTE_DIGITS.take(low, axis=0).reshape(len(k), 8 * size)[:, 8 * size - width:]


#: The eight ASCII binary digits of each byte value, most significant first.
_BYTE_DIGITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) + np.uint8(ord("0"))


def bits_to_int(bits: str) -> int:
    if not bits or bits.strip("01"):
        raise ValueError(f"not a binary string: {bits!r}")
    return int(bits, 2)


def check_bits(bits: str, width: int) -> str:
    if len(bits) != width or bits.strip("01"):
        raise ValueError(f"expected a {width}-bit binary string, got {bits!r}")
    return bits
