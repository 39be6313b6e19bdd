"""Fixed-width binary string helpers.

Candidate indices and torsion-sign words use the same convention
everywhere: the leftmost character is the most significant bit and
belongs to the lowest branching vertex (vertex 4).
"""

from __future__ import annotations

import numpy as np


def int_to_bits(k: int, width: int) -> str:
    if not 0 <= k < (1 << width):
        raise ValueError(f"index {k} does not fit in {width} bits")
    return format(k, f"0{width}b")


def all_bits(width: int) -> list[str]:
    """int_to_bits(k, width) for every k in 0..2^width - 1, in order: one
    byte array of digit rows, filled a bit column at a time and decoded and
    split once, rather than one format call per index."""
    k = np.arange(1 << width)
    rows = np.full((k.size, width + 1), ord("\n"), dtype=np.uint8)
    for j in range(width):
        rows[:, j] = ord("0") + ((k >> (width - 1 - j)) & 1)
    return rows.tobytes().decode("ascii").split()


def bits_to_int(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a binary string: {bits!r}")
    return int(bits, 2)


def complement(bits: str) -> str:
    """Flip every bit."""
    return "".join("1" if c == "0" else "0" for c in bits)


def check_bits(bits: str, width: int) -> str:
    if len(bits) != width or any(c not in "01" for c in bits):
        raise ValueError(f"expected a {width}-bit binary string, got {bits!r}")
    return bits
