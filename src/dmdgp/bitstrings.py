"""Fixed-width binary string helpers.

Candidate indices and torsion-sign words use the same convention
everywhere: the leftmost character is the most significant bit and
belongs to the lowest branching vertex (vertex 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def int_to_bits(k: int, width: int) -> str:
    if not 0 <= k < (1 << width):
        raise ValueError(f"index {k} does not fit in {width} bits")
    return format(k, f"0{width}b")


def all_bits(width: int, index: Sequence[int] | np.ndarray | None = None) -> list[str]:
    """int_to_bits(k, width) for every k in `index`, by default 0..2^width - 1,
    in order.  Up to 63 bits they are one byte array of digit rows, unpacked
    from the indices' bytes and decoded and split once, rather than one
    format call per index; wider indices are Python ints, formatted one by
    one."""
    k = np.arange(1 << width) if index is None else np.asarray(index)
    if width > 63:
        return [format(j, f"0{width}b") for j in k.tolist()]
    # the big-endian bytes that hold each index's low `width` bits
    size = -(-width // 8)
    low = k.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size:]
    rows = np.full((k.size, width + 1), ord("\n"), dtype=np.uint8)
    np.add(np.unpackbits(low, axis=1)[:, 8 * size - width:], ord("0"), out=rows[:, :width])
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
