"""Per-vertex reference for chain realization: the loop that the sign-tree
walk in `dmdgp.geometry` replaced, kept for the tests to compare the walk,
branch-and-prune and the oracle scan against.
"""

import numpy as np

from dmdgp.bitstrings import check_bits
from dmdgp.geometry import Conformation, InternalCoords, b_matrix


def realize(internal: InternalCoords, bits: str) -> Conformation:
    """Realize the candidate selected by a torsion-sign word.

    Positions come from the running product Q_i = Q_{i-1} B_i applied
    to the homogeneous origin; bit j controls vertex 4+j (0 -> positive
    sine, 1 -> negative).
    """
    n = internal.n
    check_bits(bits, n - 3)
    points = np.zeros((n, 3))
    q = np.eye(4)
    for i in range(2, n + 1):
        sign = 1 if i <= 3 or bits[i - 4] == "0" else -1
        q = q @ b_matrix(i, internal, sign)
        points[i - 1] = q[:3, 3]
    return Conformation(points)
