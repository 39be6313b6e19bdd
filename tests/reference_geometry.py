"""References for chain realization: the per-vertex loop that the sign-tree
walk in `dmdgp.geometry` replaced, and the block-only walk, which takes
every level through the doubling step where the library's walk extends a
one-row block in place.  Kept for the tests to compare the walk,
branch-and-prune and the oracle scan against.
"""

import math
from typing import Iterator

import numpy as np

from dmdgp.bitstrings import check_bits
from dmdgp.geometry import (
    BLOCK_LEVELS,
    Conformation,
    InternalCoords,
    _branch_matrices,
    b_matrix,
    penalties,
)


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


def sign_blocks(internal: InternalCoords,
                edges: tuple[np.ndarray, np.ndarray, np.ndarray],
                delta: float = math.inf,
                cap: int = 1 << BLOCK_LEVELS,
                prefix: str = ""
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The block-only walk of the sign tree: (index (K,), points (K, n, 3), g (K,))
    per block of leaves with penalty g < delta over `edges` (from
    `edge_arrays`), depth first and 0 child first, so ascending.

    The stack holds blocks of rows of one depth, in ascending order.  A
    popped block is doubled level by level, Q <- (Q B_v^0, Q B_v^1) per row,
    and whenever it holds more than `cap` rows it is split in halves, the
    upper half pushed for later.  Every yielded block is nonempty and holds
    at most `cap` rows.  With delta = inf nothing is dropped, so the blocks
    are the consecutive ranges of min(cap, 2^(n-3)) leaves, and row j of a
    block is leaf index[0] + j: the oracle scan relies on that.

    Each row carries its partial penalty: placing vertex v adds `penalties`
    over the edges whose later endpoint is v, and a row is dropped once the
    sum reaches delta (a level with no such edge skips both).  The terms
    are nonnegative, so the sum never decreases and no leaf with g < delta
    is lost.  Each row also carries its sign bits, so an index is exact at
    any depth: int64 while n - 3 <= 63, Python ints (dtype object) past that.

    `prefix`, a sign word of at most n - 3 bits, limits the walk to the
    subtree under it: down to its last vertex a row takes the one child it
    names, Q <- Q B_v^bit.  "0" is vertex 4's 0 subtree, whose mirror is the
    rest of the tree (see `bp.branch_and_prune`); a full word is `realize`.
    """
    n = internal.n
    # the edges vertex i closes (vertex 3 closes those of the fixed root
    # too); past the root all of them end at vertex i, read as a basic slice
    later = np.maximum(edges[1], 2)
    by_later = np.argsort(later, kind="stable")
    u, w, d2 = (a[by_later] for a in edges)
    starts = np.searchsorted(later[by_later], np.arange(2, n + 1)).tolist() + [later.size]
    closes = {i: (u[s:e], slice(i - 1, i) if i > 3 else w[s:e], d2[s:e])
              for i, s, e in zip(range(3, n + 1), starts, starts[1:])}
    # B_v of the 0 and the 1 child of branching vertex v at branches[v - 4]
    branches = _branch_matrices(internal)
    # a row's sign bits, leftmost first, weigh 2^(n-4) .. 1
    weights = np.array([1 << j for j in range(n - 4, -1, -1)],
                       dtype=np.int64 if n - 3 <= 63 else object)

    # the fixed root: x1 at the origin, x2 and x3 from B_2 and B_2 B_3
    q2 = b_matrix(2, internal)
    q = q2 @ b_matrix(3, internal)
    block = np.zeros((1, n, 3))
    block[0, 1:3] = q2[:3, 3], q[:3, 3]
    bits = np.array([list(map(int, prefix.ljust(n - 3, "0")))], dtype=np.uint8)
    gs = penalties(block, closes[3])  # the root is cut here: no later level need close an edge
    # (vertex placed last, then Q, points, g and sign bits of the rows)
    stack = [(3, q[None], block, gs, bits)] if gs[0] < delta else []
    while stack:
        v, qs, block, gs, bits = stack.pop()
        while True:
            if gs.size > cap:
                h = gs.size >> 1
                stack.append((v, qs[h:], block[h:], gs[h:], bits[h:]))
                qs, block, gs, bits = qs[:h], block[:h], gs[:h], bits[:h]
            if v == n:
                yield bits @ weights, block, gs
                break
            v += 1
            if v - 4 < len(prefix):  # the one child the prefix names
                qs = qs @ branches[v - 4, int(prefix[v - 4])]
            else:
                qs = np.matmul(qs[:, None], branches[v - 4]).reshape(-1, 4, 4)
                block, gs, bits = block.repeat(2, axis=0), gs.repeat(2), bits.repeat(2, axis=0)
                bits[1::2, v - 4] = 1
            block[:, v - 1] = qs[:, :3, 3]
            if not closes[v][2].size:  # an edge-free level keeps g and the rows
                continue
            gs = gs + penalties(block, closes[v])
            kept = (gs < delta).nonzero()[0]
            if kept.size < gs.size:
                if not kept.size:
                    break
                # a run of rows, or any two, is a basic slice, which copies nothing
                a, b = kept[0], kept[-1]
                if kept.size == 2 or b - a < kept.size:
                    kept = slice(a, b + 1, b - a if kept.size == 2 else 1)
                qs, block, gs, bits = qs[kept], block[kept], gs[kept], bits[kept]
