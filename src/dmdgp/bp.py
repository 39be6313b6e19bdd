"""Branch-and-prune enumeration and the solution-set symmetries.

The search tree roots at the fixed first three atoms and branches on
the torsion sign at each vertex from 4 to n.  Each node carries the
partial penalty of the edges its placed vertices close, and a subtree
is pruned once that sum reaches the oracle's threshold delta, so the
surviving leaves are exactly the candidates the oracle marks.  The
symmetry vertices S predict the solution count 2^|S| before any search
runs, and one found solution expands to the full set by suffix
reflections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstrings import bits_to_int, int_to_bits
from .geometry import BLOCK_LEVELS, Conformation, InternalCoords, _sign_blocks, edge_arrays
from .instance import DmdgpInstance
from .oracle import DEFAULT_DELTA


#: Points (rows times n) a block of the walk holds in mode "first".  A wide
#: block reaches the first leaf of a bushy tree in fewer doubling steps
#: than single rows do, but on a long chain each extra row, often the
#: mirror image of the first, is n more points copied per level and is
#: never read.  256 allows 18 rows at n = 14, 12 at n = 20 and one past
#: n = 128; no single row count was as fast on both kinds of tree.
FIRST_BLOCK_POINTS = 256


class NoSolutionError(RuntimeError):
    """No candidate has penalty below delta: no chain realizes the distances."""


@dataclass(frozen=True)
class SymmetrySet:
    """Vertices v in 4..n with no edge {u, w} such that u + 3 < v <= w."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    @property
    def expansion_size(self) -> int:
        """Predicted solution count 2^|S|."""
        return 1 << len(self.vertices)


@dataclass(frozen=True)
class Solution:
    index: int
    conformation: Conformation
    penalty: float

    @property
    def bits(self) -> str:
        return int_to_bits(self.index, self.conformation.n - 3)


@dataclass(frozen=True)
class SolutionSet:
    """Walk rows, ascending: indices, read-only points (K, n, 3), penalties (K,)."""

    index: tuple[int, ...]
    points: np.ndarray
    penalties: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def entries(self) -> tuple[Solution, ...]:
        """The rows as `Solution`s, built on each read."""
        return tuple(Solution(k, Conformation(pts), g)
                     for k, pts, g in zip(self.index, self.points, self.penalties.tolist()))

    def bit_strings(self) -> list[str]:
        return [int_to_bits(k, self.points.shape[1] - 3) for k in self.index]

    def indices(self) -> list[int]:
        return list(self.index)


def symmetry_set(inst: DmdgpInstance) -> SymmetrySet:
    """Evaluate the defining set comprehension in O(n + |E|): each edge
    {u, w} with w > u + 3 covers the vertex range u+4..w, marked on a
    difference array, and S is the uncovered part of 4..n."""
    n, far = inst.n, inst.v - inst.u > 3
    starts = (np.bincount(inst.u[far] + 4, minlength=n + 2)
              - np.bincount(inst.v[far] + 1, minlength=n + 2))
    covering = starts[:n + 1].cumsum()
    return SymmetrySet(tuple(((covering[4:] == 0).nonzero()[0] + 4).tolist()))


def expand_symmetry(bits: str, sym: SymmetrySet) -> set[str]:
    """All strings reachable by reflecting at symmetry vertices.

    Reflecting at vertex v flips every bit position for vertices >= v.
    The flips commute, so the orbit over all subsets of S has exactly
    2^|S| distinct members (including the input).
    """
    k, width = bits_to_int(bits), len(bits)
    flips = [0]
    for v in sym.vertices:
        # positions of vertices >= v: all but the leading v - 4
        suffix = (1 << width) - 1 >> max(v - 4, 0)
        flips += [f ^ suffix for f in flips]
    return {int_to_bits(k ^ f, width) for f in flips}


def branch_and_prune(
    inst: DmdgpInstance,
    internal: InternalCoords,
    delta: float = DEFAULT_DELTA,
    mode: str = "all",
) -> SolutionSet:
    """Depth-first search of the sign tree for the candidates with penalty
    below delta, in ascending index order.

    mode="first" stops at the first such leaf, mode="all" returns every
    one.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"mode must be 'first' or 'all', got {mode!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if mode == "first":
        limit, cap = 1, max(1, FIRST_BLOCK_POINTS // inst.n)
    else:
        limit, cap = None, 1 << BLOCK_LEVELS
    index, blocks, gs = [], [], []
    for k, block, g in _sign_blocks(internal, edge_arrays(inst), delta, cap):
        index += k[:limit].tolist()
        blocks.append(block[:limit])
        gs.append(g[:limit])
        if limit:
            break
    if not index:
        raise NoSolutionError(f"branch-and-prune found no candidate with penalty below {delta:g}")
    points = np.concatenate(blocks)
    points.flags.writeable = False
    return SolutionSet(tuple(index), points, np.concatenate(gs))
