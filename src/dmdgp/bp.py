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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bitstrings import bits_to_int, int_to_bits
from .geometry import Conformation, InternalCoords, _sign_blocks, edge_arrays
from .instance import DmdgpInstance
from .oracle import DEFAULT_DELTA


#: Rows a block of the walk holds in mode "first".  Against the former 256 // n
#: rows it is as fast on cliques and deep p = 0.5 chains, and 3-6x faster on
#: sparse n = 60..200 trees, whose dead subtrees 1-4 rows crawled through.
FIRST_BLOCK_ROWS = 16


class NoSolutionError(RuntimeError):
    """No candidate has penalty below delta: no chain realizes the distances."""


@dataclass(frozen=True)
class SymmetrySet:
    """Vertices v in 4..n with no edge {u, w} such that u + 3 < v <= w."""

    vertices: tuple[int, ...]

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
    """Walk rows, ascending: the read-only index (K,), int64 (dtype object
    past 63 levels), penalties (K,), and read-only points (K, n, 3) that
    `_walk` makes on first read: a copy of mode "first"'s row, or mode
    "all"'s walk of the whole tree."""

    index: np.ndarray
    penalties: np.ndarray
    _walk: Callable[[], np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return len(self.index)

    @cached_property
    def points(self) -> np.ndarray:
        points = self._walk()
        points.flags.writeable = False
        return points

    @property
    def entries(self) -> tuple[Solution, ...]:
        """The rows as `Solution`s, built on each read."""
        rows = zip(self.index.tolist(), self.points, self.penalties.tolist())
        return tuple(Solution(k, Conformation(pts), g) for k, pts, g in rows)


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

    Vertex 4 is in S for every instance: reflecting a chain through the
    plane z = 0 of the fixed root x1..x3 negates z at vertices 4..n, flips
    every sign bit (leaf k <-> 2^(n-3) - 1 - k) and keeps every distance.
    So the walk runs under the prefix "0", vertex 4's 0 subtree, which holds
    the first leaf, and mode "all" appends the mirror leaves' index and
    penalties in reverse order.  Negation is exact and the walk's arithmetic
    commutes with it; a coordinate computed as exactly zero may come out as
    0.0 in both subtrees, but a signed zero in a coordinate difference
    cancels or adds nothing.  So the mirror rows' index and penalties are
    those a walk of the 1 subtree computes, bit for bit, planar chains
    included.

    Mode "first" keeps its row's points.  Mode "all" keeps none:
    `SolutionSet.points` walks the whole tree, the walk under the empty
    prefix, on first read.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"mode must be 'first' or 'all', got {mode!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if internal.n != inst.n:
        raise ValueError(f"internal coordinates built for n={internal.n}, instance has n={inst.n}")
    edges = edge_arrays(inst)
    ks, gs = [], []
    if mode == "first":
        for k, block, g in _sign_blocks(internal, edges, delta, FIRST_BLOCK_ROWS, "0"):
            ks, gs, walk = [k[:1]], [g[:1]], block[:1].copy
            break
    else:
        for k, _, g in _sign_blocks(internal, edges, delta, prefix="0"):
            ks.append(k)
            gs.append(g)
        top = (1 << (inst.n - 3)) - 1
        ks += [top - k[::-1] for k in reversed(ks)]
        gs += [g[::-1] for g in reversed(gs)]
        # the points of every leaf below delta: the whole-tree walk's blocks, joined
        walk = lambda: np.concatenate([b for _, b, _ in _sign_blocks(internal, edges, delta)])
    if not ks:
        raise NoSolutionError(f"branch-and-prune found no candidate with penalty below {delta:g}")
    index = np.concatenate(ks)
    index.flags.writeable = False
    return SolutionSet(index, np.concatenate(gs), walk)
