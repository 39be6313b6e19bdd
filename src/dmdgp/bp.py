"""Branch-and-prune enumeration and the solution-set symmetries.

The search tree roots at the fixed first three atoms and branches on
the torsion sign at each vertex from 4 to n.  Pruning tests every edge
{v_j, v_i} with j < i - 3 against the freshly placed position of v_i.
The symmetry vertices S predict the solution count 2^|S| before any
search runs, and one found solution expands to the full set by suffix
reflections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitstrings import bits_to_int, int_to_bits
from .geometry import Conformation, InternalCoords, edge_arrays, penalties, sign_tree
from .instance import DmdgpInstance

#: Default per-edge pruning tolerance (angstroms).  Linear distance
#: residuals are better conditioned during search than the quartic
#: penalty; accepted leaves are re-checked against the full penalty.
DEFAULT_PRUNE_TOL = 1e-6

#: Final-acceptance bound on a leaf's full penalty, matching the
#: oracle's solution threshold.
DEFAULT_PENALTY_TOL = 1e-4


class NoSolutionError(RuntimeError):
    """No leaf survived: inconsistent instance or too tight a tolerance."""


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
    bits: str
    conformation: Conformation
    penalty: float

    @property
    def index(self) -> int:
        return bits_to_int(self.bits)


@dataclass(frozen=True)
class SolutionSet:
    entries: tuple[Solution, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def bit_strings(self) -> list[str]:
        return [s.bits for s in self.entries]

    def indices(self) -> list[int]:
        return [s.index for s in self.entries]


def symmetry_set(inst: DmdgpInstance) -> SymmetrySet:
    """Evaluate the defining set comprehension in O(n + |E|): each edge
    {u, w} with w > u + 3 covers the vertex range u+4..w, marked on a
    difference array, and S is the uncovered part of 4..n."""
    starts = [0] * (inst.n + 2)
    for u, w in inst.edges:
        if w > u + 3:
            starts[u + 4] += 1
            starts[w + 1] -= 1
    members, covering = [], 0
    for v in range(4, inst.n + 1):
        covering += starts[v]
        if covering == 0:
            members.append(v)
    return SymmetrySet(tuple(members))


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
    tol: float = DEFAULT_PRUNE_TOL,
    mode: str = "all",
    branch_order: tuple[int, int] = (0, 1),
) -> SolutionSet:
    """Depth-first search of the sign tree.

    mode="first" stops at the first surviving leaf, mode="all" returns
    every one.  The result is sorted by bit word regardless of the
    branch order explored.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"mode must be 'first' or 'all', got {mode!r}")
    if tol <= 0:
        raise ValueError("pruning tolerance must be positive")
    if sorted(branch_order) != [0, 1]:
        raise ValueError("branch_order must be a permutation of (0, 1)")
    edges = edge_arrays(inst)
    found: list[Solution] = []
    for index, points in sign_tree(internal, inst.long_range_edges(), tol, branch_order):
        g = float(penalties(points[None], edges)[0])
        if g < DEFAULT_PENALTY_TOL:
            found.append(Solution(int_to_bits(index, inst.n - 3), Conformation(points), g))
            if mode == "first":
                break
    if not found:
        raise NoSolutionError(
            "branch-and-prune found no solution (inconsistent instance or tol too tight)"
        )
    found.sort(key=lambda s: s.index)
    return SolutionSet(tuple(found))
