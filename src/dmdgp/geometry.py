"""Internal coordinates, chain realization, and the distance penalty.

A chain molecule with vertex order v1..vn is described by bond lengths
d_{i-1,i}, planar angles theta_{i-2,i} in (0, pi), and torsion angles
omega_{i-3,i}.  Only the torsion cosines are determined by the distance
data; the sign of each torsion sine is a free binary choice, so a word
of n-3 bits selects one candidate conformation.  Bit 0 selects the
positive sine branch, bit 1 the negative one, and the leftmost bit
belongs to vertex 4.

Cartesian coordinates are accumulated through a running product of 4x4
homogeneous transforms, one per vertex, applied to the origin.  The
first three atoms land at fixed positions:

    x1 = (0, 0, 0)
    x2 = (-d12, 0, 0)
    x3 = (-d12 + d23*cos(theta13), d23*sin(theta13), 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .bitstrings import check_bits

try:
    # `np.einsum` with its default optimize=False returns exactly what this C
    # entry returns; `_terms` calls it directly to skip the __array_function__
    # dispatch, ~1 us of a ~3 us call on the walk's operands.  The name is
    # private to numpy, so a numpy that moves it gets the public function.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover
    _einsum = np.einsum

if TYPE_CHECKING:  # pragma: no cover
    from .instance import DmdgpInstance

#: Torsion cosines farther than this outside [-1, 1] are rejected
#: instead of clamped.
COS_TOLERANCE = 1e-9

#: A block of the sign-tree walk holds at most 2^BLOCK_LEVELS rows in
#: branch-and-prune's mode "all" and in the scan, so a scan's memory does
#: not grow with the search space.  Blocks of 2^6..2^12 leaves scan
#: n=12..14 in about the same time; 2^8 keeps a scan's allocations near
#: 1 MiB (4 MiB at 2^10).
BLOCK_LEVELS = 8


class InconsistentDistances(ValueError):
    """Distances that no chain realizes: a degenerate triple or a torsion
    cosine outside [-1, 1]."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Own a read-only copy, so values are safe to share across threads."""
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class InternalCoords:
    """Internal coordinates of an n-vertex chain.

    bonds[i-2]            d_{i-1,i}        for i = 2..n
    angles[i-3]           theta_{i-2,i}    for i = 3..n, radians in (0, pi)
    torsion_cosines[i-4]  cos omega_{i-3,i} for i = 4..n, clamped to [-1, 1]
    """

    bonds: np.ndarray
    angles: np.ndarray
    torsion_cosines: np.ndarray

    def __post_init__(self) -> None:
        bonds = np.asarray(self.bonds, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        cosines = np.asarray(self.torsion_cosines, dtype=float)
        n = bonds.size + 1
        if n < 4:
            raise ValueError("need at least 4 vertices (3 bonds)")
        if angles.size != n - 2 or cosines.size != n - 3:
            raise ValueError(
                f"inconsistent lengths: {bonds.size} bonds, "
                f"{angles.size} angles, {cosines.size} torsion cosines"
            )
        if (bonds <= 0).any():
            raise ValueError("bond lengths must be positive")
        if (angles <= 0).any() or (angles >= math.pi).any():
            raise ValueError("planar angles must lie strictly inside (0, pi)")
        if (np.abs(cosines) > 1.0 + COS_TOLERANCE).any():
            raise ValueError("torsion cosine outside [-1, 1] beyond tolerance")
        object.__setattr__(self, "bonds", _frozen(bonds))
        object.__setattr__(self, "angles", _frozen(angles))
        object.__setattr__(self, "torsion_cosines", _frozen(cosines.clip(-1.0, 1.0)))

    @property
    def n(self) -> int:
        return self.bonds.size + 1

    def bond(self, i: int) -> float:
        """d_{i-1,i} for 2 <= i <= n."""
        return float(self.bonds[i - 2])

    def angle(self, i: int) -> float:
        """theta_{i-2,i} for 3 <= i <= n."""
        return float(self.angles[i - 3])

    def torsion_cos(self, i: int) -> float:
        """cos omega_{i-3,i} for 4 <= i <= n."""
        return float(self.torsion_cosines[i - 4])


@dataclass(frozen=True)
class Conformation:
    """Ordered 3D positions x1..xn, in the chain's canonical frame."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        object.__setattr__(self, "points", _frozen(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def point(self, i: int) -> np.ndarray:
        """Position of vertex i (1-based)."""
        return self.points[i - 1]

    def distance(self, u: int, v: int) -> float:
        return float(_distances(self.points, u - 1, v - 1))


def b_matrix(i: int, internal: InternalCoords, sign: int = 1) -> np.ndarray:
    """Homogeneous transform appended at vertex i of the chain: the identity
    at i = 1, the second atom at i = 2, and for i >= 4 the step whose
    torsion sine is sign * sqrt(1 - cos^2 omega).  Vertex 3 is that step
    with torsion cosine 1, which keeps x3 in the plane z = 0; `sign` is
    ignored for i <= 3."""
    if not 1 <= i <= internal.n:
        raise ValueError(f"vertex {i} out of range 1..{internal.n}")
    if i == 1:
        return np.eye(4)
    if i == 2:
        d = internal.bond(2)
        return np.array(
            [
                [-1.0, 0.0, 0.0, -d],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    if i == 3:
        cw, sw = 1.0, 0.0
    elif sign in (1, -1):
        cw = internal.torsion_cos(i)
        sw = sign * math.sqrt(max(0.0, 1.0 - cw * cw))
    else:
        raise ValueError("sign must be +1 or -1")
    d, theta = internal.bond(i), internal.angle(i)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [-ct, -st, 0.0, -d * ct],
            [st * cw, -ct * cw, -sw, d * st * cw],
            [st * sw, -ct * sw, cw, d * st * sw],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _branch_matrices(internal: InternalCoords) -> np.ndarray:
    """b_matrix(i, internal, sign) for i = 4..n as one (n-3, 2, 4, 4) array,
    [:, 0] the positive and [:, 1] the negative sine branch.

    Bit for bit the same doubles as `b_matrix`: cos and sin come from
    `math`, and every entry takes the same operands in the same order.
    """
    d, cw = internal.bonds[2:], internal.torsion_cosines
    theta = internal.angles[1:].tolist()
    ct = np.fromiter(map(math.cos, theta), dtype=float, count=cw.size)
    st = np.fromiter(map(math.sin, theta), dtype=float, count=cw.size)
    root = np.sqrt(np.maximum(0.0, 1.0 - cw * cw))
    out = np.zeros((cw.size, 2, 4, 4))
    # each entry written into its slice: rows 0 and 3 and the cos-omega
    # terms are the same on both branches
    m = out.transpose(2, 3, 1, 0)  # m[row, column] is a (2, n-3) view
    m[0, 0], m[0, 1], m[0, 3] = -ct, -st, -d * ct
    m[1, 0], m[1, 1], m[1, 3], m[2, 2] = st * cw, -ct * cw, d * st * cw, cw
    m[3, 3] = 1.0
    for b, sw in enumerate((root, -root)):
        m[1, 2, b], m[2, 0, b], m[2, 1, b], m[2, 3, b] = -sw, st * sw, -ct * sw, d * st * sw
    return out


def realize(internal: InternalCoords, bits: str) -> Conformation:
    """Realize the candidate selected by a torsion-sign word.

    Positions come from the running product Q_i = Q_{i-1} B_i applied
    to the homogeneous origin; bit j controls vertex 4+j (0 -> positive
    sine, 1 -> negative).  The product is the sign-tree walk's: its one
    row under the prefix `bits`, over no edges.
    """
    check_bits(bits, internal.n - 3)
    no_edges = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
    (_, points, _), = _sign_blocks(internal, no_edges, prefix=bits)
    return Conformation(points[0])


def _sign_blocks(internal: InternalCoords,
                 edges: tuple[np.ndarray, np.ndarray, np.ndarray],
                 delta: float = math.inf,
                 cap: int = 1 << BLOCK_LEVELS,
                 prefix: str = ""
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The one walk of the sign tree: (index (K,), points (K, n, 3), g (K,))
    per block of leaves with penalty g < delta over `edges` (from
    `edge_arrays`), depth first and 0 child first, so ascending.

    The stack holds blocks of rows of one depth, in ascending order.  A
    popped block is doubled level by level, Q <- (Q B_v^0, Q B_v^1) per row,
    and whenever it holds more than `cap` rows it is split in halves, the
    upper half pushed for later.  Every yielded block is nonempty and holds
    at most `cap` rows.  With delta = inf nothing is dropped, so the blocks
    are the consecutive ranges of min(cap, 2^(n-3)) leaves, and row j of a
    block is leaf index[0] + j: the oracle scan relies on that.

    Each row carries its partial penalty: placing vertex v adds the terms
    of `_terms`, the one penalty kernel, over the edges whose later endpoint
    is v, and a row is dropped once the sum reaches delta.  The terms are
    nonnegative, so the sum never decreases and no leaf with g < delta is
    lost.  Each row also carries its index, the integer its sign bits spell:
    the 1 child at vertex v adds 2^(n-v), so an index is exact at any depth:
    int64 while n - 3 <= 63, Python ints (dtype object) past that.

    Both steps read one table built before the walk: levels[v] holds the
    (2, 4, 4) pair B_v^0, B_v^1 of `_branch_matrices` and the (u, d^2) of
    the edges v closes, so a level costs one list lookup.  `_terms` calls
    numpy's C einsum entry, which `np.einsum` itself returns with its
    default optimize=False, and so skips the dispatch layer; the public
    function is the fallback on a numpy without that entry.

    A block of one row is not doubled but extended in place, the common
    case on a deep chain, whose tree is mostly a path: one product gives
    both children's Q, their terms come from one (2, e, 3) difference with
    the row, and the one child below delta writes its point into the row
    and its bit into the row's index, a Python int.  The row's g is a
    Python float, whose sum is the array add's, and the two children are
    tested as two Python bools, against the prefix only while v lies under
    it.  A level that closes no edge forms no difference at all, so
    `realize` costs one product per vertex.  The run ends at the leaf, at a
    dead row, or when both children survive: they become a block of two
    rows.  Its rows are the doubling step's, bit for bit, and a yielded row
    is never written again.

    `prefix`, a sign word of at most n - 3 bits, limits the walk to the
    subtree under it: at a vertex it names, a row's two children are formed
    as at any other level and only the named one may live.  "0" is vertex
    4's 0 subtree, whose mirror is the rest of the tree (see
    `bp.branch_and_prune`); a full word is `realize`.  The walk starts from
    one row, so the prefix's levels are one-row steps.
    """
    n = internal.n
    # the edges sorted by their later endpoint, those vertex i closes from
    # starts[i - 3]; vertex 3 closes those of the fixed root too
    later = np.maximum(edges[1], 2)
    by_later = np.argsort(later, kind="stable")
    u, w, d2 = (a[by_later] for a in edges)
    starts = np.searchsorted(later[by_later], np.arange(2, n + 1)).tolist()
    # levels[v] of branching vertex v: B_v of its 0 and its 1 child, and the
    # (u, d^2) of the edges it closes, all of which end at v
    levels = [None] * 4 + [(b, u[s:e], d2[s:e])
                           for b, s, e in zip(_branch_matrices(internal), starts[1:], starts[2:])]

    # the fixed root: x1 at the origin, x2 and x3 from B_2 and B_2 B_3
    q2 = b_matrix(2, internal)
    q = q2 @ b_matrix(3, internal)
    block = np.zeros((1, n, 3))
    block[0, 1:3] = q2[:3, 3], q[:3, 3]
    index = np.zeros(1, dtype=np.int64 if n - 3 <= 63 else object)
    root = slice(starts[1])
    gs = penalties(block, (u[root], w[root], d2[root]))  # the root is cut here: no later level need close an edge
    # (vertex placed last, then Q, points, g and index of the rows)
    stack = [(3, q[None], block, gs, index)] if gs[0] < delta else []
    while stack:
        v, qs, block, gs, index = stack.pop()
        while True:
            if gs.size > cap:
                h = gs.size >> 1
                stack.append((v, qs[h:], block[h:], gs[h:], index[h:]))
                qs, block, gs, index = qs[:h], block[:h], gs[:h], index[:h]
            if gs.size == 1 and v < n:  # one row: extend it in place
                q, row, g, k = qs[0], block[0], gs.item(), index.item()
                while v < n:
                    v += 1
                    b, us, d2s = levels[v]
                    kids = q @ b
                    g0 = g1 = g
                    if d2s.size:  # the children's terms, from their differences with the row
                        t0, t1 = _terms(row.take(us, axis=0) - kids[:, None, :3, 3], d2s).tolist()
                        g0, g1 = g + t0, g + t1
                    live0, live1 = g0 < delta, g1 < delta
                    if v - 4 < len(prefix):  # only the child the prefix names may live
                        live0, live1 = live0 and prefix[v - 4] == "0", live1 and prefix[v - 4] == "1"
                    if live0 == live1:  # both children or neither: the run ends
                        break
                    if live1:
                        q, g = kids[1], g1
                        k |= 1 << (n - v)
                    else:
                        q, g = kids[0], g0
                    row[v - 1] = q[:3, 3]
                if live0 != live1:  # the leaf
                    qs, gs, index = q[None], np.array([g]), np.array([k], index.dtype)
                elif live0:  # both children: a block of two rows
                    qs, gs, index = kids, np.array([g0, g1]), np.array([k, k | 1 << (n - v)], index.dtype)
                    block = block.repeat(2, axis=0)
                    block[:, v - 1] = kids[:, :3, 3]
                    continue
                else:  # the row is dead
                    break
            if v == n:
                yield index, block, gs
                break
            v += 1
            b, us, d2s = levels[v]
            qs = np.matmul(qs[:, None], b).reshape(-1, 4, 4)
            block, gs = block.repeat(2, axis=0), gs.repeat(2)
            index = np.add.outer(index, np.array([0, 1 << (n - v)], index.dtype)).ravel()
            block[:, v - 1] = qs[:, :3, 3]
            gs = gs + _terms(block.take(us, axis=1) - block[:, v - 1:v], d2s)
            kept = (gs < delta).nonzero()[0]
            if kept.size < gs.size:
                if not kept.size:
                    break
                qs, block, gs, index = qs[kept], block[kept], gs[kept], index[kept]


def edge_arrays(inst: "DmdgpInstance") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based endpoints u, v and squared distances d_uv^2 of every edge,
    the form `penalties` takes the instance in."""
    return inst.u - 1, inst.v - 1, inst.d * inst.d


def penalties(points: np.ndarray,
              edges: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Penalty of each conformation in a stack: points (K, n, 3) -> (K,).

    g = sum over edges of (||x_u - x_v||^2 - d_uv^2)^2, with `edges` from
    `edge_arrays`.  Zero exactly when every edge distance is met.
    """
    u, v, d2 = edges
    return _terms(points.take(u, axis=1) - points[:, v], d2)


def _terms(diff: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The penalty kernel: sum over e of (|diff[k, e]|^2 - d2[e])^2 per row k
    of the edge difference vectors diff (K, e, 3).  `penalties` and both
    steps of the sign-tree walk sum their terms here, so they agree bit for bit."""
    residual = _einsum("kej,kej->ke", diff, diff)
    residual -= d2
    return _einsum("ke,ke->k", residual, residual)


def _distances(points: np.ndarray, u: int | np.ndarray, v: int | np.ndarray) -> np.ndarray:
    """|x_u - x_v| for 0-based vertices u, v: ints, or index arrays of one
    shape.  sqrt(x . x) through `np.matmul`, one dot product per pair, is
    the one pair-distance formula: `Conformation.distance` and the
    generator's edge weights both read it."""
    diff = points[u] - points[v]
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def penalty(conf: Conformation, inst: "DmdgpInstance") -> float:
    """Penalty of one conformation: `penalties` of a stack of one; raises
    ValueError when `conf` is not of an n-vertex chain."""
    if conf.n != inst.n:
        raise ValueError(f"conformation has n={conf.n}, instance has n={inst.n}")
    return float(penalties(conf.points[None], edge_arrays(inst))[0])


def extract_internal(inst: "DmdgpInstance") -> InternalCoords:
    """Read internal coordinates off a validated instance.

    Planar angles come from the law of cosines on consecutive triples.
    Torsion cosines come from the closed form over the six pairwise
    distances of each consecutive quadruple (intermediates a1, a2 are
    the law-of-cosines numerators of its two triples):

        a1 = d_{i-3,i-2}^2 + d_{i-2,i-1}^2 - d_{i-3,i-1}^2
        a2 = d_{i-2,i-1}^2 + d_{i-2,i}^2   - d_{i-1,i}^2

                  2 d_{i-2,i-1}^2 (d_{i-3,i-2}^2 + d_{i-2,i}^2 - d_{i-3,i}^2) - a1 a2
        cos w = -----------------------------------------------------------------------
                 sqrt(4 d_{i-3,i-2}^2 d_{i-2,i-1}^2 - a1^2) sqrt(4 d_{i-2,i-1}^2 d_{i-2,i}^2 - a2^2)
    """
    n = inst.n
    d1, d2, d3 = inst.clique_weights
    if math.isnan(d1.sum() + d2.sum() + d3.sum()):
        raise ValueError("instance lacks a clique pair: validate it first")
    # the triples (i-2, i-1, i) for i = 3..n
    a, b, c = d1[:-1], d1[1:], d2
    with np.errstate(all="ignore"):
        cos_t = (a * a + b * b - c * c) / (2.0 * a * b)
    # squares past the doubles' range make cos theta NaN, which passes no test
    bad = (~(np.abs(cos_t) <= 1.0 + COS_TOLERANCE)).nonzero()[0]
    if bad.size:
        why = "cos theta is NaN" if math.isnan(cos_t[bad[0]]) else "|cos theta| > 1"
        raise InconsistentDistances(f"degenerate triple at vertex {bad[0] + 3}: {why}")
    # math.acos, as `_branch_matrices` takes math.cos: np.arccos may differ in the last bit
    angles = np.fromiter(map(math.acos, cos_t.clip(-1.0, 1.0).tolist()), float, n - 2)
    cosines = _torsion_cosine(d1[:-2], d2[:-1], d3, d1[1:-1], d2[1:], d1[2:])
    return InternalCoords(d1, angles, cosines)


def _torsion_cosine(d12, d13, d14, d23, d24, d34):
    """cos of the dihedral of each quadruple from its six distances, given
    as floats or as arrays over quadruples."""
    with np.errstate(all="ignore"):
        a1 = d12 * d12 + d23 * d23 - d13 * d13
        a2 = d23 * d23 + d24 * d24 - d34 * d34
        s1 = 4.0 * d12 * d12 * d23 * d23 - a1 * a1
        s2 = 4.0 * d23 * d23 * d24 * d24 - a2 * a2
        num = 2.0 * d23 * d23 * (d12 * d12 + d24 * d24 - d14 * d14) - a1 * a2
        cos_w = num / (np.sqrt(s1) * np.sqrt(s2))
    # a collinear triple (s1 or s2 <= 0) makes cos_w NaN or infinite, and so
    # does a product past the doubles' range
    bad = np.ravel(~(np.abs(cos_w) <= 1.0 + COS_TOLERANCE)).nonzero()[0]
    if bad.size:
        if min(np.ravel(s1)[bad[0]], np.ravel(s2)[bad[0]]) <= 0.0:
            raise InconsistentDistances("collinear triple: torsion angle undefined")
        raise InconsistentDistances("torsion cosine outside [-1, 1]: inconsistent distances")
    return cos_w.clip(-1.0, 1.0)


def quad_end_distance(bonds: tuple[float, float, float],
                      angles: tuple[float, float],
                      torsion_cos: float) -> float:
    """Distance between the first and fourth atom of a short chain with
    bonds a, b, c, planar angles t1, t2 and torsion cosine cos w, either
    sine branch: d14^2 = a^2 + b^2 + c^2 - 2ab cos t1 - 2bc cos t2
    + 2ac (cos t1 cos t2 - sin t1 sin t2 cos w)."""
    a, b, c = bonds
    ct1, ct2 = math.cos(angles[0]), math.cos(angles[1])
    st1, st2 = math.sin(angles[0]), math.sin(angles[1])
    d2 = (a * a + b * b + c * c - 2.0 * a * b * ct1 - 2.0 * b * c * ct2
          + 2.0 * a * c * (ct1 * ct2 - st1 * st2 * torsion_cos))
    return math.sqrt(max(0.0, d2))
