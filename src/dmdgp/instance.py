"""Instance model, JSON (de)serialization, validation, and generators.

An instance is a weighted simple graph over vertices 1..n whose order
makes every consecutive quadruple a clique with strictly non-degenerate
triangles, so candidate solutions form a binary tree of torsion-sign
choices.  Generators produce instances forward from a seeded random
conformation, so the ground-truth answer is known exactly.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import numbers
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bitstrings import check_bits
from .geometry import Conformation, InternalCoords, _distances, quad_end_distance, realize

#: Distance ceiling (angstroms): the largest separation the intended
#: measurement technique resolves; also the bound the oracle
#: normalization assumes.
MAX_DISTANCE = 6.0

#: Largest vertex count of an instance, checked by every way of making one
#: (the constructor, `parse_document` and the generators) before any
#: n-length array is made.  `validate` holds a (4, n) table and a few
#: n-length temporaries, ~56 B per vertex at its peak (59 MB at this limit),
#: so n in the billions fails in one line instead of running out of memory.
MAX_VERTICES = 1 << 20

#: Generator draw ranges (angstroms / radians).
BOND_RANGE = (1.0, 1.8)
ANGLE_RANGE = (math.pi / 3, 2 * math.pi / 3)

#: Torsion draws are rejected while |sin omega| falls below this, so
#: the two sign branches stay numerically distinct.
MIN_TORSION_SINE = 1e-3

#: Generated weights are kept inside [MIN_PAIR_DISTANCE, MAX_DISTANCE];
#: the lower cutoff mimics steric exclusion between non-bonded atoms.
MIN_PAIR_DISTANCE = BOND_RANGE[0]

_GENERATION_ATTEMPTS = 1000
#: Long pairs per block of `generate`: its temporaries stay near 1 MiB at any n.
_PAIR_BLOCK = 1 << 14


class ParseError(ValueError):
    """Raised for malformed instance documents."""


def _check_vertex_count(n: int) -> int:
    if not isinstance(n, numbers.Integral) or n < 4:
        raise ValueError(f"vertex count must be an integer >= 4, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return int(n)


#: Exact types the edge rules accept.  type(True) is bool, so a bool is no
#: integer and no number, and 1.0 is no endpoint.
_ROW = frozenset({list})
_INTEGER = frozenset({int})
_NUMBER = frozenset({int, float})


class _FirstFailure:
    """The first row that fails a rule, the rules taken in order at each row.

    `test` takes a mask of failing rows, or None when no row fails.  Only
    the rows before `row` count, and those pass every earlier test, so a
    mask may be computed from what those rows are known to hold (lists of
    three, integers, u < v).  After the last test, `row` is the first row
    that fails any rule and `message` names the first rule it fails, or is
    None when every row passes.
    """

    def __init__(self, rows: int) -> None:
        self.row, self.message = rows, None

    def test(self, bad: np.ndarray | None, message: Callable[[int], str]) -> None:
        if bad is not None:
            hit = bad.nonzero()[0][:1]
            if hit.size and hit[0] < self.row:
                self.row = int(hit[0])
                self.message = message(self.row)


def _wrong_type(types: frozenset, *columns: Sequence) -> np.ndarray | None:
    """Mask of the rows of `columns` holding a value whose exact type is not
    one of `types`, or None when there is none."""
    if set(map(type, itertools.chain(*columns))) <= types:
        return None
    return np.fromiter((not set(map(type, row)) <= types for row in zip(*columns)),
                       bool, len(columns[0]))


def _not_real(values: Sequence) -> np.ndarray | None:
    """Mask of the bools and non-reals among `values`, or None when there is none."""
    if set(map(type, values)) <= _NUMBER:
        return None
    return np.fromiter((isinstance(x, bool) or not isinstance(x, numbers.Real) for x in values),
                       bool, len(values))


def _endpoints(us: Sequence[int], vs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Ints as intp arrays, or as object arrays when one does not fit, so
    that a huge endpoint fails the range rule instead of the conversion."""
    try:
        uv = np.fromiter(itertools.chain(us, vs), np.intp, len(us) + len(vs))
    except OverflowError:
        uv = np.array(us + vs, dtype=object)
    return uv[:len(us)], uv[len(us):]


def _float(x: float) -> float:
    try:
        return float(x)
    except OverflowError:  # an int beyond the doubles is infinite
        return math.inf if x > 0 else -math.inf


def _floats(values: Sequence[float]) -> np.ndarray:
    try:
        return np.fromiter(values, float, len(values))
    except OverflowError:
        return np.array([_float(x) for x in values])


def _repeats(u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Mask of the rows whose pair (u, v) an earlier row already has, or None
    when the pairs ascend, as in a document, and so none repeats."""
    if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return None
    order = np.lexsort((v, u))
    su, sv = u[order], v[order]
    repeat = np.zeros(u.size, bool)
    repeat[order[1:][(su[1:] == su[:-1]) & (sv[1:] == sv[:-1])]] = True
    return repeat


class _EdgeView(Mapping):
    """Read-only mapping (u, v) -> d over an instance's edge arrays, in their
    order.  Its length is the arrays' size; lookups build a dict once."""

    __slots__ = ("_u", "_v", "_d", "_dict")

    def __init__(self, u: np.ndarray, v: np.ndarray, d: np.ndarray) -> None:
        self._u, self._v, self._d, self._dict = u, v, d, None

    def __len__(self) -> int:
        return self._u.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._u.tolist(), self._v.tolist())

    def __getitem__(self, key: tuple[int, int]) -> float:
        if self._dict is None:
            self._dict = dict(zip(self, self._d.tolist()))
        return self._dict[key]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class DmdgpInstance:
    """Weighted graph with the discretization vertex order.

    `DmdgpInstance(n, edges)` takes a mapping (u, v) -> distance and swaps
    a reversed key.  The instance holds the edges once, as read-only arrays
    in the mapping's order: endpoints `u` < `v` and distances `d`.  `edges`
    becomes a read-only mapping view of them.  Structural sanity (vertex
    range, no self-loops or repeated pairs, finite positive weights) is
    enforced here; the clique/triangle/ceiling rules are data checks
    performed by `validate`.
    """

    n: int
    edges: Mapping[tuple[int, int], float]
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_vertex_count(self.n))
        keys, weights = list(self.edges), list(self.edges.values())
        us, vs = tuple(zip(*keys)) or ((), ())
        first = _FirstFailure(len(keys))
        first.test(_wrong_type(_INTEGER, us, vs),
                   lambda r: f"edge endpoints must be integers: {keys[r]}")
        u, v = _endpoints(us[:first.row], vs[:first.row])
        first.test(u == v, lambda r: f"self-loop at vertex {u[r]}")
        u, v = np.minimum(u, v), np.maximum(u, v)
        first.test(_repeats(u, v), lambda r: f"duplicate edge {{{u[r]},{v[r]}}}")
        first.test(_not_real(weights), lambda r: f"weight on edge {{{u[r]},{v[r]}}} "
                                                 f"must be a real number, got {weights[r]!r}")
        self._hold(u, v, weights, first)

    @classmethod
    def _from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray,
                     weights: Sequence[float]) -> "DmdgpInstance":
        """The instance over endpoints with u < v and no repeated pair, after
        the constructor's vertex-count, range and weight rules."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "n", _check_vertex_count(n))
        inst._hold(u, v, weights, _FirstFailure(u.size))
        return inst

    def _hold(self, u: np.ndarray, v: np.ndarray, weights: Sequence[float],
              first: _FirstFailure) -> None:
        """Take the range and weight rules after `first`'s earlier ones, raise
        the first failure, else keep the edges."""
        n = self.n
        first.test((u < 1) | (v > n), lambda r: f"edge {{{u[r]},{v[r]}}} outside vertex range 1..{n}")
        d = _floats(weights[:first.row])
        first.test(~((d > 0.0) & (d < math.inf)),
                   lambda r: f"non-{'positive' if d[r] <= 0 else 'finite'} weight "
                             f"{float(d[r])} on edge {{{u[r]},{v[r]}}}")
        if first.message:
            raise ValueError(first.message)
        for name, a in (("u", u), ("v", v), ("d", d)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "edges", _EdgeView(u, v, d))

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, weight), sorted by (u, v)."""
        o = np.lexsort((self.v, self.u))
        return list(zip(self.u[o].tolist(), self.v[o].tolist(), self.d[o].tolist()))

    @cached_property
    def clique_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only d(j, j + g) for j = 1..n - g, for g = 1, 2 and 3; NaN
        where the pair is no edge.  The clique pairs are scattered into a
        table of d(u, u + g) by gap g and u."""
        n, gap = self.n, self.v - self.u
        near = gap <= 3
        table = np.full((4, n), np.nan)
        table[gap[near], self.u[near] - 1] = self.d[near]
        table.flags.writeable = False
        return table[1, :n - 1], table[2, :n - 2], table[3, :n - 3]


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    where: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)
    #: violations found past `validate`'s limit: counted, not listed
    more: int = 0

    def __post_init__(self) -> None:
        if self.ok != (len(self.violations) + self.more == 0):
            raise ValueError("ok must be true exactly when no violation is listed or counted")


@dataclass(frozen=True)
class GroundTruth:
    """Known answer of a generated instance: sign word plus conformation."""

    bits: str
    conformation: Conformation


def clique_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs {u, v} with v - u <= 3 required by the discretization."""
    return [(u, v) for u in range(1, n) for v in range(u + 1, min(u + 4, n + 1))]


#: The six pairs of a quadruple (j..j+3) as offsets from j, in the order a
#: clique violation lists them.
_QUAD_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def validate(inst: DmdgpInstance, limit: int | None = None) -> ValidationReport:
    """Check the discretization rules; violations are data, not errors.

    Every rule is an array test.  The report lists the violations in rule
    order, at most `limit` of them, and counts the rest in `more`: only the
    listed ones are formatted.
    """
    n = inst.n
    w = inst.clique_weights
    # the quadruples j..j+3 with a pair that is no edge: NaN in the sum
    cliques = np.isnan(sum(w[b - a - 1][a:a + n - 3] for a, b in _QUAD_PAIRS)).nonzero()[0]
    # the triangles (j, j+1, j+2) that are not strict; a comparison with
    # the NaN of a missing pair is false
    a, b, c = w[0][:-1], w[0][1:], w[1]
    triangles = ((c <= np.abs(a - b)) | (c >= a + b)).nonzero()[0] + 1
    over = (inst.d > MAX_DISTANCE).nonzero()[0]
    if over.size:  # listed in (u, v) order
        over = over[np.lexsort((inst.v[over], inst.u[over]))]
    found = cliques.size + triangles.size + over.size
    limit = found if limit is None else limit

    violations: list[Violation] = []
    for j in cliques[:limit].tolist():
        quad = (j + 1, j + 2, j + 3, j + 4)
        pairs = ", ".join(f"{{{quad[a]},{quad[b]}}}" for a, b in _QUAD_PAIRS
                          if math.isnan(w[b - a - 1][j + a]))
        violations.append(
            Violation("clique", f"clique i={j + 4} incomplete: missing {pairs}", quad)
        )
    for j in triangles[:limit - len(violations)].tolist():
        i = min(j + 3, n)
        violations.append(
            Violation(
                "triangle",
                f"triangle inequality not strict at i={i}: need "
                f"|d({j},{j+1}) - d({j+1},{j+2})| < d({j},{j+2}) "
                f"< d({j},{j+1}) + d({j+1},{j+2})",
                (j, j + 1, j + 2),
            )
        )
    over = over[:limit - len(violations)]
    for u, v, d in zip(inst.u[over].tolist(), inst.v[over].tolist(), inst.d[over].tolist()):
        violations.append(
            Violation(
                "weight-ceiling",
                f"weight {d:g} on {{{u},{v}}} exceeds {MAX_DISTANCE} A",
                (u, v),
            )
        )
    return ValidationReport(ok=not found, violations=tuple(violations),
                            more=found - len(violations))


# ---------------------------------------------------------------------------
# JSON document format


def _instance_from_rows(n: int, rows: list) -> DmdgpInstance:
    """The instance of a document's edge rows [u, v, d].

    Each rule runs once over all rows.  A malformed document fails at the
    first row that breaks a row rule, taking the rules in the order below;
    only then come the constructor's own vertex-count, range and weight
    rules.
    """
    first = _FirstFailure(len(rows))
    first.test(_wrong_type(_ROW, rows), lambda r: "expected [u, v, d]")
    lengths = list(map(len, rows[:first.row]))
    first.test(None if set(lengths) <= {3} else np.array(lengths) != 3,
               lambda r: "expected [u, v, d]")
    us, vs, ds = tuple(zip(*rows[:first.row])) or ((), (), ())
    first.test(_wrong_type(_INTEGER, us, vs), lambda r: "endpoints must be integers")
    first.test(_wrong_type(_NUMBER, ds), lambda r: "weight must be a number")
    u, v = _endpoints(us[:first.row], vs[:first.row])
    first.test(u >= v, lambda r: f"self-loop at vertex {u[r]}" if u[r] == v[r]
               else "endpoints must satisfy u < v")
    first.test(_repeats(u[:first.row], v[:first.row]),
               lambda r: f"duplicate edge {{{u[r]},{v[r]}}}")
    if first.message:
        raise ParseError(f"edge {first.row + 1}: {first.message}")
    try:
        return DmdgpInstance._from_arrays(n, u, v, ds)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_document(text: str) -> tuple[DmdgpInstance, GroundTruth | None]:
    """Parse an instance document, keeping any bundled ground truth.

    Automatic cyclic collection is paused while the document is decoded and
    checked.  The decoded JSON holds one list per edge row (~11k at n = 600),
    which the collector would otherwise scan again and again while they are
    alive, yet JSON cannot hold a reference cycle: the lists are freed by
    reference counting when the decoding call returns, before collection
    resumes, if it was on.  The pause is process-wide, so other threads'
    automatic collections wait for the parse (~10 ms at n = 600).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode_document(text)
    finally:
        if enabled:
            gc.enable()


def _decode_document(text: str) -> tuple[DmdgpInstance, GroundTruth | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # int() refused a literal over the digit limit
        raise ParseError(f"integer literal over {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if "n" not in doc or "edges" not in doc:
        raise ParseError("missing required field 'n' or 'edges'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"field 'n' must be an integer, got {n!r}")
    if not isinstance(doc["edges"], list):
        raise ParseError("field 'edges' must be an array")
    inst = _instance_from_rows(n, doc["edges"])

    ground: GroundTruth | None = None
    if "ground_truth" in doc and doc["ground_truth"] is not None:
        gt = doc["ground_truth"]
        if not isinstance(gt, dict) or "bits" not in gt or "coords" not in gt:
            raise ParseError("ground_truth must contain 'bits' and 'coords'")
        bits = gt["bits"]
        coords = gt["coords"]
        if not isinstance(bits, str):
            raise ParseError("ground_truth.bits must be a string")
        try:
            check_bits(bits, n - 3)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        rule = f"ground_truth.coords must be an array of {n} [x, y, z] rows of numbers"
        if not (
            isinstance(coords, list)
            and len(coords) == n
            and set(map(type, coords)) <= _ROW
            and set(map(len, coords)) <= {3}
            and set(map(type, itertools.chain.from_iterable(coords))) <= _NUMBER
        ):
            raise ParseError(rule)
        try:
            points = np.array(coords, dtype=float)
        except OverflowError as exc:  # an int beyond the doubles
            raise ParseError(rule) from exc
        if not np.isfinite(points).all():
            raise ParseError(rule)
        ground = GroundTruth(bits, Conformation(points))
    return inst, ground


def serialize_instance(inst: DmdgpInstance, ground_truth: GroundTruth | None = None) -> str:
    """Canonical UTF-8/LF document: edges sorted by (u, v), lossless decimals
    (17 significant digits round-trip any double exactly).

    Rows are formatted one at a time from lazy `zip`s over flat lists of
    numbers, so no per-row tuple or list stays alive for the cyclic collector
    to scan."""
    lines = ["{", f'  "n": {inst.n},', '  "edges": [']
    if inst.u.size:
        o = np.lexsort((inst.v, inst.u))
        rows = zip(inst.u[o].tolist(), inst.v[o].tolist(), inst.d[o].tolist())
        lines.append(",\n".join(map("    [%d, %d, %.17g]".__mod__, rows)))
    if ground_truth is None:
        lines += ["  ]", "}"]
    else:
        xyz = iter(ground_truth.conformation.points.ravel().tolist())
        lines += ["  ],", '  "ground_truth": {', f'    "bits": "{ground_truth.bits}",',
                  '    "coords": [',
                  ",\n".join(map("      [%.17g, %.17g, %.17g]".__mod__, zip(xyz, xyz, xyz))),
                  "    ]", "  }", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generation


def _draw_internal(n: int, rng: random.Random) -> tuple[InternalCoords, str]:
    """Draw internal coordinates plus the sign word of the drawn torsions.

    Torsion draws are rejected while the branch is numerically planar
    or the implied quadruple end-to-end distance dips below the steric
    cutoff.
    """
    (b0, b1), (a0, a1) = BOND_RANGE, ANGLE_RANGE
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), draw for draw
    bonds = b0 + (b1 - b0) * _coins(rng, n - 1)
    angles = a0 + (a1 - a0) * _coins(rng, n - 2)
    # as Python floats, so no draw's arithmetic runs on numpy scalars
    bond, angle = bonds.tolist(), angles.tolist()
    cosines, bits = [], []
    for i in range(4, n + 1):
        local_bonds = (bond[i - 4], bond[i - 3], bond[i - 2])
        local_angles = (angle[i - 4], angle[i - 3])
        while True:
            omega = rng.uniform(0.0, 2.0 * math.pi)
            sw = math.sin(omega)
            if abs(sw) < MIN_TORSION_SINE:
                continue
            cw = math.cos(omega)
            if quad_end_distance(local_bonds, local_angles, cw) < MIN_PAIR_DISTANCE:
                continue
            break
        cosines.append(cw)
        bits.append("0" if sw > 0 else "1")
    return InternalCoords(bonds, angles, cosines), "".join(bits)


def random_internal_coords(n: int, seed: int) -> tuple[InternalCoords, str]:
    """The internal coordinates `generate(n, seed, ...)` builds on."""
    return _draw_internal(_check_vertex_count(n), random.Random(seed))


def _coins(rng: random.Random, m: int) -> np.ndarray:
    """The next m `rng.random()` draws bit for bit, each ((a >> 5) 2^26 + (b >> 6)) / 2^53
    of two 32-bit words; getrandbits(64 m) takes the same 2m words, first lowest."""
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4")
    return ((words[0::2] >> 5) * 2.0**26 + (words[1::2] >> 6)) / 2.0**53


def generate(n: int, seed: int, long_edge_prob: float) -> tuple[DmdgpInstance, GroundTruth]:
    """Generate a consistent instance with a known answer.

    Deterministic in (n, seed, long_edge_prob).  Clique pairs always
    carry the exact conformation distance; each pair {v_j, v_i} with
    j < i - 3 is included with probability `long_edge_prob` when its
    conformation distance lies inside the representable window.  Each such
    pair takes one coin, i = 5..n then j = 1..i-4, the order of its edges.
    """
    n = _check_vertex_count(n)
    if not 0.0 <= long_edge_prob <= 1.0:
        raise ValueError(f"long_edge_prob must be in [0, 1], got {long_edge_prob}")
    rng = random.Random(seed)
    internal, bits = _draw_internal(n, rng)
    conf = realize(internal, bits)
    u, v = np.array(clique_pairs(n), dtype=np.intp).T
    edges = [(u, v, _distances(conf.points, u - 1, v - 1))]
    # long pair k is (j, i) with firsts[i - 5] <= k < firsts[i - 4]
    firsts = np.arange(n - 3, dtype=np.intp).cumsum()
    for start in range(0, firsts[-1], _PAIR_BLOCK):
        k = np.arange(start, min(start + _PAIR_BLOCK, firsts[-1]), dtype=np.intp)
        k = k[_coins(rng, k.size) < long_edge_prob]
        r = firsts.searchsorted(k, "right")
        j, i = k - firsts[r - 1] + 1, r + 4
        d = _distances(conf.points, j - 1, i - 1)
        keep = (MIN_PAIR_DISTANCE <= d) & (d <= MAX_DISTANCE)
        edges.append((j[keep], i[keep], d[keep]))
    inst = DmdgpInstance._from_arrays(n, *map(np.concatenate, zip(*edges)))
    return inst, GroundTruth(bits, conf)


def generate_from_topology(
    edges: Iterable[tuple[int, int]], ground_bits: str, seed: int
) -> tuple[DmdgpInstance, GroundTruth]:
    """Put seeded weights on a fixed edge set, realized from `ground_bits`.

    Only the listed edges are emitted.  Draws are repeated until every
    listed long-range pair realizes inside the representable distance
    window, so the result always validates.
    """
    pairs = set()
    n = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        pairs.add((u, v))
        n = max(n, v)
    if n < 4:
        raise ValueError("topology must span at least 4 vertices")
    missing = [p for p in clique_pairs(n) if p not in pairs]
    if missing:
        raise ValueError(f"topology is missing clique pairs: {missing}")
    check_bits(ground_bits, n - 3)
    pairs = sorted(pairs)
    u, v = np.array(pairs, dtype=np.intp).T - 1

    rng = random.Random(seed)
    for _ in range(_GENERATION_ATTEMPTS):
        internal, _ = _draw_internal(n, rng)
        conf = realize(internal, ground_bits)
        d = _distances(conf.points, u, v)
        if ((MIN_PAIR_DISTANCE <= d) & (d <= MAX_DISTANCE) | (v <= u + 3)).all():
            break
    else:
        raise ValueError(
            f"could not realize the topology inside the distance window "
            f"after {_GENERATION_ATTEMPTS} draws"
        )
    return DmdgpInstance(n, dict(zip(pairs, d.tolist()))), GroundTruth(ground_bits, conf)


# ---------------------------------------------------------------------------
# Bundled 7-vertex demo topology: every consecutive-quadruple pair plus
# one pruning edge {1,6}; its symmetry set is {4, 7}.

_DEMO7_EXTRA = ((1, 6),)
DEMO7_SEED = 1
DEMO7_BITS = "0101"


def demo7_edges() -> tuple[tuple[int, int], ...]:
    return tuple(clique_pairs(7)) + _DEMO7_EXTRA


def demo7_instance() -> tuple[DmdgpInstance, GroundTruth]:
    """The bundled demo instance (deterministic)."""
    return generate_from_topology(demo7_edges(), DEMO7_BITS, DEMO7_SEED)
