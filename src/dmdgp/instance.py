"""Instance model, JSON (de)serialization, validation, and generators.

An instance is a weighted simple graph over vertices 1..n whose order
makes every consecutive quadruple a clique with strictly non-degenerate
triangles, so candidate solutions form a binary tree of torsion-sign
choices.  Generators produce instances forward from a seeded random
conformation, so the ground-truth answer is known exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .bitstrings import check_bits
from .geometry import Conformation, InternalCoords, quad_end_distance, realize

#: Distance ceiling (angstroms): the largest separation the intended
#: measurement technique resolves; also the bound the oracle
#: normalization assumes.
MAX_DISTANCE = 6.0

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


class ParseError(ValueError):
    """Raised for malformed instance documents."""


@dataclass(frozen=True)
class DmdgpInstance:
    """Weighted graph with the discretization vertex order.

    `edges` maps (u, v) with u < v to a positive distance.  Structural
    sanity (vertex range, no self-loops, positive weights) is enforced
    here; the clique/triangle/ceiling rules are data checks performed
    by `validate`.
    """

    n: int
    edges: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 4:
            raise ValueError(f"vertex count must be an integer >= 4, got {self.n}")
        clean: dict[tuple[int, int], float] = {}
        for key, w in dict(self.edges).items():
            u, v = key
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge endpoints must be integers: {key}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge {{{u},{v}}} outside vertex range 1..{self.n}")
            if (u, v) in clean:
                raise ValueError(f"duplicate edge {{{u},{v}}}")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"non-positive weight {w} on edge {{{u},{v}}}")
            clean[(u, v)] = w
        object.__setattr__(self, "edges", MappingProxyType(clean))

    def weight(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return self.edges[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, weight), sorted by (u, v)."""
        return [(u, v, d) for (u, v), d in sorted(self.edges.items())]


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    where: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.ok != (len(self.violations) == 0):
            raise ValueError("ok must be true exactly when violations is empty")


@dataclass(frozen=True)
class GroundTruth:
    """Known answer of a generated instance: sign word plus conformation."""

    bits: str
    conformation: Conformation


def clique_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs {u, v} with v - u <= 3 required by the discretization."""
    return [(u, v) for u in range(1, n) for v in range(u + 1, min(u + 4, n + 1))]


def validate(inst: DmdgpInstance) -> ValidationReport:
    """Check the discretization rules; violations are data, not errors."""
    violations: list[Violation] = []
    for i in range(4, inst.n + 1):
        quad = (i - 3, i - 2, i - 1, i)
        missing = [
            (u, v)
            for idx, u in enumerate(quad)
            for v in quad[idx + 1:]
            if not inst.has_edge(u, v)
        ]
        if missing:
            pairs = ", ".join(f"{{{u},{v}}}" for u, v in missing)
            violations.append(
                Violation("clique", f"clique i={i} incomplete: missing {pairs}", quad)
            )
    for j in range(1, inst.n - 1):
        triple = (j, j + 1, j + 2)
        if all(inst.has_edge(u, v) for u in triple for v in triple if u < v):
            a = inst.weight(j, j + 1)
            b = inst.weight(j + 1, j + 2)
            c = inst.weight(j, j + 2)
            if not abs(a - b) < c < a + b:
                i = min(j + 3, inst.n)
                violations.append(
                    Violation(
                        "triangle",
                        f"triangle inequality not strict at i={i}: need "
                        f"|d({j},{j+1}) - d({j+1},{j+2})| < d({j},{j+2}) "
                        f"< d({j},{j+1}) + d({j+1},{j+2})",
                        triple,
                    )
                )
    for (u, v), d in sorted(inst.edges.items()):
        if d > MAX_DISTANCE:
            violations.append(
                Violation(
                    "weight-ceiling",
                    f"weight {d:g} on {{{u},{v}}} exceeds {MAX_DISTANCE} A",
                    (u, v),
                )
            )
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# JSON document format


def parse_document(text: str) -> tuple[DmdgpInstance, GroundTruth | None]:
    """Parse an instance document, keeping any bundled ground truth."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if "n" not in doc or "edges" not in doc:
        raise ParseError("missing required field 'n' or 'edges'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"field 'n' must be an integer, got {n!r}")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError("field 'edges' must be an array")
    edges: dict[tuple[int, int], float] = {}
    for row, item in enumerate(raw_edges, start=1):
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"edge {row}: expected [u, v, d]")
        u, v, d = item
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise ParseError(f"edge {row}: endpoints must be integers")
        if not isinstance(d, (int, float)) or isinstance(d, bool):
            raise ParseError(f"edge {row}: weight must be a number")
        if u == v:
            raise ParseError(f"edge {row}: self-loop at vertex {u}")
        if u > v:
            raise ParseError(f"edge {row}: endpoints must satisfy u < v")
        if (u, v) in edges:
            raise ParseError(f"edge {row}: duplicate edge {{{u},{v}}}")
        edges[(u, v)] = float(d)
    try:
        inst = DmdgpInstance(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

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
        if (
            not isinstance(coords, list)
            or len(coords) != n
            or any(not (isinstance(p, list) and len(p) == 3) for p in coords)
        ):
            raise ParseError(f"ground_truth.coords must be an array of {n} [x, y, z] rows")
        ground = GroundTruth(bits, Conformation(np.array(coords, dtype=float)))
    return inst, ground


def parse_instance(text: str) -> DmdgpInstance:
    """Parse an instance document, discarding any ground truth."""
    inst, _ = parse_document(text)
    return inst


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double exactly.
    return format(float(x), ".17g")


def serialize_instance(inst: DmdgpInstance, ground_truth: GroundTruth | None = None) -> str:
    """Canonical UTF-8/LF document: edges sorted by (u, v), lossless decimals."""
    lines = ["{", f'  "n": {inst.n},', '  "edges": [']
    rows = inst.edge_list()
    for idx, (u, v, d) in enumerate(rows):
        comma = "," if idx < len(rows) - 1 else ""
        lines.append(f"    [{u}, {v}, {_fmt(d)}]{comma}")
    if ground_truth is None:
        lines.append("  ]")
    else:
        lines.append("  ],")
        lines.append('  "ground_truth": {')
        lines.append(f'    "bits": "{ground_truth.bits}",')
        lines.append('    "coords": [')
        pts = ground_truth.conformation.points
        for i, p in enumerate(pts):
            comma = "," if i < len(pts) - 1 else ""
            lines.append(f"      [{_fmt(p[0])}, {_fmt(p[1])}, {_fmt(p[2])}]{comma}")
        lines.append("    ]")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generation


def _draw_internal(n: int, rng: random.Random) -> tuple[InternalCoords, str]:
    """Draw internal coordinates plus the sign word of the drawn torsions.

    Torsion draws are rejected while the branch is numerically planar
    or the implied quadruple end-to-end distance dips below the steric
    cutoff.
    """
    bonds = np.array([rng.uniform(*BOND_RANGE) for _ in range(n - 1)])
    angles = np.array([rng.uniform(*ANGLE_RANGE) for _ in range(n - 2)])
    cosines = np.empty(n - 3)
    bits = []
    for i in range(4, n + 1):
        local_bonds = (bonds[i - 4], bonds[i - 3], bonds[i - 2])
        local_angles = (angles[i - 4], angles[i - 3])
        while True:
            omega = rng.uniform(0.0, 2.0 * math.pi)
            if abs(math.sin(omega)) < MIN_TORSION_SINE:
                continue
            cw = math.cos(omega)
            if quad_end_distance(local_bonds, local_angles, cw) < MIN_PAIR_DISTANCE:
                continue
            break
        cosines[i - 4] = cw
        bits.append("0" if math.sin(omega) > 0 else "1")
    return InternalCoords(bonds, angles, cosines), "".join(bits)


def random_internal_coords(n: int, seed: int) -> tuple[InternalCoords, str]:
    """The internal coordinates `generate(n, seed, ...)` builds on."""
    if n < 4:
        raise ValueError(f"vertex count must be >= 4, got {n}")
    return _draw_internal(n, random.Random(seed))


def generate(n: int, seed: int, long_edge_prob: float) -> tuple[DmdgpInstance, GroundTruth]:
    """Generate a consistent instance with a known answer.

    Deterministic in (n, seed, long_edge_prob).  Clique pairs always
    carry the exact conformation distance; each pair {v_j, v_i} with
    j < i - 3 is included with probability `long_edge_prob` when its
    conformation distance lies inside the representable window.
    """
    if n < 4:
        raise ValueError(f"vertex count must be >= 4, got {n}")
    if not 0.0 <= long_edge_prob <= 1.0:
        raise ValueError(f"long_edge_prob must be in [0, 1], got {long_edge_prob}")
    rng = random.Random(seed)
    internal, bits = _draw_internal(n, rng)
    conf = realize(internal, bits)
    edges: dict[tuple[int, int], float] = {}
    for u, v in clique_pairs(n):
        edges[(u, v)] = conf.distance(u, v)
    for i in range(5, n + 1):
        # distances from vertex i to 1..i-4: sqrt(x . x) per difference row
        # through matmul is bit for bit `Conformation.distance`'s norm, which
        # einsum and norm(axis=...) are not
        diff = conf.points[:i - 4] - conf.points[i - 1]
        row = np.sqrt(np.matmul(diff[:, None], diff[:, :, None]).ravel())
        for j, d in enumerate(row.tolist(), start=1):
            coin = rng.random()
            if MIN_PAIR_DISTANCE <= d <= MAX_DISTANCE and coin < long_edge_prob:
                edges[(j, i)] = d
    return DmdgpInstance(n, edges), GroundTruth(bits, conf)


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
    long_pairs = [(u, v) for (u, v) in sorted(pairs) if v > u + 3]

    rng = random.Random(seed)
    for _ in range(_GENERATION_ATTEMPTS):
        internal, _ = _draw_internal(n, rng)
        conf = realize(internal, ground_bits)
        if all(
            MIN_PAIR_DISTANCE <= conf.distance(u, v) <= MAX_DISTANCE
            for u, v in long_pairs
        ):
            break
    else:
        raise ValueError(
            f"could not realize the topology inside the distance window "
            f"after {_GENERATION_ATTEMPTS} draws"
        )
    weights = {(u, v): conf.distance(u, v) for u, v in sorted(pairs)}
    return DmdgpInstance(n, weights), GroundTruth(ground_bits, conf)


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
