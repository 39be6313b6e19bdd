"""Per-edge reference for the instance layer: the loops that the array code
in `dmdgp.instance`, `dmdgp.geometry` and `dmdgp.bp` replaced, kept for the
tests to compare against.  An instance here is a vertex count and a dict
(u, v) -> d in the order the edges were given.
"""

import json
import math

import numpy as np

from dmdgp.geometry import COS_TOLERANCE, InconsistentDistances, InternalCoords, quad_end_distance
from dmdgp.instance import (
    ANGLE_RANGE,
    BOND_RANGE,
    MAX_DISTANCE,
    MAX_VERTICES,
    MIN_PAIR_DISTANCE,
    MIN_TORSION_SINE,
    ParseError,
    ValidationReport,
    Violation,
)


def construct(n, edges):
    """`DmdgpInstance(n, edges)`: the checked dict, reversed keys swapped."""
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"vertex count must be an integer >= 4, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    clean = {}
    for key, w in dict(edges).items():
        u, v = key
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge endpoints must be integers: {key}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if not (1 <= u < v <= n):
            raise ValueError(f"edge {{{u},{v}}} outside vertex range 1..{n}")
        if (u, v) in clean:
            raise ValueError(f"duplicate edge {{{u},{v}}}")
        w = float(w)
        if w <= 0.0:
            raise ValueError(f"non-positive weight {w} on edge {{{u},{v}}}")
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w} on edge {{{u},{v}}}")
        clean[(u, v)] = w
    return clean


def draw_internal(n, rng):
    """`instance._draw_internal`: one `rng.uniform` call per bond, angle and
    torsion draw, in that order."""
    bonds = np.array([rng.uniform(*BOND_RANGE) for _ in range(n - 1)])
    angles = np.array([rng.uniform(*ANGLE_RANGE) for _ in range(n - 2)])
    cosines, bits = [], []
    for i in range(4, n + 1):
        local_bonds = (bonds[i - 4], bonds[i - 3], bonds[i - 2])
        local_angles = (angles[i - 4], angles[i - 3])
        while True:
            omega = rng.uniform(0.0, 2.0 * math.pi)
            if abs(math.sin(omega)) < MIN_TORSION_SINE:
                continue
            cw = math.cos(omega)
            if quad_end_distance(local_bonds, local_angles, cw) >= MIN_PAIR_DISTANCE:
                break
        cosines.append(cw)
        bits.append("0" if math.sin(omega) > 0 else "1")
    return InternalCoords(bonds, angles, np.array(cosines)), "".join(bits)


def parse_edges(text):
    """`parse_document` up to the instance: (n, checked edge dict)."""
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
    edges = {}
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
        return n, construct(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def validate(n, edges):
    def has_edge(u, v):
        return (min(u, v), max(u, v)) in edges

    def weight(u, v):
        return edges[(min(u, v), max(u, v))]

    violations = []
    for i in range(4, n + 1):
        quad = (i - 3, i - 2, i - 1, i)
        missing = [
            (u, v)
            for idx, u in enumerate(quad)
            for v in quad[idx + 1:]
            if not has_edge(u, v)
        ]
        if missing:
            pairs = ", ".join(f"{{{u},{v}}}" for u, v in missing)
            violations.append(
                Violation("clique", f"clique i={i} incomplete: missing {pairs}", quad)
            )
    for j in range(1, n - 1):
        triple = (j, j + 1, j + 2)
        if all(has_edge(u, v) for u in triple for v in triple if u < v):
            a = weight(j, j + 1)
            b = weight(j + 1, j + 2)
            c = weight(j, j + 2)
            if not abs(a - b) < c < a + b:
                i = min(j + 3, n)
                violations.append(
                    Violation(
                        "triangle",
                        f"triangle inequality not strict at i={i}: need "
                        f"|d({j},{j+1}) - d({j+1},{j+2})| < d({j},{j+2}) "
                        f"< d({j},{j+1}) + d({j+1},{j+2})",
                        triple,
                    )
                )
    for (u, v), d in sorted(edges.items()):
        if d > MAX_DISTANCE:
            violations.append(
                Violation(
                    "weight-ceiling",
                    f"weight {d:g} on {{{u},{v}}} exceeds {MAX_DISTANCE} A",
                    (u, v),
                )
            )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def torsion_cosine(d12, d13, d14, d23, d24, d34):
    a1 = d12 * d12 + d23 * d23 - d13 * d13
    a2 = d23 * d23 + d24 * d24 - d34 * d34
    s1 = 4.0 * d12 * d12 * d23 * d23 - a1 * a1
    s2 = 4.0 * d23 * d23 * d24 * d24 - a2 * a2
    if s1 <= 0.0 or s2 <= 0.0:
        raise InconsistentDistances("collinear triple: torsion angle undefined")
    num = 2.0 * d23 * d23 * (d12 * d12 + d24 * d24 - d14 * d14) - a1 * a2
    cos_w = num / (math.sqrt(s1) * math.sqrt(s2))
    if abs(cos_w) > 1.0 + COS_TOLERANCE:
        raise InconsistentDistances("torsion cosine outside [-1, 1]: inconsistent distances")
    return min(1.0, max(-1.0, cos_w))


def extract_internal(n, edges):
    def d(u, v):
        return edges[(min(u, v), max(u, v))]

    bonds = np.array([d(i - 1, i) for i in range(2, n + 1)])
    angles = np.empty(n - 2)
    for i in range(3, n + 1):
        a, b, c = d(i - 2, i - 1), d(i - 1, i), d(i - 2, i)
        cos_t = (a * a + b * b - c * c) / (2.0 * a * b)
        if abs(cos_t) > 1.0 + COS_TOLERANCE:
            raise InconsistentDistances(f"degenerate triple at vertex {i}: |cos theta| > 1")
        angles[i - 3] = math.acos(min(1.0, max(-1.0, cos_t)))
    cosines = np.empty(n - 3)
    for i in range(4, n + 1):
        cosines[i - 4] = torsion_cosine(
            d(i - 3, i - 2), d(i - 3, i - 1), d(i - 3, i),
            d(i - 2, i - 1), d(i - 2, i), d(i - 1, i),
        )
    return InternalCoords(bonds, angles, cosines)


def symmetry_set(n, edges):
    starts = [0] * (n + 2)
    for u, w in edges:
        if w > u + 3:
            starts[u + 4] += 1
            starts[w + 1] -= 1
    members, covering = [], 0
    for v in range(4, n + 1):
        covering += starts[v]
        if covering == 0:
            members.append(v)
    return tuple(members)


def edge_arrays(edges):
    ends = np.array(list(edges), dtype=np.intp).reshape(-1, 2) - 1
    d = np.fromiter(edges.values(), dtype=float, count=len(edges))
    return ends[:, 0], ends[:, 1], d * d
