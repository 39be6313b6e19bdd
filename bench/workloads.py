"""The four closed-loop workloads: instance pools, the op, output checks.

Every pool member comes from `dmdgp.generate` with generator parameters
fixed per workload and a generator seed derived from the benchmark
seed; no member is filtered by how it behaves.  A pool is visited in
order, round after round, so each member gets the same share of ops.

Members of a pool are grouped by cost, and the group sizes are chosen so
that the median op and the 11th-slowest op (the tail) each fall inside
one group rather than on the boundary between two: otherwise the metric
would jump between groups with the number of ops a run happens to finish.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import calibration
from dmdgp import bp, cli, geometry, grover, metrics
from dmdgp.bitstrings import bits_to_int
from dmdgp.instance import DmdgpInstance, GroundTruth, generate, serialize_instance

SHOTS = 8196
NOISE = 0.3
MARKED_MASS_ATOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def symmetry_size(inst: DmdgpInstance) -> int:
    """|S| from its definition: v in 4..n with no edge {u, w}, u + 3 < v <= w.

    Computed here by marking the vertex range each edge spans, so the
    solution count an op is checked against does not come from the code
    under test.
    """
    starts = [0] * (inst.n + 2)
    for u, w in inst.edges:
        if w >= u + 4:
            starts[u + 4] += 1
            starts[w + 1] -= 1
    covering, size = 0, 0
    for v in range(1, inst.n + 1):
        covering += starts[v]
        size += v >= 4 and covering == 0
    return size


@dataclass
class Case:
    """One pool member: a generated instance, its file, what a correct op reports."""

    path: Path
    inst: DmdgpInstance
    ground: GroundTruth
    gen_seed: int
    long_edge_prob: float
    sym_size: int
    doc_bytes: int
    expected_marked: frozenset[int] | None = None

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def N(self) -> int:
        return 1 << (self.inst.n - 3)

    @property
    def M(self) -> int:
        return 1 << self.sym_size

    def traffic(self) -> dict[str, Any]:
        k = grover.iteration_count(self.N, self.M).k if self.M < self.N else None
        return {"n": self.n, "edges": len(self.inst.edges), "S": self.sym_size,
                "N": self.N, "M": self.M, "k": k, "long_edge_prob": self.long_edge_prob,
                "gen_seed": self.gen_seed, "doc_kb": round(self.doc_bytes / 1024, 1)}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_exit_ok(result: tuple[int, str, str]) -> str:
    code, text, err = result
    expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
    return text


# -- grover-scan: `dmdgp grover`, dominated by the exhaustive oracle scan


def scan_op(case: Case, seed: int):
    return run_cli(["grover", str(case.path), "--seed", str(seed)])


def scan_check(case: Case, result) -> None:
    text = expect_exit_ok(result)
    line = next((ln for ln in text.splitlines() if ln.startswith("marked candidates: ")), None)
    expect(line is not None, "no 'marked candidates' line")
    marked = {int(m) for m in re.findall(r"\((\d+)\)", line)}
    expect(marked == case.expected_marked,
           f"marked set {sorted(marked)} != BP expansion {sorted(case.expected_marked)}")
    expect(len(marked) == case.M, f"{len(marked)} marked, expected 2^|S| = {case.M}")
    expect(bits_to_int(case.ground.bits) in marked, "ground truth not marked")


# -- grover-wide: the library pipeline at N = 2^16..2^18, oracle bypassed


def wide_op(case: Case, seed: int):
    inst = case.inst
    internal = geometry.extract_internal(inst)
    sym = bp.symmetry_set(inst)
    first = bp.branch_and_prune(inst, internal, mode="first")
    marked = sorted(bits_to_int(b) for b in bp.expand_symmetry(first.entries[0].bits, sym))
    plan = grover.iteration_count(case.N, len(marked))
    ideal = grover.grover_distribution(case.N, marked, plan.k)
    counts = grover.sample(grover.mix_uniform(ideal, NOISE), SHOTS, seed)
    quality = metrics.compare(counts.frequencies(), ideal.probabilities, marked)
    return marked, plan, ideal, counts, quality


def wide_check(case: Case, result) -> None:
    marked, plan, ideal, counts, _ = result
    expect(len(marked) == case.M, f"{len(marked)} marked, expected 2^|S| = {case.M}")
    expect(bits_to_int(case.ground.bits) in marked, "ground truth not marked")
    theta = math.asin(math.sqrt(len(marked) / case.N))
    closed = math.sin((2 * plan.k + 1) * theta) ** 2
    mass = ideal.mass(marked)
    expect(abs(mass - closed) <= MARKED_MASS_ATOL,
           f"statevector marked mass {mass!r} != closed form {closed!r}")
    total = int(counts.counts.sum())
    expect(total == SHOTS, f"counts sum to {total}, not {SHOTS}")


# -- solve-wide / solve-deep: `dmdgp solve --mode all`


def solve_op(case: Case, seed: int):
    return run_cli(["solve", str(case.path), "--mode", "all"])


def solve_check(case: Case, result) -> None:
    text = expect_exit_ok(result)
    found = re.search(r"^solutions found: (\d+)$", text, re.M)
    expect(found is not None, "no 'solutions found' line")
    expect(int(found.group(1)) == case.M,
           f"{found.group(1)} solutions reported, expected 2^|S| = {case.M}")
    printed = set(re.findall(r"bits=([01]+)", text))
    expect(len(printed) == case.M, f"{len(printed)} distinct solutions printed")
    expect(case.ground.bits in printed, "ground truth not among the solutions")


@dataclass(frozen=True)
class Workload:
    """A workload's pool, op and check; BENCHMARK.json says why each exists."""

    name: str
    #: (n, long_edge_prob) of each pool member, in visiting order.
    members: tuple[tuple[int, float], ...]
    op: Callable[[Case, int], Any]
    check: Callable[[Case, Any], None]
    #: grover-scan checks the printed marked set against BP + expansion.
    needs_marked: bool = False
    #: The reference pass whose speed the op's time follows (calibration.py).
    calibrator: Callable[[], calibration.Calibrator] = calibration.Calibrator
    #: Candidate sign vectors one op enumerates: all N = 2^(n-3) for the
    #: Grover ops (oracle scan, statevector), the 2^|S| feasible leaves BP
    #: reaches for the solve ops.
    candidates: Callable[[Case], int] = lambda case: case.N


def _pool(*groups: tuple[tuple[int, float], int]) -> tuple[tuple[int, float], ...]:
    """Interleave groups of (member, count), spreading each group over the round."""
    out, rounds = [], max(count for _, count in groups)
    for r in range(rounds):
        out.extend(member for member, count in groups if r < count)
    return tuple(out)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "grover-scan",
        # op cost grows with n and varies a few percent with |E|; five
        # members at n=13 between three at n=12 and three at n=14 put the
        # median in the middle of the n=13 group.
        _pool(((13, 0.5), 5), ((12, 0.5), 3), ((14, 0.5), 3)),
        scan_op, scan_check, needs_marked=True),
    Workload(
        "grover-wide",
        _pool(((19, 1.0), 1), ((20, 1.0), 1), ((21, 1.0), 1)),
        wide_op, wide_check,
        # numpy streaming over 1-4 MiB arrays does not follow interpreter
        # speed: over ten seeds latency_p50_ms spread 0.07 raw, 0.19 scaled
        # by the interpreter reference and 0.03 by the streaming one.
        calibrator=calibration.StreamingCalibrator),
    Workload(
        "solve-wide",
        # clique-only members cost a fixed amount per n; a long_edge_prob
        # 0.05 member costs anything from ~0 to a clique's cost (|S| = 1..12).
        # The median is the 10th of 19 ops a round; 5 to 7 ops fall below
        # the six n=14 clique-only members wherever the three land, so it
        # stays inside that group.  Six n=15 members give ~24 ops a run
        # there, so the tail (the 11th-largest op) sits mid-group.
        _pool(((13, 0.0), 4), ((14, 0.0), 6), ((15, 0.0), 6),
              ((13, 0.05), 1), ((14, 0.05), 1), ((15, 0.05), 1)),
        solve_op, solve_check, candidates=lambda case: case.M),
    Workload(
        "solve-deep",
        # op cost varies ~25% between instances of one n, so each metric
        # must rest on many instances.  Nine members at n=450 make the
        # median a median of nine; eight at n=600 give the ~25 slowest ops
        # a run needs for the tail (the 11th-largest op) to fall inside the
        # n=600 group, spread over eight instances (four left its spread
        # over seeds at 0.16); six at n=300 centre the median.
        _pool(((450, 0.5), 9), ((600, 0.5), 8), ((300, 0.5), 6)),
        solve_op, solve_check, candidates=lambda case: case.M),
)}


def build_case(workload: Workload, seed: int, index: int, workdir: Path) -> Case:
    """Generate, write and annotate member `index` of the workload's pool."""
    n, lep = workload.members[index]
    gen_seed = seed * 1000 + index
    inst, ground = generate(n, gen_seed, lep)
    text = serialize_instance(inst, ground)
    path = workdir / f"{index:02d}-n{n}.json"
    path.write_text(text, encoding="utf-8")
    case = Case(path, inst, ground, gen_seed, lep, symmetry_size(inst), len(text.encode()))
    if workload.needs_marked:
        first = bp.branch_and_prune(inst, geometry.extract_internal(inst), mode="first")
        case.expected_marked = frozenset(
            bits_to_int(b) for b in bp.expand_symmetry(first.entries[0].bits,
                                                       bp.symmetry_set(inst)))
    return case
