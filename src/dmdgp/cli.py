"""Command-line front end.

Subcommands:
    gen          write a generated instance (with ground truth) to JSON
    solve        run branch-and-prune on an instance file
    grover       plan and simulate the search, sample shots, report metrics
    metrics      compare two distribution CSV files
    oracle-scan  tabulate penalty, normalized value, and oracle bit per candidate

Exit codes: 0 success, 1 no solution, 2 I/O error, 64 usage error,
65 data format error or an instance outside supported limits (search
space over the scan cap, every candidate marked, distances no chain
realizes).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bp, geometry, grover, metrics, oracle
from .bitstrings import all_bits, int_to_bits
from .instance import (
    DmdgpInstance,
    GroundTruth,
    ParseError,
    generate,
    parse_document,
    serialize_instance,
    validate,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_SHOTS = 8196


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the usage code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# File plumbing


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _load_instance(path: str) -> tuple[DmdgpInstance, GroundTruth | None]:
    text = _read_text(path)
    try:
        inst, ground = parse_document(text)
    except ParseError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}") from exc
    report = validate(inst)
    if not report.ok:
        lines = "\n".join(f"  {v.rule}: {v.message}" for v in report.violations)
        raise CliError(EXIT_DATA, f"{path}: instance fails validation:\n{lines}")
    return inst, ground


def load_distribution_csv(text: str) -> np.ndarray:
    """Parse `outcome,probability` rows into a dense probability vector.

    Outcomes must be fixed-width bit strings covering every index
    exactly once.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty distribution file")
    header = [f.strip() for f in lines[0].split(",")]
    if header != ["outcome", "probability"]:
        raise ParseError("row 1: header must be 'outcome,probability'")
    width = None
    seen: dict[int, float] = {}
    for row, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ParseError(f"row {row}: expected 2 fields, got {len(fields)}")
        outcome, prob_text = fields
        if not outcome or any(c not in "01" for c in outcome):
            raise ParseError(f"row {row}: outcome {outcome!r} is not a bit string")
        if width is None:
            width = len(outcome)
        elif len(outcome) != width:
            raise ParseError(f"row {row}: outcome width {len(outcome)} != {width}")
        try:
            p = float(prob_text)
        except ValueError as exc:
            raise ParseError(f"row {row}: bad probability {prob_text!r}") from exc
        if not math.isfinite(p) or p < 0:
            raise ParseError(f"row {row}: probability must be finite and >= 0")
        k = int(outcome, 2)
        if k in seen:
            raise ParseError(f"row {row}: duplicate outcome {outcome}")
        seen[k] = p
    assert width is not None
    size = 1 << width
    missing = [k for k in range(size) if k not in seen]
    if missing:
        raise ParseError(f"missing outcomes: {[int_to_bits(k, width) for k in missing]}")
    return np.array([seen[k] for k in range(size)])


def save_distribution_csv(probs: np.ndarray) -> str:
    width = (len(probs) - 1).bit_length()
    lines = ["outcome,probability"]
    for k, p in enumerate(probs):
        lines.append(f"{int_to_bits(k, width)},{format(float(p), '.17g')}")
    return "\n".join(lines) + "\n"


def _load_distribution(path: str) -> np.ndarray:
    text = _read_text(path)
    try:
        return load_distribution_csv(text)
    except ParseError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rendering


def histogram_text(labels: Sequence[str], values: np.ndarray, width: int = 40) -> str:
    peak = float(values.max()) if len(values) else 1.0
    scale = width / peak if peak > 0 else 0.0
    # np.rint rounds half to even, as Python's round does
    bars = np.maximum(np.rint(values * scale), 0).astype(int).tolist()
    return "\n".join(map("  {}  {:9.6f}  {}".format, labels, values.tolist(),
                         map("#".__mul__, bars)))


def histogram_svg(labels: Sequence[str], series: Sequence[tuple[str, np.ndarray]],
                  title: str) -> str:
    """Standalone grouped-bar SVG; no plotting dependency."""
    width, height = 640, 360
    margin_l, margin_r, margin_t, margin_b = 50, 20, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n = len(labels)
    peak = max(float(vals.max()) for _, vals in series)
    peak = peak if peak > 0 else 1.0
    colors = ["#4878a8", "#d08830", "#609060", "#a05858"]
    group_w = plot_w / n
    bar_w = group_w * 0.8 / len(series)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = margin_t + plot_h * (1 - frac)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{frac * peak:.3f}</text>'
        )
    for gi, label in enumerate(labels):
        x0 = margin_l + gi * group_w + group_w * 0.1
        for si, (_, vals) in enumerate(series):
            h = plot_h * float(vals[gi]) / peak
            x = x0 + si * bar_w
            y = margin_t + plot_h - h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                f'fill="{colors[si % len(colors)]}"/>'
            )
        parts.append(
            f'<text x="{margin_l + (gi + 0.5) * group_w:.1f}" y="{height - margin_b + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{label}</text>'
        )
    for si, (name, _) in enumerate(series):
        x = margin_l + 10 + si * 140
        y = height - 14
        parts.append(
            f'<rect x="{x}" y="{y - 10}" width="12" height="12" '
            f'fill="{colors[si % len(colors)]}"/>'
        )
        parts.append(
            f'<text x="{x + 18}" y="{y}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst, ground = generate(args.n, args.seed, args.long_edge_prob)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    _write_text(args.out, serialize_instance(inst, ground))
    print(f"wrote {args.out}: n={inst.n}, edges={len(inst.edges)}, "
          f"ground bits={ground.bits}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst, _ = _load_instance(args.instance)
    internal = geometry.extract_internal(inst)
    sym = bp.symmetry_set(inst)
    print(f"instance: n={inst.n}, edges={len(inst.edges)}")
    print(f"symmetry set S = {{{', '.join(str(v) for v in sym.vertices)}}}, "
          f"predicted solutions 2^|S| = {sym.expansion_size}")
    try:
        solutions = bp.branch_and_prune(inst, internal, mode=args.mode)
    except bp.NoSolutionError:
        print("no solution")
        return EXIT_NO_SOLUTION
    print(f"solutions found: {len(solutions)}")
    for k, g in zip(solutions.index, solutions.penalties.tolist()):
        print(f"  bits={int_to_bits(k, inst.n - 3)}  index={k}  penalty={g:.3e}")
    return EXIT_OK


def _parse_iters(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise CliError(EXIT_USAGE, f"--iters must be 'auto' or an integer, got {text!r}")
    if value < 0:
        raise CliError(EXIT_USAGE, "--iters must be nonnegative")
    return value


@dataclass(frozen=True)
class RunReport:
    """Everything one simulated search run produced."""

    n: int
    n_edges: int
    N: int
    symmetry_vertices: tuple[int, ...]
    marked: tuple[int, ...]
    plan: grover.GroverPlan
    iters: int
    ideal: grover.Distribution
    closed_form: float
    noise: float
    counts: grover.ShotCounts
    seed: int
    quality: metrics.MetricsReport

    def __post_init__(self) -> None:
        if self.N != 1 << (self.n - 3):
            raise ValueError("search space size inconsistent with vertex count")
        if self.plan.M != len(self.marked):
            raise ValueError("plan marked count inconsistent with marked set")


def run_search(inst: DmdgpInstance, iters: int | None, iter_mode: str,
               shots: int, seed: int, noise: float) -> RunReport:
    """Branch-and-prune for the marked set, iteration planning, evolution,
    sampling, scoring.

    The scan cap bounds the N-length arrays and the N-row report, so it is
    checked before the search runs.
    """
    internal = geometry.extract_internal(inst)
    N = oracle.check_scan_cap(inst.n)
    marked = bp.branch_and_prune(inst, internal).index
    if len(marked) == N:
        raise CliError(EXIT_DATA, f"oracle marks all {N} candidates: nothing to amplify")
    plan = grover.iteration_count(N, len(marked), mode=iter_mode)
    k = plan.k if iters is None else iters
    ideal = grover.grover_distribution(N, marked, k)
    counts = grover.sample(grover.mix_uniform(ideal, noise), shots, seed)
    quality = metrics.compare(counts.frequencies(), ideal.probabilities, marked)
    return RunReport(
        n=inst.n,
        n_edges=len(inst.edges),
        N=N,
        symmetry_vertices=bp.symmetry_set(inst).vertices,
        marked=marked,
        plan=plan,
        iters=k,
        ideal=ideal,
        closed_form=grover.success_probability(N, len(marked), k),
        noise=noise,
        counts=counts,
        seed=seed,
        quality=quality,
    )


def render_run_report(report: RunReport, labels: Sequence[str], freqs: np.ndarray) -> str:
    n_bits = report.n - 3
    marked = set(report.marked)
    stars = [""] * report.N
    for m in report.marked:
        stars[m] = " *"
    lines = [
        f"instance: n={report.n}, edges={report.n_edges}, N=2^{n_bits}={report.N}",
        f"symmetry set S = {{{', '.join(str(v) for v in report.symmetry_vertices)}}}; "
        f"2^|S| = {1 << len(report.symmetry_vertices)}, marked M = {len(report.marked)}",
        "marked candidates: " + ", ".join(f"{labels[m]}({m})" for m in report.marked),
        f"plan: mode={report.plan.mode}, theta={report.plan.theta:.6f}, "
        f"k_raw={report.plan.k_raw:.4f}, k={report.iters}"
        + ("" if report.iters == report.plan.k else " (explicit)"),
        f"ideal marked probability: statevector={report.ideal.mass(marked):.9f}, "
        f"closed form={report.closed_form:.9f}",
    ]
    if report.noise > 0:
        lines.append(f"uniform noise mix: lambda={report.noise}")
    lines.append(
        f"shots: {report.counts.shots} (seed {report.seed}), empirical marked "
        f"frequency={float(sum(freqs[m] for m in report.marked)):.6f}"
    )
    lines.append("outcome     sampled      ideal")
    lines += map("  {}  {:9.6f}  {:9.6f}{}".format, labels, freqs.tolist(),
                 report.ideal.probabilities.tolist(), stars)
    q = report.quality
    lines.append(
        f"sampled vs ideal: tv={q.tv_distance:.6f} fidelity_tv={q.fidelity_tv:.6f} "
        f"hellinger={q.hellinger:.6f} fidelity_h={q.fidelity_h:.6f}"
    )
    sel_text = "inf" if q.selectivity == math.inf else f"{q.selectivity:.4f}"
    lines.append(
        f"sampled selectivity={sel_text}, success probability={q.success_probability:.6f}"
    )
    return "\n".join(lines)


def cmd_grover(args: argparse.Namespace) -> int:
    iters_arg = _parse_iters(args.iters)
    if not 0.0 <= args.noise <= 1.0:
        raise CliError(EXIT_USAGE, "--noise must lie in [0, 1]")
    if args.shots <= 0:
        raise CliError(EXIT_USAGE, "--shots must be positive")
    inst, _ = _load_instance(args.instance)
    try:
        report = run_search(inst, iters_arg, args.iter_mode, args.shots,
                            args.seed, args.noise)
    except bp.NoSolutionError:
        print("oracle marks no candidate (inconsistent instance)")
        return EXIT_NO_SOLUTION
    labels = all_bits(report.n - 3)
    freqs = report.counts.frequencies()
    print(render_run_report(report, labels, freqs))
    if args.svg:
        svg = histogram_svg(
            labels,
            [("sampled", freqs), ("ideal", report.ideal.probabilities)],
            f"search outcomes, N={report.N}, k={report.iters}",
        )
        _write_text(args.svg, svg)
        print(f"wrote histogram to {args.svg}")
    else:
        print(histogram_text(labels, freqs))
    return EXIT_OK


def _parse_marked(text: str, width: int) -> list[int]:
    out = []
    size = 1 << width
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if len(token) == width and all(c in "01" for c in token):
            out.append(int(token, 2))
            continue
        try:
            value = int(token)
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad marked outcome {token!r}")
        if not 0 <= value < size:
            raise CliError(EXIT_USAGE, f"marked outcome {value} out of range 0..{size - 1}")
        out.append(value)
    if not out:
        raise CliError(EXIT_USAGE, "--marked lists no outcomes")
    return sorted(set(out))


def cmd_metrics(args: argparse.Namespace) -> int:
    dist_a = _load_distribution(args.dist_a)
    dist_b = _load_distribution(args.dist_b)
    if dist_a.size != dist_b.size:
        raise CliError(
            EXIT_DATA,
            f"distribution sizes differ: {dist_a.size} vs {dist_b.size}",
        )
    width = (dist_a.size - 1).bit_length()
    marked = _parse_marked(args.marked, width) if args.marked else None
    report = metrics.compare(dist_a, dist_b, marked)
    rows = [
        ("tv_distance", report.tv_distance),
        ("fidelity_tv", report.fidelity_tv),
        ("hellinger", report.hellinger),
        ("fidelity_h", report.fidelity_h),
    ]
    if marked is not None:
        rows.append(("selectivity", report.selectivity))
        rows.append(("success_probability", report.success_probability))
    if args.csv:
        print("metric,value")
        for name, value in rows:
            print(f"{name},{format(float(value), '.17g')}")
    else:
        for name, value in rows:
            print(f"{name:20s} {float(value):.6f}")
    return EXIT_OK


def cmd_oracle_scan(args: argparse.Namespace) -> int:
    inst, _ = _load_instance(args.instance)
    try:
        params = oracle.oracle_params(inst.n, args.delta, args.epsilon)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    rows = oracle.scan(inst, geometry.extract_internal(inst))
    n_bits = inst.n - 3
    print(f"n={inst.n}, delta={params.delta:g}, epsilon={params.epsilon:g}, "
          f"p1={params.p1:.0f}, p2={params.p2:.4f}")
    print("k     bits      g(h(k))        g/p1           (g/p1)^(1/p2)  f")
    n_marked = 0
    for first, g in rows:
        values, f = oracle.oracle_value(params, g).tolist(), oracle.oracle_bit(params, g).tolist()
        for k, gk, value, fk in zip(range(first, first + g.size), g.tolist(), values, f):
            n_marked += fk
            print(f"{k:<5d} {int_to_bits(k, n_bits):8s}  {gk:<13.6e}  {gk / params.p1:<13.6e}  "
                  f"{value:<13.6e}  {fk}")
    print(f"marked: {n_marked} of {1 << n_bits}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; each `parse_args` call
    still returns a fresh namespace."""
    parser = _Parser(prog="dmdgp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate an instance file")
    p.add_argument("--n", type=int, required=True, help="vertex count (>= 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--long-edge-prob", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run branch-and-prune")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--mode", choices=("all", "first"), default="all")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grover", help="simulate the search on an instance")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--iters", default="auto", help="'auto' or an iteration count")
    p.add_argument("--iter-mode", choices=grover.ITERATION_MODES, default="nearest")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="uniform-mix weight in [0, 1]")
    p.add_argument("--svg", default=None, help="write an SVG histogram here")
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("metrics", help="compare two distribution CSVs")
    p.add_argument("dist_a", help="first distribution CSV")
    p.add_argument("dist_b", help="second distribution CSV")
    p.add_argument("--marked", default=None,
                   help="comma-separated searched outcomes (bit strings or indices)")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("oracle-scan", help="tabulate the oracle over all candidates")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--delta", type=float, default=oracle.DEFAULT_DELTA)
    p.add_argument("--epsilon", type=float, default=oracle.DEFAULT_EPSILON)
    p.set_defaults(func=cmd_oracle_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, oracle.ScanCapExceeded) as exc:
        print(f"dmdgp: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_DATA
    except geometry.InconsistentDistances as exc:
        # raised by extract_internal, which only solve, grover and oracle-scan call
        print(f"dmdgp: error: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
