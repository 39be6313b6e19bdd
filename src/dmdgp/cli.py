"""Command-line front end.

Subcommands:
    gen          write a generated instance (with ground truth) to JSON
    solve        run branch-and-prune on an instance file
    grover       plan and simulate the search, sample shots, report metrics
    metrics      compare two distribution CSV files
    oracle-scan  tabulate penalty, normalized value, and oracle bit per candidate

Exit codes: 0 success, 1 no solution, 2 I/O error (also a closed stdout, caught
by console_main), 64 usage error (also gen over MAX_VERTICES, grover's
--seed below 0, --shots from 2^63 or --iters over GROVER_MAX_ITERS, a metrics
--marked set that is empty, outside 0..N-1 or every outcome, in the library's
words, oracle-scan --delta so small that delta / p1 underflows to 0), 65 data
format error (also text not UTF-8, nested too deeply or with an integer over
Python's digit limit, a weight beyond the doubles) or an instance outside
supported limits (oracle-scan's search space over the scan cap, grover's over
GROVER_MAX_OUTCOMES, solve --mode all predicting over SOLVE_MAX_ROWS solutions,
every candidate marked, distances no chain realizes).  The solve limit reads
the predicted count 2^|S|, so a non-generic instance, one with more than 2^|S|
solutions, is not caught before the walk.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import bp, geometry, grover, metrics, oracle
from .bitstrings import _bit_digits, bitstrings, decimal_text, int_to_bits
from .instance import (
    DmdgpInstance,
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

#: A document that fails validation prints its first violations only: an
#: empty edge list over n vertices breaks n - 3 cliques.
VIOLATIONS_SHOWN = 10

#: `grover` holds several N-length arrays and prints two N-row tables, so it
#: stops at 2^22 outcomes (n <= 25).
GROVER_MAX_OUTCOMES = 1 << 22

#: `solve --mode all` keeps an index and a penalty per solution and writes
#: its table in blocks, so it stops at a predicted 2^22 solutions, as `grover`
#: stops at 2^22 outcomes: at that limit (clique-only n = 25) a fresh process
#: whose stdout goes to /dev/null peaks at 150 MB RSS, ~38 B per solution.
SOLVE_MAX_ROWS = 1 << 22

#: `grover_distribution` loops once per iteration, 0.19-0.30 us each on a
#: 2-core VM (Python 3.11): 2^22 iterations took 0.79-1.25 s.
GROVER_MAX_ITERS = 1 << 22


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the usage code, in one line.

    argparse reports a missing argument before an unknown option, so an
    option-like string that begins no option of the parser is named first.
    A negative number is a value, as argparse takes it."""

    def parse_known_args(self, args=None, namespace=None):
        self._given = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        if message.startswith("the following arguments are required"):
            unknown = [arg for arg in self._given if arg.startswith("-")
                       and not self._negative_number_matcher.match(arg)
                       and not any(option.startswith(arg.partition("=")[0])
                                   for option in self._option_string_actions)]
            if unknown:
                message = f"unrecognized arguments: {' '.join(unknown)}"
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# File plumbing


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}") from exc


def _write_text(path: str, chunks: Iterable[str]) -> None:
    try:
        with Path(path).open("w", encoding="utf-8") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _load_instance(path: str) -> tuple[DmdgpInstance, geometry.InternalCoords]:
    """Parse and validate an instance file and extract its internal coordinates."""
    text = _read_text(path)
    try:
        inst, _ = parse_document(text)
        report = validate(inst, limit=VIOLATIONS_SHOWN)
        if not report.ok:
            lines = [f"  {v.rule}: {v.message}" for v in report.violations]
            if report.more:
                lines.append(f"  ... and {report.more} more")
            raise CliError(EXIT_DATA, f"{path}: instance fails validation:\n" + "\n".join(lines))
        return inst, geometry.extract_internal(inst)
    except (ParseError, geometry.InconsistentDistances) as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}") from exc


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
    if width is None:
        raise ParseError("no outcome rows")
    size = 1 << width
    if len(seen) < size:
        # the keys are distinct indices below size, so the count finds a gap
        # and the search for the first three stops within len(seen) + 3 steps
        first = itertools.islice((k for k in range(size) if k not in seen), 3)
        raise ParseError(f"missing {decimal_text(size - len(seen))} of {decimal_text(size)} "
                         "outcomes, first "
                         + ", ".join(int_to_bits(k, width) for k in first))
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


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array, ascending by bit pattern, and,
    per entry, its index among them (sorted keys and their inverse), from one
    sort and a binary search.  Entries are told apart by bit pattern, not by
    ==, so two entries share an index only when they print alike (-0.0 and
    0.0 do not)."""
    bits = values.view(f"u{values.itemsize}")
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)  # where each run of one pattern starts
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    del ordered, first  # freed before the inverse is made: at N = 2^22, ~27 MB off grover's peak
    return keys.view(values.dtype), np.searchsorted(keys, bits)


#: Every N-row output is made, written and dropped this many rows at a time.
_BLOCK_ROWS = 1 << 16


def _blocks(size: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of `_BLOCK_ROWS` rows of 0..size - 1, in order."""
    return ((start, min(start + _BLOCK_ROWS, size)) for start in range(0, size, _BLOCK_ROWS))


def _rows(width: int, *columns: tuple[Sequence[str], np.ndarray]) -> None:
    """Write to stdout one row per outcome k of the columns: `  {bits of k}`,
    then texts[inverse[k]] of each (texts, inverse) column, then a newline.
    Each block of rows is one (K, W) byte table, each column's part taken by
    the block's inverse from a NUL-padded byte row per text; one mask drops
    the NULs and one decode makes the block's text, so no text is made per
    row and only a block's table is ever held."""
    tables = []
    for texts, inverse in columns:
        longest = max(map(len, texts), default=0)
        padded = "".join(t.ljust(longest, "\0") for t in texts).encode("ascii")
        tables.append((np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), longest), inverse))
    size = len(columns[0][1])
    table = np.full((min(size, _BLOCK_ROWS), 2 + width + sum(t.shape[1] for t, _ in tables) + 1),
                    ord(" "), dtype=np.uint8)
    table[:, -1] = ord("\n")
    for start, stop in _blocks(size):
        rows = table[:stop - start]
        _bit_digits(np.arange(start, stop), width, rows[:, 2:2 + width])
        at = 2 + width
        for texts, inverse in tables:
            rows[:, at:at + texts.shape[1]] = texts.take(inverse[start:stop], axis=0)
            at += texts.shape[1]
        flat = rows.ravel()
        sys.stdout.write(str(flat[flat != 0], "ascii"))


#: The digits of 0..9999, four ASCII bytes each, zero-padded: every
#: combination of four digits, in order.
_DIGITS = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", dtype=np.uint8)] * 4,
                               indexing="ij"), axis=-1).reshape(-1, 4)
#: "d.ddd", the `.3e` mantissa of each 4-digit integer 1000..9999.
_MANTISSAS = np.insert(_DIGITS, 1, ord("."), axis=1)
#: Rows for the exponents e = -400..399: "e+XX", "e-XXX" and so on, the
#: NUL after the sign standing for a hundreds digit that is not printed,
#: and the scale 10^(3 - e) that makes a value's mantissa four digits.
_EXPONENT_ROWS = np.arange(-400, 400)
_EXPONENTS = np.frombuffer("".join(
    "e" + "+-"[e < 0] + f"{abs(e):02d}".rjust(3, "\0") + "\0"
    for e in _EXPONENT_ROWS.tolist()).encode("ascii"), dtype=np.uint8).reshape(-1, 6)
with np.errstate(over="ignore"):
    _SCALES = 10.0 ** (3 - _EXPONENT_ROWS)
#: A scaled mantissa this close to a rounding tie is left to `format`.
_TIE = 1e-6
#: 10^p for p = 18 down to 1, then 0: the smallest index that prints a
#: digit at 10^p.  An int64 index has at most 19 digits.
_LEAD = np.append(10 ** np.arange(18, 0, -1), 0)


def _sci3(values: np.ndarray, out: np.ndarray) -> None:
    """Write format(x, ".3e") of each value into a row of `out` (K, 11):
    ASCII bytes, then NUL padding.

    A value x with e = floor(log10 x) is scaled to s = x * 10^(3 - e) and
    printed as the mantissa m = rint(s) and the exponent e, each looked up
    in a table.  s errs by ~1e-12, so `format` itself prints a value whose
    s lies within 1e-6 of a rounding tie (1.0625: s = 1062.5; 999.5 and
    9999.5 border the next exponent) or whose m is not four digits: s
    rounding up to 10000 (9.9996e-28), log10 rounding down just above a
    power of ten, and zero, a subnormal or a value below ~1e-305 (the scale
    overflows), a negative, an inf or a NaN.  log10 rounding up just below
    a power of ten leaves s within ~1e-9 under 1000, printed as 1.000 either
    way.  So every byte is the one Python prints."""
    x = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        # a value with no finite log10 takes a clipped row and fails `exact`
        e_row = np.floor(np.log10(x)).astype(np.intp) - _EXPONENT_ROWS[0]
        s = x * _SCALES.take(e_row, mode="clip")
        m = np.rint(s)
        exact = (m >= 1000) & (m <= 9999) & (np.abs(s - m) < 0.5 - _TIE)
        m_row = m.astype(np.intp)
    out[:, :5] = _MANTISSAS.take(m_row, axis=0, mode="clip")
    out[:, 5:] = _EXPONENTS.take(e_row, axis=0, mode="clip")
    if np.count_nonzero(exact) < x.size:
        rows = np.flatnonzero(~exact)
        text = "".join(format(v, ".3e").ljust(11, "\0") for v in x[rows].tolist())
        out[rows] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 11)


def solution_table(width: int, index: np.ndarray | Sequence[int], penalties: np.ndarray) -> str:
    """`  bits={}  index={}  penalty={:.3e}` for each row, bits `width`
    wide, each line ending in a newline; `index` is ascending and not empty,
    such as a block of `SolutionSet.index`, whose int64 array is used as it is.

    The table is one (K, W) byte array: K copies of the fixed text, the
    bit and index digits written from the indices as int64 (as Python
    strings past 63 bits), and `_sci3`'s penalty fields.  A row with a
    shorter index or penalty than the widest leaves NUL bytes in their
    columns, and one `bytes.replace` drops them."""
    rows, digits = len(index), len(decimal_text(index[-1]))
    tail = f"  penalty={'0' * 11}\n"
    wide = width > 63
    if wide:
        text = "".join(f"  bits={j:0{width}b}  index={decimal_text(j).rjust(digits, chr(0))}{tail}"
                       for j in index)
    else:
        text = f"  bits={'0' * width}  index={'0' * digits}{tail}" * rows
    table = np.frombuffer(bytearray(text, "ascii"), dtype=np.uint8).reshape(rows, -1)
    if not wide:
        k = np.asarray(index, dtype=np.int64)
        bits_at = len("  bits=")
        _bit_digits(k, width, table[:, bits_at:bits_at + width])
        number = table[:, bits_at + width + len("  index="):-len(tail)]
        # four digits at a time, the lowest first; the highest group is 1..4
        top = (digits - 1) % 4 + 1
        rest = k
        for end in range(digits, top, -4):
            rest, low = np.divmod(rest, 10_000)
            number[:, end - 4:end] = _DIGITS.take(low, axis=0)
        number[:, :top] = _DIGITS.take(rest, axis=0)[:, 4 - top:]
        if index[0] < 10 ** (digits - 1):
            # a digit at 10^p, p > 0, is dropped from an index below 10^p
            number *= k[:, None] >= _LEAD[-digits:]
    _sci3(penalties, table[:, -12:-1])
    return table.tobytes().replace(b"\0", b"").decode("ascii")


def histogram_text(width: int, ranked: tuple[np.ndarray, np.ndarray]) -> None:
    """Write one `  bits  value  bars` row per outcome of a column that
    `_distinct` ranked, 40 bars at the peak; the text after the label
    depends only on the value and is built once per distinct value."""
    distinct, inverse = ranked
    peak = float(distinct.max()) if len(distinct) else 1.0
    scale = 40 / peak if peak > 0 else 0.0
    # 40 / peak overflows for a peak below ~40 / DBL_MAX, where a nonnegative
    # value's share of the peak stays finite
    lengths = distinct * scale if scale < math.inf else np.maximum(distinct, 0) / peak * 40
    # np.rint rounds half to even, as Python's round does
    bars = np.maximum(np.rint(lengths), 0).astype(int).tolist()
    tails = list(map("  {:9.6f}  {}".format, distinct.tolist(), map("#".__mul__, bars)))
    _rows(width, (tails, inverse))


def histogram_svg(n_bits: int, sampled: np.ndarray, ideal: np.ndarray,
                  title: str) -> Iterator[str]:
    """Standalone grouped-bar SVG of the sampled and ideal distributions over
    the 2^n_bits outcomes, no plotting dependency, as text blocks: the header,
    the bar pair and bits label of each block of outcomes, then the legend."""
    width, height = 640, 360
    margin_l, margin_r, margin_t, margin_b = 50, 20, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n = 1 << n_bits
    peak = max(float(sampled.max()), float(ideal.max()))
    peak = peak if peak > 0 else 1.0
    colors = {"sampled": "#4878a8", "ideal": "#d08830"}
    group_w = plot_w / n
    bar_w = group_w * 0.8 / 2

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
    yield "\n".join(parts) + "\n"

    row = "".join(
        f'<rect x="%.1f" y="%.1f" width="{bar_w:.1f}" height="%.1f" fill="{color}"/>\n'
        for color in colors.values()
    ) + (f'<text x="%.1f" y="{height - margin_b + 16}" text-anchor="middle" '
         f'font-family="sans-serif" font-size="11">%s</text>\n')
    for start, stop in _blocks(n):
        # Python's operations in Python's order: the digits of a float per outcome
        k = np.arange(start, stop)
        x = margin_l + k * group_w + group_w * 0.1
        h_sampled = plot_h * sampled[start:stop] / peak
        h_ideal = plot_h * ideal[start:stop] / peak
        yield "".join(map(row.__mod__, zip(
            x, margin_t + plot_h - h_sampled, h_sampled,
            x + bar_w, margin_t + plot_h - h_ideal, h_ideal,
            margin_l + (k + 0.5) * group_w, bitstrings(n_bits, k))))
    parts = []
    for si, (name, color) in enumerate(colors.items()):
        x, y = margin_l + 10 + si * 140, height - 14
        parts.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 18}" y="{y}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    yield "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst, ground = generate(args.n, args.seed, args.long_edge_prob)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    _write_text(args.out, [serialize_instance(inst, ground)])
    print(f"wrote {args.out}: n={inst.n}, edges={len(inst.edges)}, "
          f"ground bits={ground.bits}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst, internal = _load_instance(args.instance)
    sym = bp.symmetry_set(inst)
    predicted = f"predicted solutions 2^|S| = {decimal_text(sym.expansion_size)}"
    if args.mode == "all" and sym.expansion_size > SOLVE_MAX_ROWS:
        raise CliError(EXIT_DATA, f"{predicted} exceed solve's limit of {SOLVE_MAX_ROWS} "
                                  "rows in mode 'all'")
    print(f"instance: n={inst.n}, edges={len(inst.edges)}")
    print(f"symmetry set S = {{{', '.join(str(v) for v in sym.vertices)}}}, {predicted}")
    try:
        solutions = bp.branch_and_prune(inst, internal, mode=args.mode)
    except bp.NoSolutionError:
        print("no solution")
        return EXIT_NO_SOLUTION
    print(f"solutions found: {len(solutions)}")
    for start, stop in _blocks(len(solutions)):
        sys.stdout.write(solution_table(inst.n - 3, solutions.index[start:stop],
                                        solutions.penalties[start:stop]))
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
    if value > GROVER_MAX_ITERS:
        raise CliError(EXIT_USAGE, f"--iters must be at most {GROVER_MAX_ITERS}")
    return value


@dataclass(frozen=True)
class RunReport:
    """Everything one simulated search run produced."""

    n: int
    n_edges: int
    N: int
    symmetry_vertices: tuple[int, ...]
    marked: np.ndarray  # the walk's read-only int64 index, ascending
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


def run_search(inst: DmdgpInstance, internal: geometry.InternalCoords, iters: int | None,
               iter_mode: str, shots: int, seed: int, noise: float) -> RunReport:
    """Branch-and-prune for the marked set, iteration planning, evolution,
    sampling, scoring.

    `GROVER_MAX_OUTCOMES` bounds the N-length arrays and the N-row report,
    so it is checked before the search runs.
    """
    N = 1 << (inst.n - 3)
    if N > GROVER_MAX_OUTCOMES:
        raise CliError(EXIT_DATA, f"search space {decimal_text(N)} exceeds grover's limit of "
                                  f"{GROVER_MAX_OUTCOMES} outcomes")
    index = bp.branch_and_prune(inst, internal).index
    if index.size == N:
        raise CliError(EXIT_DATA, f"oracle marks all {N} candidates: nothing to amplify")
    plan = grover.iteration_count(N, index.size, mode=iter_mode)
    k = plan.k if iters is None else iters
    ideal = grover.grover_distribution(N, index, k)
    counts = grover.sample(grover.mix_uniform(ideal, noise), shots, seed)
    quality = metrics.compare(counts.frequencies(), ideal, index)
    return RunReport(
        n=inst.n,
        n_edges=len(inst.edges),
        N=N,
        symmetry_vertices=bp.symmetry_set(inst).vertices,
        marked=index,
        plan=plan,
        iters=k,
        ideal=ideal,
        closed_form=grover.success_probability(N, index.size, k),
        noise=noise,
        counts=counts,
        seed=seed,
        quality=quality,
    )


def render_run_report(report: RunReport, sampled: tuple[np.ndarray, np.ndarray]) -> None:
    """Write the report to stdout up to the histogram: the run, its marked set
    a block at a time, the outcome table of the sampled frequencies (ranked
    by `_distinct` as `sampled`) against the ideal distribution, the metrics."""
    n_bits = report.n - 3
    print(f"instance: n={report.n}, edges={report.n_edges}, N=2^{n_bits}={report.N}")
    print(f"symmetry set S = {{{', '.join(str(v) for v in report.symmetry_vertices)}}}; "
          f"2^|S| = {1 << len(report.symmetry_vertices)}, marked M = {len(report.marked)}")
    for start, stop in _blocks(len(report.marked)):
        block = report.marked[start:stop]
        labels = map("{}({})".format, bitstrings(n_bits, block), block.tolist())
        sys.stdout.write((", " if start else "marked candidates: ") + ", ".join(labels))
    print()
    print(f"plan: mode={report.plan.mode}, theta={report.plan.theta:.6f}, "
          f"k_raw={report.plan.k_raw:.4f}, k={report.iters}"
          + ("" if report.iters == report.plan.k else " (explicit)"))
    print(f"ideal marked probability: statevector={report.ideal.mass(report.marked):.9f}, "
          f"closed form={report.closed_form:.9f}")
    if report.noise > 0:
        print(f"uniform noise mix: lambda={report.noise}")
    q = report.quality
    print(f"shots: {report.counts.shots} (seed {report.seed}), empirical marked "
          f"frequency={q.success_probability:.6f}")
    print("outcome     sampled      ideal")
    # the sampled and ideal columns hold few distinct values, each formatted
    # once; the ideal column carries the ` *` marker, so an outcome's index
    # among its texts is twice its value's, plus one where it is marked
    values, ranks = _distinct(report.ideal.probabilities)
    ranks *= 2
    ranks[report.marked] += 1
    _rows(n_bits, (list(map("  {:9.6f}".format, sampled[0].tolist())), sampled[1]),
          ([f"  {p:9.6f}{star}" for p in values.tolist() for star in ("", " *")], ranks))
    print(f"sampled vs ideal: tv={q.tv_distance:.6f} fidelity_tv={q.fidelity_tv:.6f} "
          f"hellinger={q.hellinger:.6f} fidelity_h={q.fidelity_h:.6f}")
    sel_text = "inf" if q.selectivity == math.inf else f"{q.selectivity:.4f}"
    print(f"sampled selectivity={sel_text}, success probability={q.success_probability:.6f}")


def cmd_grover(args: argparse.Namespace) -> int:
    iters_arg = _parse_iters(args.iters)
    if not 0.0 <= args.noise <= 1.0:
        raise CliError(EXIT_USAGE, "--noise must lie in [0, 1]")
    if args.shots <= 0:
        raise CliError(EXIT_USAGE, "--shots must be positive")
    if args.shots >= 1 << 63:
        raise CliError(EXIT_USAGE, "--shots must be below 2^63")
    if args.seed < 0:
        raise CliError(EXIT_USAGE, "--seed must be nonnegative")
    inst, internal = _load_instance(args.instance)
    try:
        report = run_search(inst, internal, iters_arg, args.iter_mode, args.shots,
                            args.seed, args.noise)
    except bp.NoSolutionError:
        print("oracle marks no candidate (inconsistent instance)")
        return EXIT_NO_SOLUTION
    freqs = report.counts.frequencies()
    if args.svg:  # first, so a path it cannot write prints no report
        _write_text(args.svg, histogram_svg(
            report.n - 3, freqs, report.ideal.probabilities,
            f"search outcomes, N={report.N}, k={report.iters}",
        ))
    sampled = _distinct(freqs)  # ranked once, for the table and the histogram
    render_run_report(report, sampled)
    if args.svg:
        print(f"wrote histogram to {args.svg}")
    else:
        histogram_text(report.n - 3, sampled)
    return EXIT_OK


def _parse_marked(text: str, width: int) -> list[int]:
    """`--marked`'s outcomes, `width`-digit bit strings or decimals; `compare` checks the set."""
    out = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(int(token, 2) if len(token) == width and set(token) <= set("01")
                       else int(token))
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad marked outcome {token!r}")
    return out


def cmd_metrics(args: argparse.Namespace) -> int:
    dist_a = _load_distribution(args.dist_a)
    dist_b = _load_distribution(args.dist_b)
    if dist_a.size != dist_b.size:
        raise CliError(
            EXIT_DATA,
            f"distribution sizes differ: {dist_a.size} vs {dist_b.size}",
        )
    width = (dist_a.size - 1).bit_length()
    marked = None if args.marked is None else _parse_marked(args.marked, width)
    try:
        report = metrics.compare(dist_a, dist_b, marked)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
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
    inst, internal = _load_instance(args.instance)
    try:
        params = oracle.oracle_params(inst.n, args.delta, args.epsilon)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    try:
        rows = oracle.scan(inst, internal)
    except oracle.ScanCapExceeded as exc:
        raise CliError(EXIT_DATA, str(exc)) from exc
    n_bits = inst.n - 3
    print(f"n={inst.n}, delta={params.delta:g}, epsilon={params.epsilon:g}, "
          f"p1={params.p1:.0f}, p2={params.p2:.4f}")
    print("k     bits      g(h(k))        g/p1           (g/p1)^(1/p2)  f")
    row = "{:<5d} {:8s}  {:<13.6e}  {:<13.6e}  {:<13.6e}  {}\n".format
    n_marked = 0
    for first, g in rows:  # one write per walk block
        f = oracle.oracle_bit(params, g)
        n_marked += int(f.sum())
        k = np.arange(first, first + g.size)
        sys.stdout.write("".join(map(row, k.tolist(), bitstrings(n_bits, k),
                                     g.tolist(), (g / params.p1).tolist(),
                                     oracle.oracle_value(params, g).tolist(), f.tolist())))
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
    except CliError as exc:
        print(f"dmdgp: error: {exc}", file=sys.stderr)
        return exc.code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader is gone: fd 1 goes to /dev/null, so the flush at
        # exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"dmdgp: error: cannot write stdout: {exc}", file=sys.stderr)
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    console_main()
