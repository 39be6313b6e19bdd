"""In-memory spans around the calls an op makes into the dmdgp modules.

A traced op runs with each public function listed in `TARGETS` replaced,
on the module object its caller looks it up on, by a wrapper that
records a span.  The CLI itself is not copied: `cli.main` makes exactly
the calls it makes untraced, so the time inside it is attributed
without a replica of its control flow that could drift from the real
one.  Names that `cli` imports directly (`parse_document`, `validate`,
the renderers) are replaced on `cli` itself.

Each span records its op id, its own id, its parent's id, a name, start
and end in nanoseconds, and counts of work done.  A layer's self time is
its spans' time minus the time their child spans cover; the op's root
span minus its children is the time no named span explains.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from dmdgp import bp, cli, geometry, grover, metrics, oracle

ROOT = "op"


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# (module, attribute, span name or a function of (args, kwargs) giving it,
#  a function of (args, kwargs, result) giving the work counts, or None)
TARGETS: tuple[tuple[Any, str, Any, Callable | None], ...] = (
    (cli, "parse_document", "instance.parse",
     lambda a, k, r: {"doc_bytes": len(_arg(a, k, 0, "text").encode())}),
    (cli, "validate", "instance.validate", None),
    (geometry, "extract_internal", "geometry.extract_internal", None),
    (bp, "symmetry_set", "bp.symmetry_set", None),
    (bp, "branch_and_prune", lambda a, k: "bp.solve_" + _arg(a, k, 3, "mode", "all"),
     lambda a, k, r: {"leaves": len(r)}),
    (bp, "expand_symmetry", "bp.expand_symmetry", None),
    (oracle, "marked_set", "oracle.marked_set",
     lambda a, k, r: {"candidates": 1 << (_arg(a, k, 0, "inst").n - 3), "marked": len(r)}),
    (grover, "grover_distribution", "grover.distribution",
     lambda a, k, r: {"amplitude_updates": _arg(a, k, 0, "N") * _arg(a, k, 2, "iters")}),
    (grover, "mix_uniform", "grover.mix", None),
    (grover, "sample", "grover.sample", None),
    (metrics, "compare", "metrics.compare", None),
    (cli, "render_run_report", "cli.render", None),
    (cli, "histogram_text", "cli.render", None),
)


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Tracer:
    """Collects the spans of traced ops, one op at a time on one thread."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def _open(self, op: int, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(op, len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, name, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = self._open(self._stack[-1].op, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def run(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Call `fn` as op `op_id` with every target wrapped; restore them after."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        for (mod, attr, name, counter), (_, _, original) in zip(TARGETS, saved):
            setattr(mod, attr, self._wrap(original, name, counter))
        root = self._open(op_id, ROOT)
        try:
            return fn()
        finally:
            self._close(root)
            for mod, attr, original in saved:
                setattr(mod, attr, original)


@dataclass
class OpProfile:
    """One traced op: its duration, self time per span name, and the counts
    of its spans summed under "<span name>.<count name>"."""

    op_ns: int = 0
    #: factor to nominal machine speed, applied to every time reported
    scale: float = 1.0
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def profiles(spans: list[Span]) -> dict[int, OpProfile]:
    """Fold spans into one `OpProfile` per op id."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    out: dict[int, OpProfile] = defaultdict(OpProfile)
    for s in spans:
        prof = out[s.op]
        prof.self_ns[s.name] += s.end_ns - s.start_ns - child_ns[s.id]
        if s.parent is None:
            prof.op_ns = s.end_ns - s.start_ns
        for key, value in s.counts.items():
            prof.counts[f"{s.name}.{key}"] += value
    return dict(out)


def layer_metrics(profs: list[OpProfile], plain_p50: float, traced_p50: float) -> dict:
    """Per-layer metrics over the traced ops: medians per op, rates over all."""
    def per_op(fn):
        return statistics.median(fn(p) for p in profs) if profs else 0.0

    def ms(name):
        return per_op(lambda p: p.self_ns.get(name, 0) * p.scale / 1e6), "ms"

    def count(key):
        return per_op(lambda p: p.counts.get(key, 0)), "count"

    def rate(key, name):
        busy = sum(p.self_ns.get(name, 0) * p.scale for p in profs) / 1e9
        return (sum(p.counts.get(key, 0) for p in profs) / busy if busy else 0.0), "1/s"

    def ratio(p):
        n = p.counts.get("oracle.marked_set.candidates", 0)
        return p.counts.get("oracle.marked_set.marked", 0) / n if n else 0.0

    return {
        "oracle.marked_set_ms": ms("oracle.marked_set"),
        "oracle.candidates": count("oracle.marked_set.candidates"),
        "oracle.candidates_per_s": rate("oracle.marked_set.candidates", "oracle.marked_set"),
        "oracle.marked_ratio": (per_op(ratio), "ratio"),
        "grover.distribution_ms": ms("grover.distribution"),
        "grover.amplitude_updates": count("grover.distribution.amplitude_updates"),
        "grover.updates_per_s": rate("grover.distribution.amplitude_updates", "grover.distribution"),
        "grover.mix_ms": ms("grover.mix"),
        "grover.sample_ms": ms("grover.sample"),
        "metrics.compare_ms": ms("metrics.compare"),
        "bp.solve_all_ms": ms("bp.solve_all"),
        "bp.leaves": count("bp.solve_all.leaves"),
        "bp.leaves_per_s": rate("bp.solve_all.leaves", "bp.solve_all"),
        "bp.symmetry_set_ms": ms("bp.symmetry_set"),
        "bp.solve_first_ms": ms("bp.solve_first"),
        "bp.expand_symmetry_ms": ms("bp.expand_symmetry"),
        "instance.parse_ms": ms("instance.parse"),
        "instance.validate_ms": ms("instance.validate"),
        "instance.doc_kb": (per_op(lambda p: p.counts.get("instance.parse.doc_bytes", 0) / 1024), "KiB"),
        "geometry.extract_internal_ms": ms("geometry.extract_internal"),
        "cli.render_ms": ms("cli.render"),
        "cli.unattributed_ms": ms(ROOT),
        "trace.overhead_pct": (100.0 * (traced_p50 / plain_p50 - 1.0) if plain_p50 else 0.0, "%"),
    }


def layer_share(profs: list[OpProfile]) -> dict[str, float]:
    """Each span name's share of all traced op time, largest first."""
    total = sum(p.op_ns for p in profs)
    names: Counter[str] = Counter()
    for p in profs:
        names.update(p.self_ns)
    return {name: ns / total for name, ns in names.most_common()} if total else {}
