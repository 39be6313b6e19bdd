"""Distribution-quality measures: total variation, Hellinger, selectivity.

All comparison functions accept either a `Distribution` or any raw
nonnegative vector, so tabulated device data (rounded to a few decimals
and not exactly normalized) flows through unmodified.

Each measure has one kernel, which works in a caller's N-length scratch
array; `compare` hands one scratch array to all three in turn.  Every
sum is one `.sum()` over a full-length array, so its pairwise order,
and every digit of the result, is that of the plain numpy expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .grover import Distribution, _marked_array

ProbVector = Union[Distribution, Sequence[float], np.ndarray]


def _as_probs(p: ProbVector) -> np.ndarray:
    if isinstance(p, Distribution):
        return p.probabilities
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D probability vector")
    if not arr.min() >= 0:  # NaN fails too
        raise ValueError("probabilities must be nonnegative")
    if arr.max() == math.inf:
        raise ValueError("probabilities must be finite")
    return arr


def _as_pair(p: ProbVector, q: ProbVector) -> tuple[np.ndarray, np.ndarray]:
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.size != qa.size:
        raise ValueError(f"length mismatch: {pa.size} vs {qa.size}")
    return pa, qa


#: Entries per slice of sqrt(q) in `_hellinger`: 64 KiB of float64, below
#: malloc's mmap threshold, so each slice reuses heap pages.
_HELLINGER_SLICE = 8192


def _total_variation(pa: np.ndarray, qa: np.ndarray, out: np.ndarray) -> float:
    """1/2 sum |p - q|, with |p - q| built in `out`."""
    np.subtract(pa, qa, out=out)
    np.abs(out, out=out)
    return 0.5 * float(out.sum())


def _hellinger(pa: np.ndarray, qa: np.ndarray, out: np.ndarray) -> float:
    """sqrt(1/2 sum (sqrt(p) - sqrt(q))^2), with the squares built in `out`."""
    np.sqrt(pa, out=out)
    for start in range(0, out.size, _HELLINGER_SLICE):
        part = slice(start, start + _HELLINGER_SLICE)
        out[part] -= np.sqrt(qa[part])
    np.square(out, out=out)
    return math.sqrt(0.5 * float(out.sum()))


def _selectivity(probs: np.ndarray, idx: np.ndarray, p_s: float, out: np.ndarray) -> float:
    """p_s, the mass of the marked entries `idx`, over the largest unmarked
    entry, found in a copy of `probs` in `out` whose marked entries are -inf."""
    if idx.size == probs.size:
        raise ValueError("marked set must be a proper subset of the outcomes")
    np.copyto(out, probs)
    out[idx] = -math.inf
    p_ns = float(out.max())
    if p_ns == 0.0:
        return math.inf
    return p_s / p_ns


def total_variation(p: ProbVector, q: ProbVector) -> float:
    """d = 1/2 sum |p_x - q_x|."""
    pa, qa = _as_pair(p, q)
    return _total_variation(pa, qa, np.empty(pa.size))


def hellinger(p: ProbVector, q: ProbVector) -> float:
    """h with h^2 = 1/2 sum (sqrt(p_x) - sqrt(q_x))^2."""
    pa, qa = _as_pair(p, q)
    return _hellinger(pa, qa, np.empty(pa.size))


def selectivity(dist: ProbVector, marked: Iterable[int]) -> float:
    """Searched-outcome probability over the largest unsearched one.

    Returns inf when no unsearched outcome carries any probability.
    """
    probs = _as_probs(dist)
    idx = _marked_array(probs.size, marked)
    return _selectivity(probs, idx, float(probs[idx].sum()), np.empty(probs.size))


@dataclass(frozen=True)
class MetricsReport:
    """Distances and fidelities of p against q, plus per-marked figures of p."""

    tv_distance: float
    hellinger: float
    fidelity_tv: float
    fidelity_h: float
    selectivity: float | None = None
    success_probability: float | None = None


def compare(p: ProbVector, q: ProbVector,
            marked: Iterable[int] | None = None) -> MetricsReport:
    """Full report for p versus q; selectivity/success are computed on p."""
    pa, qa = _as_pair(p, q)
    scratch = np.empty(pa.size)
    d = _total_variation(pa, qa, scratch)
    h = _hellinger(pa, qa, scratch)
    sel = None
    p_s = None
    if marked is not None:
        idx = _marked_array(pa.size, marked)
        p_s = float(pa[idx].sum())
        sel = _selectivity(pa, idx, p_s, scratch)
    return MetricsReport(
        tv_distance=d,
        hellinger=h,
        fidelity_tv=1.0 - d,
        fidelity_h=1.0 - h,
        selectivity=sel,
        success_probability=p_s,
    )
