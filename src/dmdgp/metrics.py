"""Distribution-quality measures: total variation, Hellinger, selectivity.

All comparison functions accept either a `Distribution` or any raw
nonnegative vector, so tabulated device data (rounded to a few decimals
and not exactly normalized) flows through unmodified.
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


def _total_variation(pa: np.ndarray, qa: np.ndarray) -> float:
    return 0.5 * float(np.abs(pa - qa).sum())


def _hellinger(pa: np.ndarray, qa: np.ndarray) -> float:
    return math.sqrt(0.5 * float(((np.sqrt(pa) - np.sqrt(qa)) ** 2).sum()))


def total_variation(p: ProbVector, q: ProbVector) -> float:
    """d = 1/2 sum |p_x - q_x|."""
    return _total_variation(*_as_pair(p, q))


def hellinger(p: ProbVector, q: ProbVector) -> float:
    """h with h^2 = 1/2 sum (sqrt(p_x) - sqrt(q_x))^2."""
    return _hellinger(*_as_pair(p, q))


def selectivity(dist: ProbVector, marked: Iterable[int]) -> float:
    """Searched-outcome probability over the largest unsearched one.

    Returns inf when no unsearched outcome carries any probability.
    """
    probs = _as_probs(dist)
    return _selectivity(probs, _marked_array(probs.size, marked))


def _selectivity(probs: np.ndarray, idx: np.ndarray) -> float:
    if idx.size == probs.size:
        raise ValueError("marked set must be a proper subset of the outcomes")
    p_s = float(probs[idx].sum())
    mask = np.ones(probs.size, dtype=bool)
    mask[idx] = False
    p_ns = float(probs[mask].max())
    if p_ns == 0.0:
        return math.inf
    return p_s / p_ns


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
    d = _total_variation(pa, qa)
    h = _hellinger(pa, qa)
    sel = None
    p_s = None
    if marked is not None:
        idx = _marked_array(pa.size, marked)
        sel = _selectivity(pa, idx)
        p_s = float(pa[idx].sum())
    return MetricsReport(
        tv_distance=d,
        hellinger=h,
        fidelity_tv=1.0 - d,
        fidelity_h=1.0 - h,
        selectivity=sel,
        success_probability=p_s,
    )
