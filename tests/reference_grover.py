"""References for the Grover output stages: `grover_distribution`,
`mix_uniform`, `sample` and `compare` as they were before each stage
made its N-length arrays once, with the metrics kernels they called.
Each builds through the public constructors, which copy.  Kept for the
tests to compare the library's output bytes against.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from dmdgp.grover import Distribution, ShotCounts, _check_size, _marked_array
from dmdgp.metrics import MetricsReport, ProbVector, _as_pair


def grover_distribution(N: int, marked: Iterable[int], iters: int) -> Distribution:
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    idx = _marked_array(N, marked)
    _check_size(N)
    M = idx.size
    a = b = 1.0 / math.sqrt(N)
    for _ in range(iters):
        a = -a
        mean = (M * a + (N - M) * b) / N
        a, b = 2.0 * mean - a, 2.0 * mean - b
    probs = np.full(N, b * b)
    probs[idx] = a * a
    return Distribution(probs)


def sample(dist: Distribution, shots: int, seed: int) -> ShotCounts:
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = dist.probabilities / dist.probabilities.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return ShotCounts(counts=counts, shots=shots)


def mix_uniform(dist: Distribution, lam: float) -> Distribution:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    N = dist.n_outcomes
    return Distribution((1.0 - lam) * dist.probabilities + lam / N)


def _total_variation(pa: np.ndarray, qa: np.ndarray) -> float:
    return 0.5 * float(np.abs(pa - qa).sum())


def _hellinger(pa: np.ndarray, qa: np.ndarray) -> float:
    return math.sqrt(0.5 * float(((np.sqrt(pa) - np.sqrt(qa)) ** 2).sum()))


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


def compare(p: ProbVector, q: ProbVector,
            marked: Iterable[int] | None = None) -> MetricsReport:
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
