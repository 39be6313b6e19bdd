"""Exact simulation of amplitude amplification.

The search register holds N = 2^(n-3) real amplitudes.  One iteration
negates the marked amplitudes (the phase oracle acting on the search
register alone; the |-> ancilla that would absorb the kickback is
mathematically inert and never materialized) and then reflects about
the mean, which is the diffusion 2|psi><psi| - I.

From the uniform start the state stays in the span of the uniform
marked state and the uniform unmarked state: every marked amplitude
equals every other, and so does every unmarked one.  So
`grover_distribution` iterates just those two amplitudes, O(k), and
broadcasts them into the N outcome probabilities once, O(N).
`grover_state` is the N-vector reference: it applies the same iteration
to all N amplitudes in place, O(kN).

Everything here is pure: planning the iteration count, evolving the
state, converting to outcome probabilities, seeded multinomial
sampling, and a crude uniform-noise mix for degraded inputs.

The constructors of `Distribution` and `ShotCounts` copy what a caller
hands them.  The N-length arrays this module makes itself go through
`_owned_distribution` and `_owned_counts` instead: the same checks, then
frozen in place, so each stage allocates its output once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import _frozen

NORM_ATOL = 1e-12
SUM_ATOL = 1e-12

ITERATION_MODES = ("paper_floor", "nearest")


@dataclass(frozen=True)
class Statevector:
    """Unit-norm real amplitudes over N basis states (the oracle and the
    diffusion never leave the reals, so complex input is rejected)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.amplitudes):
            raise ValueError("amplitudes must be real")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D array")
        norm_sq = float(amps @ amps)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"state norm^2 = {norm_sq} is not 1")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def norm(self) -> float:
        return float(np.sqrt(self.amplitudes @ self.amplitudes))

    def probabilities(self) -> "Distribution":
        return _owned_distribution(np.square(self.amplitudes))


def _check_probabilities(probs: np.ndarray) -> float:
    """Raise unless `probs` is a normalized 1-D float vector; return its minimum."""
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    low = probs.min()
    if not low >= -SUM_ATOL:  # NaN fails too
        raise ValueError("probabilities must be nonnegative")
    total = float(probs.sum())
    if not abs(total - 1.0) <= SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return low


@dataclass(frozen=True)
class Distribution:
    """Probability vector over N outcomes, normalized to 1."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        _check_probabilities(probs)
        # np.maximum returns a fresh array: owned here, so made read-only, not copied
        clipped = np.maximum(probs, 0.0)
        clipped.flags.writeable = False
        object.__setattr__(self, "probabilities", clipped)

    @property
    def n_outcomes(self) -> int:
        return self.probabilities.size

    def mass(self, outcomes: Iterable[int]) -> float:
        return float(sum(self.probabilities[_marked_array(self.n_outcomes, outcomes)]))


@dataclass(frozen=True)
class GroverPlan:
    """Iteration plan for searching M marked among N outcomes."""

    N: int
    M: int
    theta: float
    k_raw: float
    k: int
    mode: str


@dataclass(frozen=True)
class ShotCounts:
    counts: np.ndarray
    shots: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.dtype.kind in "iu":  # floats and bools fail the check, not truncate
            counts = counts.astype(np.int64)  # a copy, owned here, so made read-only
        _check_counts(counts, self.shots)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def _check_counts(counts: np.ndarray, shots: int) -> None:
    """Raise unless `counts` is 1-D, int64, nonnegative and sums to `shots`."""
    if (counts.dtype != np.int64 or counts.ndim != 1
            or (counts.size and counts.min() < 0)):
        raise ValueError("counts must be a 1-D array of nonnegative integers")
    total = int(counts.sum())
    if total != shots:
        raise ValueError(f"counts sum to {total}, expected {shots}")


def _owned_distribution(probs: np.ndarray) -> Distribution:
    """A `Distribution` over the float vector this module has just made:
    the constructor's checks, then clipped and frozen in place, not copied."""
    if _check_probabilities(probs) < 0:
        np.maximum(probs, 0.0, out=probs)
    probs.flags.writeable = False
    dist = object.__new__(Distribution)
    object.__setattr__(dist, "probabilities", probs)
    return dist


def _owned_counts(counts: np.ndarray, shots: int) -> ShotCounts:
    """`ShotCounts` over the int64 counts this module has just drawn:
    the constructor's checks, then frozen in place, not copied."""
    _check_counts(counts, shots)
    counts.flags.writeable = False
    out = object.__new__(ShotCounts)
    object.__setattr__(out, "counts", counts)
    object.__setattr__(out, "shots", shots)
    return out


def _check_size(N: int) -> None:
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"search space size must be a power of 2 >= 2, got {N}")


def _check_space(N: int, M: int) -> None:
    _check_size(N)
    if not 1 <= M < N:
        raise ValueError(f"marked count must satisfy 1 <= M < N, got M={M}, N={N}")


def iteration_count(N: int, M: int = 1, mode: str = "nearest") -> GroverPlan:
    """Plan the iteration count for M marked elements.

    theta = arcsin(sqrt(M/N)) and k_raw = (pi/2 - theta) / (2 theta),
    which for M = 1 equals arccos(1/sqrt(N)) / arccos((N-2)/N).
    paper_floor takes floor(k_raw) clamped to at least 1; nearest
    rounds, which at small N is the better stopping point.
    """
    _check_space(N, M)
    if mode not in ITERATION_MODES:
        raise ValueError(f"mode must be one of {ITERATION_MODES}, got {mode!r}")
    theta = math.asin(math.sqrt(M / N))
    k_raw = (math.pi / 2 - theta) / (2 * theta)
    if mode == "paper_floor":
        k = max(1, math.floor(k_raw))
    else:
        k = round(k_raw)
    return GroverPlan(N=N, M=M, theta=theta, k_raw=k_raw, k=k, mode=mode)


def _uniform_amplitudes(N: int) -> np.ndarray:
    _check_size(N)
    return np.full(N, 1.0 / math.sqrt(N))


def uniform_state(N: int) -> Statevector:
    """Equal superposition over all N outcomes."""
    return Statevector(_uniform_amplitudes(N))


def _index(m: object) -> int:
    """`m` as a Python int; a bool, a float or a string is no index."""
    if isinstance(m, bool):
        raise TypeError
    return operator.index(m)


def _marked_array(N: int, marked: Iterable[int]) -> np.ndarray:
    """The distinct marked indices, sorted: a non-empty set in 0..N-1.
    A 1-D intp array that already is one, such as the walk's index, is
    returned as it is, found by one neighbour comparison; anything else
    takes one sort, then the first entry of each run of equal ones."""
    if (isinstance(marked, np.ndarray) and marked.dtype == np.intp and marked.ndim == 1
            and marked.size and 0 <= marked[0] and marked[-1] < N
            and (marked[1:] > marked[:-1]).all()):
        return marked
    out_of_range = f"marked indices must lie in 0..{N - 1}"
    try:
        if isinstance(marked, np.ndarray) and marked.dtype.kind in "iu":
            idx = np.sort(marked.astype(np.intp, copy=False), axis=None)
        else:
            idx = np.sort(np.fromiter(map(_index, marked), dtype=np.intp))
    except OverflowError:  # an index that fits no intp
        raise ValueError(out_of_range) from None
    except TypeError:
        raise ValueError("marked indices must be integers") from None
    if idx.size == 0:
        raise ValueError("marked set must not be empty")
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(out_of_range)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


def _iterate(amps: np.ndarray, idx: np.ndarray, iters: int) -> None:
    """Apply `iters` iterations to `amps` in place: phase-flip the marked
    entries, then reflect every entry about the mean."""
    for _ in range(iters):
        amps[idx] = -amps[idx]
        np.subtract(2.0 * amps.mean(), amps, out=amps)


def evolve(state: Statevector, marked: Iterable[int]) -> Statevector:
    """One iteration: phase-flip the marked amplitudes, reflect about the mean."""
    amps = state.amplitudes.copy()
    _iterate(amps, _marked_array(amps.size, marked), 1)
    return Statevector(amps)


def grover_state(N: int, marked: Iterable[int], iters: int) -> Statevector:
    """Statevector after `iters` iterations from the uniform start."""
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    idx = _marked_array(N, marked)
    amps = _uniform_amplitudes(N)
    _iterate(amps, idx, iters)
    return Statevector(amps)


def grover_distribution(N: int, marked: Iterable[int], iters: int) -> Distribution:
    """Outcome probabilities after `iters` iterations (0 -> uniform).

    Iterates the marked amplitude a and the unmarked amplitude b, both
    1/sqrt(N) at the start, with the reflection `grover_state` applies to
    all N: a = -a, then both reflect about mean = (M a + (N - M) b) / N.
    """
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
    return _owned_distribution(probs)


def success_probability(N: int, M: int, iters: int) -> float:
    """Closed form sin^2((2k + 1) theta) for the total marked probability."""
    _check_space(N, M)
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    theta = math.asin(math.sqrt(M / N))
    return math.sin((2 * iters + 1) * theta) ** 2


def sample(dist: Distribution, shots: int, seed: int) -> ShotCounts:
    """Seeded multinomial draw of `shots` measurements."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if shots >= 1 << 63:
        raise ValueError(f"shots must be below 2^63, got {shots}")
    probs = dist.probabilities / dist.probabilities.sum()
    rng = np.random.default_rng(seed)
    return _owned_counts(rng.multinomial(shots, probs), shots)


def mix_uniform(dist: Distribution, lam: float) -> Distribution:
    """(1 - lam) * dist + lam * uniform."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    probs = (1.0 - lam) * dist.probabilities
    probs += lam / dist.n_outcomes
    return _owned_distribution(probs)
