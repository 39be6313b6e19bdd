"""Exact statevector simulation of amplitude amplification.

The search register holds N = 2^(n-3) real amplitudes.  One iteration
negates the marked amplitudes (the phase oracle acting on the search
register alone; the |-> ancilla that would absorb the kickback is
mathematically inert and never materialized) and then reflects about
the mean, which is the diffusion 2|psi><psi| - I applied in O(N).

Everything here is pure: planning the iteration count, evolving the
state, converting to outcome probabilities, seeded multinomial
sampling, and a crude uniform-noise mix for degraded inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

NORM_ATOL = 1e-12
SUM_ATOL = 1e-12

ITERATION_MODES = ("paper_floor", "nearest")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


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
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 = {norm_sq} is not 1")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def n_outcomes(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.sqrt(self.amplitudes @ self.amplitudes))

    def probabilities(self) -> "Distribution":
        return Distribution(np.square(self.amplitudes))


@dataclass(frozen=True)
class Distribution:
    """Probability vector over N outcomes, normalized to 1."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probabilities must be a non-empty 1-D array")
        if np.any(probs < -SUM_ATOL):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", _frozen(np.maximum(probs, 0.0)))

    @property
    def n_outcomes(self) -> int:
        return self.probabilities.size

    def mass(self, outcomes: Iterable[int]) -> float:
        return float(sum(self.probabilities[i] for i in set(outcomes)))


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
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a 1-D array of nonnegative integers")
        if int(counts.sum()) != self.shots:
            raise ValueError(f"counts sum to {int(counts.sum())}, expected {self.shots}")
        object.__setattr__(self, "counts", _frozen(counts))

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def _check_space(N: int, M: int) -> None:
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"search space size must be a power of 2 >= 2, got {N}")
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
    if N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"search space size must be a power of 2 >= 2, got {N}")
    return np.full(N, 1.0 / math.sqrt(N))


def uniform_state(N: int) -> Statevector:
    """Equal superposition over all N outcomes."""
    return Statevector(_uniform_amplitudes(N))


def _marked_array(N: int, marked: Iterable[int]) -> np.ndarray:
    if isinstance(marked, np.ndarray):
        idx = np.unique(marked.astype(np.intp, copy=False))
    else:
        idx = np.unique(np.fromiter((int(m) for m in marked), dtype=np.intp))
    if idx.size == 0:
        raise ValueError("marked set must not be empty")
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"marked indices must lie in 0..{N - 1}")
    return idx


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
    """Outcome probabilities after `iters` iterations (0 -> uniform)."""
    return grover_state(N, marked, iters).probabilities()


def success_probability(N: int, M: int, iters: int) -> float:
    """Closed form sin^2((2k + 1) theta) for the total marked probability."""
    _check_space(N, M)
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    theta = math.asin(math.sqrt(M / N))
    return math.sin((2 * iters + 1) * theta) ** 2


def sample(dist: Distribution, shots: int, seed: int) -> ShotCounts:
    """Seeded multinomial draw of `shots` measurements."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = dist.probabilities / dist.probabilities.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return ShotCounts(counts=counts, shots=shots)


def mix_uniform(dist: Distribution, lam: float) -> Distribution:
    """(1 - lam) * dist + lam * uniform."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    N = dist.n_outcomes
    return Distribution((1.0 - lam) * dist.probabilities + lam / N)
