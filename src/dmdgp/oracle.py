"""Boolean oracle over candidate indices, built from the penalty.

The penalty of any candidate is bounded by p1 = 6^4 (n^6 + n^2), so
g/p1 lies in [0, 1].  Raising it to 1/p2 with

    p2 = log_{1-eps}(delta / p1)

pushes every sub-threshold penalty strictly below 1 - eps and every
other one into [1 - eps, 1], which makes

    f(k) = 1 - floor((g(h(k)) / p1)^(1/p2) + eps)

an indicator of g(h(k)) < delta.  It is exact except within a few ulps
of delta: p2 comes from two rounded logs, so a penalty that close to
delta can fall on the wrong side of 1 - eps (the largest double below
1e-4 gives exactly 1 - eps at n = 7).  `dmdgp grover` therefore
marks by branch-and-prune, whose test is the walk's exact g < delta;
`oracle-scan` tabulates f itself, and `marked_set` is the exhaustive
scan of f that the tests compare branch-and-prune against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bitstrings import decimal_text, int_to_bits
from .geometry import InternalCoords, _sign_blocks, edge_arrays, penalty, realize
from .instance import DmdgpInstance

#: The one solution threshold: a candidate is a solution iff g < delta.
#: Exact solutions have g near 1e-22 at most and measured non-solutions
#: no less than 3e-6, so 1e-10 sits well inside the gap.
DEFAULT_DELTA = 1e-10
DEFAULT_EPSILON = 0.5

#: Largest search space `scan` will walk; `dmdgp grover` never scans, and
#: stops at its own limit, `cli.GROVER_MAX_OUTCOMES` (2^22).
DEFAULT_SCAN_CAP = 1 << 24


class ScanCapExceeded(RuntimeError):
    """The candidate space is larger than the configured scan cap."""


@dataclass(frozen=True)
class OracleParams:
    """Thresholds plus the induced normalization and exponent."""

    n: int
    delta: float
    epsilon: float
    p1: float
    p2: float


def oracle_params(n: int, delta: float = DEFAULT_DELTA,
                  epsilon: float = DEFAULT_EPSILON) -> OracleParams:
    """Build parameters for an n-vertex search, checking the hypotheses."""
    if n < 4:
        raise ValueError(f"vertex count must be >= 4, got {n}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0.0 < 1.0 - epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1) with 1 - epsilon < 1 in float64, got {epsilon}")
    if delta + epsilon >= 1:
        raise ValueError(
            f"hypothesis violated: delta + epsilon = {delta + epsilon} must be < 1"
        )
    p1 = float(6**4 * (n**6 + n**2))
    if delta / p1 == 0.0:
        raise ValueError(f"delta = {delta} is too small: delta / p1 underflows to 0 at n = {n}")
    p2 = math.log(delta / p1) / math.log(1.0 - epsilon)
    return OracleParams(n=n, delta=delta, epsilon=epsilon, p1=p1, p2=p2)


def oracle_value(params: OracleParams, g: float | np.ndarray) -> float | np.ndarray:
    """(g / p1)^(1/p2) of a penalty or, elementwise, of an array of them."""
    if np.any(np.less(g, 0)):
        raise ValueError("penalty cannot be negative")
    return np.power(g / params.p1, 1.0 / params.p2)


def oracle_bit(params: OracleParams, g: float | np.ndarray) -> int | np.ndarray:
    """1 - floor(oracle_value + epsilon): 1 iff g < delta, elementwise."""
    return 1 - np.floor(oracle_value(params, g) + params.epsilon).astype(int)


def oracle_eval(inst: DmdgpInstance, internal: InternalCoords,
                params: OracleParams, k: int) -> int:
    """Evaluate the oracle at candidate index k."""
    if params.n != inst.n:
        raise ValueError(f"params built for n={params.n}, instance has n={inst.n}")
    if internal.n != inst.n:
        raise ValueError(f"internal coordinates built for n={internal.n}, instance has n={inst.n}")
    bits = int_to_bits(k, inst.n - 3)
    return int(oracle_bit(params, penalty(realize(internal, bits), inst)))


def scan(inst: DmdgpInstance, internal: InternalCoords) -> Iterator[tuple[int, np.ndarray]]:
    """(first, g) per block of the sign-tree walk run with no cut, where g[j]
    is g(h(first + j)) and the blocks cover 0..2^(n-3) - 1 in order (with no
    cut each block is a range, so first is its index[0]); raises
    ScanCapExceeded before any work when 2^(n-3) > DEFAULT_SCAN_CAP, and
    ValueError when `internal` is not of an n-vertex chain."""
    if internal.n != inst.n:
        raise ValueError(f"internal coordinates built for n={internal.n}, instance has n={inst.n}")
    size = 1 << (inst.n - 3)
    if size > DEFAULT_SCAN_CAP:
        raise ScanCapExceeded(f"search space {decimal_text(size)} exceeds scan cap {DEFAULT_SCAN_CAP}")
    return ((int(index[0]), g) for index, _, g in _sign_blocks(internal, edge_arrays(inst)))


def marked_set(inst: DmdgpInstance, internal: InternalCoords,
               params: OracleParams) -> tuple[int, ...]:
    """All candidate indices with f(k) = 1, ascending."""
    if params.n != inst.n:
        raise ValueError(f"params built for n={params.n}, instance has n={inst.n}")
    return tuple(first + j for first, g in scan(inst, internal)
                 for j in np.flatnonzero(oracle_bit(params, g)).tolist())
