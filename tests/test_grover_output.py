"""The Grover output stages against the reference in `reference_grover`:
the same probability, count and metric bytes from arrays each stage makes
once, through an owned path that runs every check of the constructors."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_grover as reference
from dmdgp import (
    Distribution,
    ShotCounts,
    compare,
    grover_distribution,
    grover_state,
    hellinger,
    iteration_count,
    mix_uniform,
    sample,
    selectivity,
    total_variation,
)
from dmdgp.grover import _owned_counts, _owned_distribution


def _bits(report):
    return [None if x is None else float.hex(x) for x in dataclasses.astuple(report)]


@st.composite
def pipelines(draw):
    N = 1 << draw(st.integers(1, 18))
    marked = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=min(N - 1, 16),
                           unique=True))
    k = iteration_count(N, len(marked)).k
    return (N, marked, draw(st.integers(0, 2 * k + 2)), draw(st.floats(0.0, 1.0)),
            draw(st.integers(1, 10_000)), draw(st.integers(0, 2**64 - 1)),
            draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(pipelines())
# one iteration puts all of N = 4's mass on the marked outcome: selectivity inf
@example((4, [1], 1, 0.0, 8196, 7, False))
@example((2, [0], 2, 1.0, 1, 0, True))
@example((1 << 18, [5, 77_000], 402, 0.3, 8196, 3, True))
def test_output_stages_are_the_reference_bit_for_bit(case):
    N, marked, iters, lam, shots, seed, as_array = case
    given_marked = np.array(marked) if as_array else marked
    ideal = grover_distribution(N, given_marked, iters)
    ref_ideal = reference.grover_distribution(N, marked, iters)
    assert ideal.probabilities.tobytes() == ref_ideal.probabilities.tobytes()
    mixed = mix_uniform(ideal, lam)
    ref_mixed = reference.mix_uniform(ref_ideal, lam)
    assert mixed.probabilities.tobytes() == ref_mixed.probabilities.tobytes()
    counts = sample(mixed, shots, seed)
    ref_counts = reference.sample(ref_mixed, shots, seed)
    assert counts.counts.tobytes() == ref_counts.counts.tobytes()
    assert counts.shots == ref_counts.shots

    freqs = counts.frequencies()
    report = compare(freqs, ideal.probabilities, given_marked)
    assert _bits(report) == _bits(reference.compare(freqs, ref_ideal.probabilities, marked))
    assert _bits(compare(freqs, ideal)) == _bits(reference.compare(freqs, ref_ideal))
    # the public measures run the kernels compare runs
    assert float.hex(total_variation(freqs, ideal)) == float.hex(report.tv_distance)
    assert float.hex(hellinger(freqs, ideal)) == float.hex(report.hellinger)
    assert float.hex(selectivity(freqs, given_marked)) == float.hex(report.selectivity)


def test_infinite_selectivity_is_the_references():
    ideal = grover_distribution(4, [1], 1)
    assert ideal.probabilities.tolist() == [0.0, 1.0, 0.0, 0.0]
    freqs = sample(ideal, 8196, 7).frequencies()
    report = compare(freqs, ideal.probabilities, [1])
    assert report.selectivity == selectivity(freqs, [1]) == math.inf
    assert _bits(report) == _bits(reference.compare(freqs, ideal.probabilities, [1]))


def test_library_arrays_are_read_only_and_share_no_memory():
    ideal = grover_distribution(64, [3, 40], 2)
    mixed = mix_uniform(ideal, 0.0)
    counts = sample(mixed, 500, 1)
    state = grover_state(64, [3, 40], 2)
    probs = state.probabilities()
    for arr in (ideal.probabilities, mixed.probabilities, counts.counts, probs.probabilities):
        assert not arr.flags.writeable
    assert not np.shares_memory(mixed.probabilities, ideal.probabilities)
    assert not np.shares_memory(counts.counts, mixed.probabilities)
    assert not np.shares_memory(probs.probabilities, state.amplitudes)
    assert counts.counts.dtype == np.int64


def test_owned_path_clips_in_place_as_the_constructor_clips():
    probs = np.array([0.25, 0.5, -1e-13, 0.25 + 1e-13])
    expected = Distribution(probs).probabilities.tobytes()
    owned = _owned_distribution(probs)
    assert owned.probabilities is probs
    assert probs.tobytes() == expected
    assert not probs.flags.writeable


@pytest.mark.parametrize("probs", [
    [1.5, -0.5],
    [math.nan, 1.0],
    [0.5, 0.5 + 1e-11],
    [0.5, 0.5 - 1e-11],
    [[0.5, 0.5]],
    [],
], ids=["negative", "nan", "sum-high", "sum-low", "2-d", "empty"])
def test_owned_distribution_raises_the_constructors_message(probs):
    with pytest.raises(ValueError) as public:
        Distribution(np.array(probs, dtype=float))
    with pytest.raises(ValueError) as owned:
        _owned_distribution(np.array(probs, dtype=float))
    assert str(owned.value) == str(public.value)


@pytest.mark.parametrize("counts, shots", [
    ([3, 4], 8),
    ([9, -1], 8),
    ([[4, 4]], 8),
], ids=["sum", "negative", "2-d"])
def test_owned_counts_raise_the_constructors_message(counts, shots):
    with pytest.raises(ValueError) as public:
        ShotCounts(np.array(counts), shots)
    with pytest.raises(ValueError) as owned:
        _owned_counts(np.array(counts, dtype=np.int64), shots)
    assert str(owned.value) == str(public.value)
    assert str(owned.value) in ("counts sum to 7, expected 8",
                                "counts must be a 1-D array of nonnegative integers")


#: Peak traced memory of one pipeline run, in N-length float64 arrays: the
#: ideal, the counts, the frequencies and compare's one scratch array are
#: alive together, plus slices.  Each extra temporary adds ~1.
PIPELINE_PEAK_ARRAYS = 4.5


def test_pipeline_peak_memory_stays_under_four_and_a_half_arrays():
    N, marked = 1 << 16, [3, 40_000]
    k = iteration_count(N, len(marked)).k

    def run():
        ideal = grover_distribution(N, marked, k)
        counts = sample(mix_uniform(ideal, 0.3), 8196, 7)
        return compare(counts.frequencies(), ideal.probabilities, marked)

    run()  # first-call allocations (the generator's state, caches) are not the pipeline's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * N) <= PIPELINE_PEAK_ARRAYS
