import math
import re

import numpy as np
import pytest

from dmdgp import (
    Distribution,
    ShotCounts,
    grover_distribution,
    grover_state,
    iteration_count,
    mix_uniform,
    sample,
    success_probability,
)
from dmdgp.grover import evolve, uniform_state


class TestIterationCount:
    def test_n8_raw_value(self):
        plan = iteration_count(8, 1)
        expected = math.acos(1 / math.sqrt(8)) / math.acos(6 / 8)
        assert plan.k_raw == pytest.approx(expected, abs=1e-12)
        assert plan.k_raw == pytest.approx(1.6734, abs=1e-4)

    def test_n8_modes(self):
        assert iteration_count(8, 1, mode="paper_floor").k == 1
        assert iteration_count(8, 1, mode="nearest").k == 2

    def test_n4_exact_one(self):
        plan_floor = iteration_count(4, 1, mode="paper_floor")
        plan_near = iteration_count(4, 1, mode="nearest")
        assert plan_floor.k_raw == pytest.approx(1.0, abs=1e-12)
        assert plan_floor.k == 1
        assert plan_near.k == 1

    def test_large_n_limit(self):
        plan = iteration_count(1024, 1)
        assert abs(plan.k_raw / math.sqrt(1024) - math.pi / 4) <= 0.06

    def test_matches_arccos_form_across_sizes(self):
        for exp in range(2, 21):
            N = 1 << exp
            plan = iteration_count(N, 1)
            arccos_form = math.acos(1 / math.sqrt(N)) / math.acos((N - 2) / N)
            assert plan.k_raw == pytest.approx(arccos_form, abs=1e-12)

    def test_theta_invariant(self):
        for N, M in [(8, 1), (16, 4), (64, 9)]:
            plan = iteration_count(N, M)
            assert math.sin(plan.theta) ** 2 == pytest.approx(M / N, abs=1e-12)

    def test_bad_marked_count(self):
        with pytest.raises(ValueError):
            iteration_count(8, 0)
        with pytest.raises(ValueError):
            iteration_count(8, 8)
        with pytest.raises(ValueError):
            iteration_count(12, 1)  # not a power of 2


class TestDistribution:
    def test_probabilities_do_not_follow_the_input(self):
        probs = np.array([0.25, 0.5, -1e-13, 0.25 + 1e-13])
        dist = Distribution(probs)
        probs[:] = 0.0
        assert dist.probabilities.tolist() == [0.25, 0.5, 0.0, 0.25 + 1e-13]
        assert not dist.probabilities.flags.writeable
        assert not np.shares_memory(dist.probabilities, probs)

    def test_single_marked_one_iteration(self):
        dist = grover_distribution(8, {2}, 1)
        assert dist.probabilities[2] == pytest.approx(25 / 32, abs=1e-12)
        others = np.delete(dist.probabilities, 2)
        assert np.allclose(others, 1 / 32, atol=1e-12)

    def test_single_marked_two_iterations(self):
        dist = grover_distribution(8, {2}, 2)
        assert dist.probabilities[2] == pytest.approx(121 / 128, abs=1e-12)

    def test_zero_iterations_is_uniform(self):
        dist = grover_distribution(8, {5}, 0)
        assert np.allclose(dist.probabilities, 1 / 8, atol=1e-15)

    def test_half_marked_is_stuck(self):
        # M = N/2 rotates by theta = pi/4: marked mass stays at one half
        dist = grover_distribution(8, {0, 1, 2, 3}, 1)
        assert dist.mass({0, 1, 2, 3}) == pytest.approx(0.5, abs=1e-12)
        assert success_probability(8, 4, 1) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_marked_hits_certainty(self):
        # M = N/4 gives theta = pi/6, one iteration lands exactly on the target
        dist = grover_distribution(8, {1, 6}, 1)
        assert dist.mass({1, 6}) == pytest.approx(1.0, abs=1e-12)
        assert success_probability(8, 2, 1) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_agreement(self):
        for N in (4, 8, 64, 256):
            for M in (1, 2, 3, N // 2, N - 1):
                if not 1 <= M < N:
                    continue
                marked = set(range(M))
                for iters in (0, 1, 2, 5):
                    dist = grover_distribution(N, marked, iters)
                    assert dist.mass(marked) == pytest.approx(
                        success_probability(N, M, iters), abs=1e-9
                    )

    def test_two_dimensional_invariant_subspace(self):
        # all marked outcomes share one probability, all unmarked another,
        # at every iteration depth
        for iters in range(6):
            dist = grover_distribution(32, {3, 17, 30}, iters)
            marked = dist.probabilities[[3, 17, 30]]
            unmarked = np.delete(dist.probabilities, [3, 17, 30])
            assert np.ptp(marked) < 1e-15
            assert np.ptp(unmarked) < 1e-15

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError):
            grover_distribution(8, set(), 1)

    @pytest.mark.parametrize("outcomes", [[-1], [8], [10**30], [1, 8]])
    def test_mass_outside_the_outcomes_is_rejected(self, outcomes):
        dist = grover_distribution(8, [1], 1)
        with pytest.raises(ValueError, match=r"^marked indices must lie in 0\.\.7$"):
            dist.mass(outcomes)

    @pytest.mark.parametrize("marked", [
        [2.5], [2.0], [True], [np.float64(2)], ["2"],
        np.array([2.5]), np.array([2.0]), np.array([True, False]),
    ], ids=["float", "integral-float", "bool", "numpy-float", "str",
            "float-array", "integral-float-array", "bool-array"])
    def test_a_marked_index_that_is_no_integer_is_rejected(self, marked):
        dist = grover_distribution(8, [1], 1)
        for call in (lambda: grover_distribution(8, marked, 1), lambda: dist.mass(marked)):
            with pytest.raises(ValueError, match="^marked indices must be integers$"):
                call()

    @pytest.mark.parametrize("marked", [
        [2, 5], (np.int64(2), np.uint8(5)), np.array([5, 2]),
        np.array([2, 5], dtype=np.uint16), np.array([2, 5], dtype=object),
    ], ids=["ints", "numpy-ints", "int-array", "uint-array", "object-array"])
    def test_integer_marked_indices_pass(self, marked):
        dist = grover_distribution(8, marked, 1)
        expected = grover_distribution(8, {2, 5}, 1)
        assert dist.probabilities.tobytes() == expected.probabilities.tobytes()
        assert dist.mass(marked) == dist.mass([2, 5])

    def test_mass_counts_a_repeated_outcome_once(self):
        dist = grover_distribution(8, [1], 1)
        assert dist.mass([1, 1, 2]) == dist.mass([2, 1])

    def test_amplitudes_stay_real(self):
        state = grover_state(64, {9}, 6)
        assert np.abs(state.amplitudes.imag).max() < 1e-15

    def test_norm_drift_per_iteration(self):
        state = uniform_state(1 << 10)
        marked = {7, 100, 900}
        for _ in range(30):
            state = evolve(state, marked)
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_success_at_zero_iterations_is_m_over_n(self):
        for N, M in [(8, 1), (16, 5), (64, 63)]:
            assert success_probability(N, M, 0) == pytest.approx(M / N, abs=1e-15)


class TestSample:
    def test_determinism(self):
        dist = grover_distribution(8, {2}, 1)
        a = sample(dist, 8196, seed=1)
        b = sample(dist, 8196, seed=1)
        assert np.array_equal(a.counts, b.counts)

    def test_counts_sum_to_shots(self):
        dist = grover_distribution(16, {3, 12}, 1)
        counts = sample(dist, 5000, seed=9)
        assert counts.counts.sum() == 5000
        assert counts.shots == 5000

    def test_uniform_within_five_sigma(self):
        dist = Distribution(np.full(8, 1 / 8))
        counts = sample(dist, 8196, seed=1)
        sigma = math.sqrt(8196 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts.counts - 8196 / 8) < 5 * sigma)

    def test_point_mass(self):
        dist = Distribution(np.eye(8)[3])
        counts = sample(dist, 100, seed=0)
        assert counts.counts[3] == 100

    def test_bad_shots(self):
        dist = Distribution(np.full(4, 0.25))
        with pytest.raises(ValueError):
            sample(dist, 0, seed=0)

    @pytest.mark.parametrize("shots, message", [
        (10.5, "shots must be an integer, got 10.5"),
        (10.0, "shots must be an integer, got 10.0"),
        (True, "shots must be an integer, got True"),
        ("10", "shots must be an integer, got '10'"),
        (-3, "shots must be positive, got -3"),
        (2**63, f"shots must be below 2^63, got {2**63}"),
        (np.uint64(2**63), f"shots must be below 2^63, got {2**63}"),
    ])
    def test_shots_are_checked_before_the_draw(self, shots, message):
        dist = Distribution(np.full(4, 0.25))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(dist, shots, seed=0)

    def test_the_largest_shot_count_draws(self):
        counts = sample(Distribution(np.full(4, 0.25)), 2**63 - 1, seed=0)
        assert int(counts.counts.sum()) == 2**63 - 1
        assert sample(Distribution(np.full(4, 0.25)), np.int64(10), seed=0).shots == 10


class TestMixUniform:
    def test_identity_at_zero(self):
        dist = grover_distribution(8, {2}, 1)
        mixed = mix_uniform(dist, 0.0)
        assert np.array_equal(mixed.probabilities, dist.probabilities)

    def test_uniform_at_one(self):
        dist = grover_distribution(8, {2}, 1)
        mixed = mix_uniform(dist, 1.0)
        assert np.allclose(mixed.probabilities, 1 / 8, atol=1e-15)

    def test_half_mix_of_point_mass(self):
        dist = Distribution(np.eye(8)[2])
        mixed = mix_uniform(dist, 0.5)
        assert mixed.probabilities[2] == pytest.approx(0.5625, abs=1e-15)

    def test_out_of_range_rejected(self):
        dist = Distribution(np.full(4, 0.25))
        with pytest.raises(ValueError):
            mix_uniform(dist, 1.5)


class TestTypes:
    def test_distribution_must_normalize(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.1, -0.1]))

    def test_statevector_norm_checked(self):
        from dmdgp import Statevector

        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 1.0]))

    def test_statevector_rejects_complex_amplitudes(self):
        from dmdgp import Statevector

        with pytest.raises(ValueError, match="real"):
            Statevector(np.array([1j, 0]))

    def test_statevector_rejects_nan(self):
        from dmdgp import Statevector

        with pytest.raises(ValueError, match=r"^state norm\^2 = nan is not 1$"):
            Statevector(np.array([math.nan, 1.0]))

    @pytest.mark.parametrize("counts", [
        np.array([1.9, 0.9]), np.array([1.0, 0.0]), np.array([True, False]), [1.0, 0.0],
    ], ids=["fractional", "integral-float", "bool", "float-list"])
    def test_shot_counts_reject_counts_that_are_no_integers(self, counts):
        with pytest.raises(ValueError,
                           match="^counts must be a 1-D array of nonnegative integers$"):
            ShotCounts(counts, 1)

    def test_shot_counts_copy_integer_counts(self):
        counts = np.array([1, 0], dtype=np.uint8)
        shot_counts = ShotCounts(counts, 1)
        counts[:] = 0
        assert shot_counts.counts.tolist() == [1, 0]
        assert shot_counts.counts.dtype == np.int64
        assert ShotCounts([1, 0], 1).counts.tolist() == [1, 0]

    def test_distribution_rejects_nan(self):
        for probs in ([math.nan, 1.0], [0.0, math.nan]):
            with pytest.raises(ValueError, match="^probabilities must be nonnegative$"):
                Distribution(np.array(probs))
