import math
import random
import re

import numpy as np
import pytest

from dmdgp import (
    compare,
    data_file,
    grover_distribution,
    hellinger,
    mix_uniform,
    selectivity,
    total_variation,
)
from dmdgp.cli import load_distribution_csv


def bundled(name):
    return load_distribution_csv(data_file(name).read_text(encoding="utf-8"))


def random_prob_vector(rng, n=8):
    raw = [rng.random() for _ in range(n)]
    total = sum(raw)
    return np.array([x / total for x in raw])


class TestTotalVariation:
    def test_identical_is_zero(self):
        u = np.full(8, 1 / 8)
        assert total_variation(u, u) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation(np.eye(4)[0], np.eye(4)[1]) == 1.0

    def test_published_columns(self):
        d = total_variation(bundled("santiago_std_1call.csv"),
                            bundled("simulator_std_1call.csv"))
        # hand sum: (0.040+0.028+0.139+0.021+0.005+0.006+0.023+0.026)/2
        assert d == pytest.approx(0.144, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(5)
        p, q = random_prob_vector(rng), random_prob_vector(rng)
        assert total_variation(p, q) == total_variation(q, p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            total_variation(np.full(4, 0.25), np.full(8, 0.125))


class TestHellinger:
    def test_identical_is_zero(self):
        u = np.full(8, 1 / 8)
        assert hellinger(u, u) == 0.0

    def test_disjoint_point_masses(self):
        assert hellinger(np.eye(4)[0], np.eye(4)[1]) == pytest.approx(1.0, abs=1e-15)

    def test_standard_inequality(self):
        # h^2 <= d <= sqrt(2) h on random pairs
        rng = random.Random(99)
        for _ in range(200):
            p, q = random_prob_vector(rng), random_prob_vector(rng)
            d = total_variation(p, q)
            h = hellinger(p, q)
            assert h * h <= d + 1e-12
            assert d <= math.sqrt(2) * h + 1e-12

    def test_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q, r = (random_prob_vector(rng) for _ in range(3))
            assert hellinger(p, r) <= hellinger(p, q) + hellinger(q, r) + 1e-12
            assert total_variation(p, r) <= (
                total_variation(p, q) + total_variation(q, r) + 1e-12
            )


class TestSelectivity:
    def test_published_column(self):
        s = selectivity(bundled("santiago_std_1call.csv"), {2})
        assert s == pytest.approx(0.644 / 0.070, abs=1e-9)
        assert s == pytest.approx(9.2, abs=1e-9)

    def test_uniform_single_marked(self):
        assert selectivity(np.full(8, 1 / 8), {0}) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_one_iteration_search(self):
        dist = grover_distribution(8, {2}, 1)
        assert selectivity(dist, {2}) == pytest.approx(25.0, abs=1e-9)

    def test_fully_mixed_is_unity(self):
        dist = mix_uniform(grover_distribution(8, {2}, 1), 1.0)
        assert selectivity(dist, {4}) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_when_unmarked_mass_vanishes(self):
        assert selectivity(np.eye(8)[3], {3}) == math.inf

    def test_marked_must_be_proper_subset(self):
        with pytest.raises(ValueError):
            selectivity(np.full(4, 0.25), {0, 1, 2, 3})
        with pytest.raises(ValueError):
            selectivity(np.full(4, 0.25), set())

    def test_a_marked_index_that_is_no_integer_is_rejected(self):
        u = np.full(8, 1 / 8)
        for marked in ([2.99], [True], np.array([2.0])):
            for run in (lambda: selectivity(u, marked), lambda: compare(u, u, marked)):
                with pytest.raises(ValueError, match="^marked indices must be integers$"):
                    run()

    def test_index_beyond_intp_is_out_of_range(self):
        # the message of grover_distribution(8, [10**30], 1) too
        for run in (lambda m: selectivity(np.full(8, 1 / 8), m),
                    lambda m: compare(np.full(8, 1 / 8), np.full(8, 1 / 8), m)):
            with pytest.raises(ValueError, match=re.escape("marked indices must lie in 0..7")):
                run([10**30])


class TestCompare:
    def test_report_fields_consistent(self):
        rng = random.Random(3)
        p, q = random_prob_vector(rng), random_prob_vector(rng)
        report = compare(p, q, marked={2})
        assert report.fidelity_tv == pytest.approx(1 - report.tv_distance, abs=1e-15)
        assert report.fidelity_h == pytest.approx(1 - report.hellinger, abs=1e-15)
        assert report.success_probability == pytest.approx(p[2], abs=1e-15)

    def test_published_pair(self):
        report = compare(
            bundled("santiago_std_1call.csv"),
            bundled("simulator_std_1call.csv"),
            marked={2},
        )
        assert report.fidelity_tv == pytest.approx(0.856, abs=1e-3)
        assert report.selectivity == pytest.approx(9.2, abs=0.1)

    def test_marked_optional(self):
        u = np.full(8, 1 / 8)
        report = compare(u, u)
        assert report.selectivity is None
        assert report.success_probability is None

    def test_multi_marked_success_is_sum(self):
        dist = grover_distribution(16, {4, 5, 10, 11}, 1)
        report = compare(dist, np.full(16, 1 / 16), marked={4, 5, 10, 11})
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_nan_is_rejected(self):
        nan = np.array([math.nan, 1.0])
        u = np.full(2, 0.5)
        for call in (lambda: compare(nan, u, marked={1}), lambda: compare(u, nan),
                     lambda: selectivity(nan, {1}), lambda: total_variation(u, nan)):
            with pytest.raises(ValueError, match="^probabilities must be nonnegative$"):
                call()

    def test_inf_is_rejected_as_non_finite(self):
        # +inf passes the nonnegative check, so it fails on its own; -inf and NaN do not reach it
        inf = np.array([math.inf, 1.0])
        u = np.full(2, 0.5)
        for call in (lambda: compare(inf, u, marked={1}), lambda: compare(u, inf),
                     lambda: selectivity(inf, {1}), lambda: hellinger(u, inf)):
            with pytest.raises(ValueError, match="^probabilities must be finite$"):
                call()
        for bad in (-inf, np.array([math.nan, math.inf])):
            with pytest.raises(ValueError, match="^probabilities must be nonnegative$"):
                compare(u, bad)
