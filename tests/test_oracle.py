import math

import numpy as np
import pytest

from dmdgp import (
    branch_and_prune,
    complement,
    demo7_instance,
    extract_internal,
    generate,
    int_to_bits,
    marked_set,
    oracle_bit,
    oracle_eval,
    oracle_params,
    oracle_value,
    penalty,
    symmetry_set,
)
from dmdgp.oracle import ScanCapExceeded, scan
from reference_geometry import realize


class TestParams:
    def test_normalization_constant_n7(self):
        params = oracle_params(7, 1e-4, 0.5)
        assert params.p1 == 152_536_608
        # exponent: log base (1 - eps) of delta / p1
        expected_p2 = math.log(1e-4 / 152_536_608) / math.log(0.5)
        assert params.p2 == pytest.approx(expected_p2, abs=1e-12)
        assert params.p2 == pytest.approx(40.47, abs=0.01)

    def test_normalization_constant_n4(self):
        params = oracle_params(4, 1e-4, 0.5)
        assert params.p1 == 6**4 * (4**6 + 4**2)
        assert params.p1 == 5_329_152

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError, match="hypothesis"):
            oracle_params(7, 0.6, 0.5)
        with pytest.raises(ValueError, match="hypothesis"):
            oracle_params(7, 0.5, 0.5)

    def test_bad_domains(self):
        with pytest.raises(ValueError):
            oracle_params(7, -1e-4, 0.5)
        with pytest.raises(ValueError):
            oracle_params(7, 1e-4, 0.0)
        with pytest.raises(ValueError):
            oracle_params(7, 1e-4, 1.0)
        with pytest.raises(ValueError, match="delta must be positive, got nan"):
            oracle_params(7, math.nan, 0.5)
        # 1 - 1e-17 rounds to 1, whose log is 0
        with pytest.raises(ValueError, match="< 1 in float64, got 1e-17"):
            oracle_params(7, 1e-4, 1e-17)

    def test_p2_positive(self):
        for n in (4, 7, 12):
            for eps in (0.1, 0.5, 0.9):
                assert oracle_params(n, 1e-5, eps).p2 > 0


class TestEval:
    def test_zero_penalty_marks(self):
        params = oracle_params(7)
        assert oracle_bit(params, 0.0) == 1
        assert oracle_value(params, 0.0) == 0.0

    def test_ground_truth_index_is_marked(self):
        inst, gt = generate(7, 42, 1.0)
        internal = extract_internal(inst)
        params = oracle_params(7)
        k = int(gt.bits, 2)
        assert oracle_eval(inst, internal, params, k) == 1

    def test_violated_candidate_not_marked(self):
        inst, gt = generate(7, 42, 1.0)
        internal = extract_internal(inst)
        params = oracle_params(7)
        sols = branch_and_prune(inst, internal)
        non_solutions = set(range(16)) - set(sols.indices())
        for k in sorted(non_solutions):
            g = penalty(realize(internal, int_to_bits(k, 4)), inst)
            assert g >= params.delta
            assert oracle_eval(inst, internal, params, k) == 0

    def test_threshold_equivalence(self):
        # f(k) = 1 exactly when g < delta, across a sweep of penalties
        params = oracle_params(7, delta=1e-4, epsilon=0.5)
        for exponent in range(-12, 8):
            g = 10.0**exponent
            if g > params.p1:
                continue
            assert oracle_bit(params, g) == (1 if g < params.delta else 0)

    def test_array_evaluation_equals_scalar_calls(self):
        params = oracle_params(7, delta=1e-4, epsilon=0.5)
        # penalties from 0 up to near p1 = 1.5e8, across the threshold
        scale = 10.0 ** np.arange(-20, 8, 0.1)
        g = np.concatenate([[0.0], np.random.default_rng(7).random(scale.size) * scale])
        values, bits = oracle_value(params, g), oracle_bit(params, g)
        assert values.shape == bits.shape == g.shape
        assert bits[0] == 1 and values[0] == 0.0
        for gk, value, bit in zip(g.tolist(), values, bits):
            assert value == oracle_value(params, gk)
            assert bit == oracle_bit(params, gk)

    def test_negative_penalty_rejected(self):
        params = oracle_params(7)
        with pytest.raises(ValueError, match="negative"):
            oracle_value(params, np.array([0.0, -1e-30]))

    def test_mismatched_params_rejected(self):
        inst, _ = generate(7, 1, 0.5)
        with pytest.raises(ValueError, match="n=8"):
            oracle_eval(inst, extract_internal(inst), oracle_params(8), 0)

    def test_internal_coordinates_of_another_chain_rejected(self):
        inst10, inst12 = generate(10, 1, 0.5)[0], generate(12, 1, 0.5)[0]
        with pytest.raises(ValueError, match="^internal coordinates built for n=12, instance has n=10$"):
            oracle_eval(inst10, extract_internal(inst12), oracle_params(10), 0)
        with pytest.raises(ValueError, match="^internal coordinates built for n=10, instance has n=12$"):
            oracle_eval(inst12, extract_internal(inst10), oracle_params(12), 0)


class TestMarkedSet:
    def test_internal_coordinates_of_another_chain_rejected(self):
        inst10, inst12 = generate(10, 1, 0.5)[0], generate(12, 1, 0.5)[0]
        with pytest.raises(ValueError, match="^internal coordinates built for n=12, instance has n=10$"):
            marked_set(inst10, extract_internal(inst12), oracle_params(10))
        with pytest.raises(ValueError, match="^internal coordinates built for n=10, instance has n=12$"):
            marked_set(inst12, extract_internal(inst10), oracle_params(12))

    def test_demo_marked_indices(self):
        inst, _ = demo7_instance()
        marked = marked_set(inst, extract_internal(inst), oracle_params(7))
        assert marked == (4, 5, 10, 11)

    def test_clique_only_marks_everything(self):
        inst, _ = generate(6, 6, 0.0)
        marked = marked_set(inst, extract_internal(inst), oracle_params(6))
        assert marked == tuple(range(8))

    def test_agrees_with_branch_and_prune(self):
        for n, seed, p in [(5, 0, 1.0), (7, 1, 0.5), (9, 2, 0.4), (11, 3, 0.9)]:
            inst, _ = generate(n, seed, p)
            internal = extract_internal(inst)
            marked = marked_set(inst, internal, oracle_params(n))
            sols = branch_and_prune(inst, internal)
            assert list(marked) == sols.indices()
            assert len(marked) == symmetry_set(inst).expansion_size

    def test_near_solutions_stay_marked(self):
        # 225 and 286 are not solutions: their penalty 9.3e-6 is below 1e-4
        inst, _ = generate(12, 405007, 0.5)
        internal = extract_internal(inst)
        marked = marked_set(inst, internal, oracle_params(12, 1e-4))
        assert marked == (224, 225, 286, 287)
        # the default delta lies below them, and marks what BP finds
        marked = marked_set(inst, internal, oracle_params(12))
        assert marked == (224, 287)
        assert list(marked) == branch_and_prune(inst, internal).indices()

    def test_complement_closure(self):
        for seed in range(5):
            inst, _ = generate(8, seed, 0.8)
            marked = set(marked_set(inst, extract_internal(inst), oracle_params(8)))
            for k in marked:
                flipped = int(complement(int_to_bits(k, 5)), 2)
                assert flipped in marked

    def test_scan_rejects_internal_coordinates_of_another_chain(self):
        inst10, inst12 = generate(10, 1, 0.5)[0], generate(12, 1, 0.5)[0]
        # before any block is walked: scan is not a generator function
        with pytest.raises(ValueError, match="^internal coordinates built for n=10, instance has n=12$"):
            scan(inst12, extract_internal(inst10))
        with pytest.raises(ValueError, match="^internal coordinates built for n=12, instance has n=10$"):
            scan(inst10, extract_internal(inst12))

    def test_scan_cap(self):
        inst, _ = generate(28, 0, 0.5)
        with pytest.raises(ScanCapExceeded,
                           match="^search space 33554432 exceeds scan cap 16777216$"):
            marked_set(inst, extract_internal(inst), oracle_params(28))


class TestBounds:
    def test_normalized_penalty_in_unit_interval(self):
        for n, seed in [(4, 0), (7, 3), (10, 5)]:
            inst, _ = generate(n, seed, 1.0)
            internal = extract_internal(inst)
            params = oracle_params(n)
            for k in range(1 << (n - 3)):
                g = penalty(realize(internal, int_to_bits(k, n - 3)), inst)
                assert 0.0 <= g / params.p1 <= 1.0

    def test_threshold_dichotomy(self):
        for n, seed in [(6, 1), (8, 2)]:
            inst, _ = generate(n, seed, 0.7)
            internal = extract_internal(inst)
            params = oracle_params(n)
            for k in range(1 << (n - 3)):
                g = penalty(realize(internal, int_to_bits(k, n - 3)), inst)
                value = oracle_value(params, g)
                if g < params.delta:
                    assert value < 1.0 - params.epsilon
                else:
                    assert 1.0 - params.epsilon - 1e-12 <= value <= 1.0 + 1e-12
