"""Property tests over generated instances: the generator's distances
are the per-pair `Conformation.distance`, the sign-tree walk and the
block scan agree with the per-candidate references `oracle_eval`,
`realize` and `penalty`, branch-and-prune keeps exactly the candidates
with penalty below delta, which the oracle marks, the symmetry
set and its expansion agree with their definitions, the marked set
`dmdgp grover` takes from branch-and-prune equals the exhaustive scan's,
and the in-place
Grover run agrees with the single-step reference `evolve` and the
closed form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdgp import (
    branch_and_prune,
    expand_symmetry,
    extract_internal,
    generate,
    grover_state,
    int_to_bits,
    marked_set,
    oracle_eval,
    oracle_params,
    penalty,
    realize,
    success_probability,
    symmetry_set,
)
from dmdgp.bp import SymmetrySet
from dmdgp.cli import CliError, run_search
from dmdgp.geometry import BLOCK_LEVELS
from dmdgp.grover import evolve, uniform_state
from dmdgp.instance import MAX_DISTANCE, MIN_PAIR_DISTANCE, clique_pairs
from dmdgp.oracle import scan

instances = st.builds(
    generate,
    n=st.integers(4, 11),
    seed=st.integers(0, 2**32 - 1),
    long_edge_prob=st.floats(0.0, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(instances)
def test_marked_set_equals_per_candidate_oracle(generated):
    inst, _ = generated
    internal = extract_internal(inst)
    params = oracle_params(inst.n)
    expected = [
        k for k in range(1 << (inst.n - 3))
        if oracle_eval(inst, internal, params, k) == 1
    ]
    assert list(marked_set(inst, internal, params)) == expected


@settings(max_examples=40, deadline=None)
@given(instances, st.sampled_from(["all", "first"]))
def test_bp_leaves_are_realize_bit_for_bit(generated, mode):
    inst, _ = generated
    internal = extract_internal(inst)
    sols = branch_and_prune(inst, internal, mode=mode)
    assert not sols.points.flags.writeable
    assert len(sols.index) == len(sols.points) == len(sols.penalties) == len(sols.entries)
    for k, pts, g, sol in zip(sols.index, sols.points, sols.penalties, sols.entries):
        conf = realize(internal, int_to_bits(k, inst.n - 3))
        assert np.array_equal(pts, conf.points)
        expected = penalty(conf, inst)
        assert abs(g - expected) <= 1e-9 + 1e-12 * expected
        assert (sol.index, sol.penalty) == (k, g)
        assert np.array_equal(sol.conformation.points, conf.points)


@settings(max_examples=25, deadline=None)
@given(st.builds(generate, n=st.integers(4, 14), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
# n - 3 = BLOCK_LEVELS - 1, BLOCK_LEVELS, BLOCK_LEVELS + 1: every pruning
# edge ends inside the levels the walk doubles as array ops
@example(generate(BLOCK_LEVELS + 2, 1, 0.5))
@example(generate(BLOCK_LEVELS + 3, 2, 0.5))
@example(generate(BLOCK_LEVELS + 4, 3, 0.5))
# candidates 225 and 286 have penalty 9.3e-6, between the two deltas
@example(generate(12, 405007, 0.5))
# candidates 404 and 619 have penalty 2.3e-5, between the two deltas
@example(generate(13, 41003, 0.5))
def test_bp_keeps_exactly_the_candidates_that_pass_per_candidate_checks(generated):
    inst, _ = generated
    internal = extract_internal(inst)
    width = inst.n - 3
    g = [penalty(realize(internal, int_to_bits(k, width)), inst) for k in range(1 << width)]
    for delta in (1e-4, 1e-10):
        expected = [k for k in range(1 << width) if g[k] < delta]
        assert list(marked_set(inst, internal, oracle_params(inst.n, delta))) == expected
        assert branch_and_prune(inst, internal, delta).indices() == expected
        assert branch_and_prune(inst, internal, delta, mode="first").indices() == expected[:1]


@settings(max_examples=40, deadline=None)
@given(st.builds(generate, n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
# near-solutions with penalty 9.3e-6 and 2.3e-5: marked at delta 1e-4 only
@example(generate(12, 405007, 0.5))
@example(generate(13, 41003, 0.5))
def test_grover_marks_the_exhaustive_marked_set(generated):
    inst, _ = generated
    expected = marked_set(inst, extract_internal(inst), oracle_params(inst.n))
    if len(expected) == 1 << (inst.n - 3):
        with pytest.raises(CliError, match="nothing to amplify"):
            run_search(inst, None, "nearest", 64, 0, 0.0)
        return
    report = run_search(inst, None, "nearest", 64, 0, 0.0)
    assert report.marked == expected
    assert report.plan.M == len(report.marked)


@settings(max_examples=25, deadline=None)
@given(st.builds(generate, n=st.integers(4, 14), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
@example(generate(13, 5, 0.5))  # 4 blocks
@example(generate(14, 6, 0.9))  # 8 blocks
def test_block_scan_equals_per_candidate_references(generated):
    inst, _ = generated
    internal = extract_internal(inst)
    params = oracle_params(inst.n)
    rows = [(first + j, g) for first, block in scan(inst, internal)
            for j, g in enumerate(block.tolist())]
    assert [k for k, _ in rows] == list(range(1 << (inst.n - 3)))
    for k, g in rows:
        expected = penalty(realize(internal, int_to_bits(k, inst.n - 3)), inst)
        assert abs(g - expected) <= 1e-9 + 1e-12 * expected
    assert list(marked_set(inst, internal, params)) == [
        k for k, _ in rows if oracle_eval(inst, internal, params, k) == 1
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(0, 2**32 - 1))
def test_generated_distances_are_per_pair_norms_bit_for_bit(n, seed):
    # at long_edge_prob 1 every pair inside the window is an edge, so the
    # edge map is fixed by the ground truth's per-pair distances
    inst, gt = generate(n, seed, 1.0)
    d = gt.conformation.distance
    expected = {(u, v): d(u, v) for u, v in clique_pairs(n)}
    expected.update({(j, i): d(j, i) for i in range(5, n + 1) for j in range(1, i - 3)
                     if MIN_PAIR_DISTANCE <= d(j, i) <= MAX_DISTANCE})
    assert list(inst.edges.items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(st.builds(generate, n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
def test_symmetry_set_equals_its_definition(generated):
    inst, _ = generated
    definition = tuple(
        v for v in range(4, inst.n + 1)
        if not any(u + 3 < v <= w for (u, w) in inst.edges)
    )
    assert symmetry_set(inst).vertices == definition


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda width: st.tuples(
    st.text("01", min_size=width, max_size=width),
    st.sets(st.integers(4, width + 3)).map(sorted))))
def test_expand_symmetry_equals_string_reflections(case):
    bits, vertices = case
    # reflecting at v flips the bit of every vertex >= v (position >= v - 4)
    orbit = set()
    for mask in range(1 << len(vertices)):
        chosen = [v for b, v in enumerate(vertices) if mask >> b & 1]
        orbit.add("".join(
            c if sum(v <= pos + 4 for v in chosen) % 2 == 0 else "10"[int(c)]
            for pos, c in enumerate(bits)))
    assert expand_symmetry(bits, SymmetrySet(tuple(vertices))) == orbit


@st.composite
def searches(draw):
    """(N, sorted marked set with 1 <= M < N, iteration count k <= 3 sqrt(N))."""
    N = 1 << draw(st.integers(2, 12))
    M = draw(st.integers(1, N - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    marked = np.sort(rng.choice(N, size=M, replace=False))
    return N, marked, draw(st.integers(0, 3 * math.isqrt(N)))


@settings(max_examples=60, deadline=None)
@given(searches())
def test_grover_state_equals_chained_evolve_and_closed_form(search):
    N, marked, iters = search
    state = grover_state(N, marked, iters)
    reference = uniform_state(N)
    for _ in range(iters):
        reference = evolve(reference, marked)
    assert np.array_equal(state.amplitudes, reference.amplitudes)
    probs = state.probabilities().probabilities
    assert abs(probs[marked].sum() - success_probability(N, marked.size, iters)) <= 1e-9
    assert np.unique(probs[marked]).size == 1
    assert np.unique(np.delete(probs, marked)).size == 1
