"""Property tests over generated instances: the sign-tree walk and the
block scan agree with the per-candidate references `oracle_eval`,
`realize` and `penalty`, the symmetry set and its expansion agree
with their definitions, and the in-place Grover run agrees with the
single-step reference `evolve` and the closed form."""

import math

import numpy as np
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
from dmdgp.grover import evolve, uniform_state
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
@given(instances, st.sampled_from([(0, 1), (1, 0)]))
def test_bp_leaves_are_realize_bit_for_bit(generated, order):
    inst, _ = generated
    internal = extract_internal(inst)
    for sol in branch_and_prune(inst, internal, branch_order=order).entries:
        assert np.array_equal(sol.conformation.points,
                              realize(internal, sol.bits).points)


@settings(max_examples=25, deadline=None)
@given(st.builds(generate, n=st.integers(4, 14), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
@example(generate(13, 5, 0.5))  # 4 blocks
@example(generate(14, 6, 0.9))  # 8 blocks
def test_block_scan_equals_per_candidate_references(generated):
    inst, _ = generated
    internal = extract_internal(inst)
    params = oracle_params(inst.n)
    rows = list(scan(inst, internal))
    assert [k for k, _ in rows] == list(range(1 << (inst.n - 3)))
    for k, g in rows:
        expected = penalty(realize(internal, int_to_bits(k, inst.n - 3)), inst)
        assert abs(g - expected) <= 1e-9 + 1e-12 * expected
    assert list(marked_set(inst, internal, params)) == [
        k for k, _ in rows if oracle_eval(inst, internal, params, k) == 1
    ]


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
