"""Property tests over generated instances: the shared sign-tree walk
agrees with the per-candidate references `oracle_eval` and `realize`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdgp import (
    branch_and_prune,
    extract_internal,
    generate,
    marked_set,
    oracle_eval,
    oracle_params,
    realize,
)

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
