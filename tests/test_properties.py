"""Property tests over generated instances: the generator's distances
are the per-pair `Conformation.distance`, the sign-tree walk and the
block scan agree with the per-candidate references `oracle_eval`,
the reference `realize` and `penalty`, branch-and-prune keeps exactly the candidates
with penalty below delta, which the oracle marks, the symmetry
set and its expansion agree with their definitions, the marked set
`dmdgp grover` takes from branch-and-prune equals the exhaustive scan's,
the walk yields the block-only reference walk's rows, bit for bit,
also over edge sets with every edge that ends at some vertices removed,
and the same rows whatever its block cap, and under a
prefix the rows of the whole walk that begin with it,
branch-and-prune's half walk and mirror rows are the whole-tree walk's
(index and penalties alone on 300 planar chains), its points are the
reference `realize` of each index, byte for byte,
the branch matrices the walk builds as one array are `b_matrix`'s
doubles, the penalty kernel is the two-stage `np.einsum` formula bit for
bit in any memory layout, `b_matrix(3)` (the general step at torsion cosine 1) is the
paper's B_3 and gives the walk's root bit for bit, `realize` (one row of the walk) is the per-vertex reference loop
bit for bit, the closed-form `quad_end_distance` is the reference chain's
end-to-end distance, the in-place
Grover run agrees with the single-step reference `evolve` and the
closed form, and the two-amplitude `grover_distribution` agrees with
that N-vector run."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmdgp import (
    DmdgpInstance,
    InternalCoords,
    b_matrix,
    branch_and_prune,
    expand_symmetry,
    extract_internal,
    generate,
    grover_distribution,
    grover_state,
    int_to_bits,
    marked_set,
    oracle_eval,
    oracle_params,
    penalty,
    success_probability,
    symmetry_set,
)
from dmdgp.bp import FIRST_BLOCK_ROWS, NoSolutionError, SymmetrySet
from dmdgp.cli import CliError, run_search
from dmdgp.grover import _marked_array
from dmdgp import geometry
from dmdgp.geometry import (
    BLOCK_LEVELS,
    _branch_matrices,
    _sign_blocks,
    edge_arrays,
    quad_end_distance,
)
from dmdgp.grover import evolve, iteration_count, uniform_state
from dmdgp.instance import (
    ANGLE_RANGE,
    BOND_RANGE,
    MAX_DISTANCE,
    MIN_PAIR_DISTANCE,
    clique_pairs,
    random_internal_coords,
)
from dmdgp.oracle import scan
from reference_geometry import realize, sign_blocks

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
        assert branch_and_prune(inst, internal, delta).index.tolist() == expected
        assert branch_and_prune(inst, internal, delta, mode="first").index.tolist() == expected[:1]


def walk_blocks(inst, delta, cap, prefix="", walk=_sign_blocks):
    """The blocks a sign-tree walk under `prefix` yields, each a list of
    its rows: (index, points bytes, g bytes)."""
    return [[(k, pts.tobytes(), g.tobytes()) for k, pts, g in zip(index.tolist(), block, gs)]
            for index, block, gs in walk(extract_internal(inst), edge_arrays(inst),
                                         delta, cap, prefix)]


def walk_rows(inst, delta, cap, prefix=""):
    """Every row the sign-tree walk under `prefix` yields."""
    return [row for block in walk_blocks(inst, delta, cap, prefix) for row in block]


@st.composite
def walks(draw):
    """(instance, delta, cap, prefix) of a walk: n = 4..40, or 4..14 with no
    cut, which walks every leaf; instances with over 2^10 solutions (sparse
    long edges) are rejected, since a cut walk yields them all."""
    delta = draw(st.sampled_from([math.inf, 1e-4, 1e-10]))
    inst, _ = draw(st.builds(generate, n=st.integers(4, 14 if delta == math.inf else 40),
                             seed=st.integers(0, 2**32 - 1),
                             long_edge_prob=st.floats(0.0, 1.0)))
    assume(symmetry_set(inst).expansion_size <= 1 << 10)
    return (inst, delta, draw(st.sampled_from([1, FIRST_BLOCK_ROWS, 1 << BLOCK_LEVELS])),
            draw(st.text("01", max_size=inst.n - 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walks())
@example((generate(120, 3, 0.5)[0], 1e-10, FIRST_BLOCK_ROWS, ""))  # a deep chain
# sparse: one-row runs end with both children alive
@example((generate(40, 4, 0.05)[0], 1e-10, 1 << BLOCK_LEVELS, "0"))
@example((generate(12, 1, 0.0)[0], math.inf, FIRST_BLOCK_ROWS, ""))  # clique-only
# the prefix's row dies at vertex 5, the first level that can cut it
@example((generate(12, 1, 1.0)[0], 1e-10, 1, "01"))
def test_walk_yields_the_block_only_walks_rows(case):
    inst, delta, cap, prefix = case
    got = walk_blocks(inst, delta, cap, prefix)
    expected = walk_blocks(inst, delta, cap, prefix, walk=sign_blocks)
    if delta == math.inf:  # the scan numbers a block's rows from its first index
        assert got == expected
    assert [row for block in got for row in block] == [row for block in expected for row in block]


def kept_edges(inst, dropped):
    """The instance's edge arrays less every edge that ends at a vertex of
    `dropped` (0-based)."""
    u, v, d2 = edge_arrays(inst)
    keep = ~np.isin(v, sorted(dropped))
    return u[keep], v[keep], d2[keep]


@st.composite
def edge_subset_walks(draw):
    """(instance, dropped vertices, delta, cap, prefix) of a walk over the
    instance's edges less those that end at the dropped vertices, so levels
    that close no edge turn up anywhere in the walk: n = 4..14 with no cut,
    or 4..40 with at most 2^10 solutions left over the kept edges."""
    delta = draw(st.sampled_from([math.inf, 1e-4, 1e-10]))
    inst, _ = draw(st.builds(generate, n=st.integers(4, 14 if delta == math.inf else 40),
                             seed=st.integers(0, 2**32 - 1),
                             long_edge_prob=st.floats(0.0, 1.0)))
    dropped = draw(st.frozensets(st.integers(0, inst.n - 1)))
    if delta != math.inf:
        # the kept edges' symmetry set: vertices no kept edge {u, w} crosses, u + 3 < v <= w
        u, w, _ = kept_edges(inst, dropped)
        v = np.arange(3, inst.n)
        crossed = ((u[:, None] + 3 < v) & (v <= w[:, None])).any(axis=0)
        assume(np.count_nonzero(~crossed) <= 10)
    return (inst, dropped, delta, draw(st.sampled_from([1, FIRST_BLOCK_ROWS, 1 << BLOCK_LEVELS])),
            draw(st.text("01", max_size=inst.n - 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_subset_walks())
# no edge at all: every level past the prefix doubles without a term
@example((generate(11, 1, 0.5)[0], frozenset(range(11)), math.inf, FIRST_BLOCK_ROWS, "01"))
# a deep chain whose one-row runs meet edge-free levels mid-walk
@example((generate(60, 4, 0.5)[0], frozenset({9, 20, 21, 45}), 1e-10, 1, ""))
@example((generate(30, 2, 0.5)[0], frozenset({2, 3, 7}), 1e-4, 1 << BLOCK_LEVELS, "1"))
def test_walk_over_edge_subsets_yields_the_block_only_walks_rows(case):
    inst, dropped, delta, cap, prefix = case
    internal, edges = extract_internal(inst), kept_edges(inst, dropped)
    got, expected = ([[(k, pts.tobytes(), g.tobytes()) for k, pts, g in zip(index.tolist(), block, gs)]
                      for index, block, gs in walk(internal, edges, delta, cap, prefix)]
                     for walk in (_sign_blocks, sign_blocks))
    if delta == math.inf:  # the scan numbers a block's rows from its first index
        assert got == expected
    assert [row for block in got for row in block] == [row for block in expected for row in block]


@settings(max_examples=40, deadline=None)
@given(st.builds(generate, n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)),
       st.sampled_from([math.inf, 1e-4, 1e-10]))
@example(generate(BLOCK_LEVELS + 5, 4, 0.5), 1e-10)
@example(generate(14, 4003, 0.05), 1e-10)
def test_walk_rows_do_not_depend_on_the_block_cap(generated, delta):
    inst, _ = generated
    assert (walk_rows(inst, delta, 1) == walk_rows(inst, delta, FIRST_BLOCK_ROWS)
            == walk_rows(inst, delta, 1 << BLOCK_LEVELS))


@settings(max_examples=40, deadline=None)
@given(st.builds(generate, n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)).flatmap(
           lambda generated: st.tuples(st.just(generated[0]),
                                       st.text("01", max_size=generated[0].n - 3))),
       st.sampled_from([math.inf, 1e-4, 1e-10]),
       st.sampled_from([1, 1 << BLOCK_LEVELS]))
@example((generate(BLOCK_LEVELS + 5, 4, 0.5)[0], "0"), 1e-10, 1 << BLOCK_LEVELS)
@example((generate(BLOCK_LEVELS + 5, 4, 0.5)[0], "0110"), math.inf, 1 << BLOCK_LEVELS)
@example((generate(9, 7, 0.0)[0], "101101"), math.inf, 1)  # one leaf: `realize`'s walk
def test_prefix_walk_yields_the_rows_under_its_prefix(case, delta, cap):
    inst, prefix = case
    width = inst.n - 3
    expected = [row for row in walk_rows(inst, delta, cap)
                if int_to_bits(row[0], width).startswith(prefix)]
    assert walk_rows(inst, delta, cap, prefix) == expected


def planar_chain(bonds, angles, cosines, bits, long_pairs):
    """The instance of every clique pair and `long_pairs` of the chain that
    `realize` builds from these internal coordinates and sign word."""
    internal = InternalCoords(*map(np.array, (bonds, angles, cosines)))
    conf = realize(internal, bits)
    n = internal.n
    return DmdgpInstance(n, {(u, v): conf.distance(u, v)
                             for u, v in clique_pairs(n) + sorted(long_pairs)})


@st.composite
def planar_chains(draw):
    """Instances of n = 4..14 whose torsion cosines are mostly the planar -1
    and 1, where the two sine branches of a vertex place it alike."""
    n = draw(st.integers(4, 14))
    far = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if v > u + 3]
    return planar_chain(
        draw(st.lists(st.floats(1.0, 1.8), min_size=n - 1, max_size=n - 1)),
        draw(st.lists(st.floats(0.5, 2.6), min_size=n - 2, max_size=n - 2)),
        draw(st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
                      min_size=n - 3, max_size=n - 3)),
        draw(st.text("01", min_size=n - 3, max_size=n - 3)),
        draw(st.sets(st.sampled_from(far)) if far else st.just(set())))


#: Every torsion planar: the chain lies in the plane z = 0.
PLANAR = planar_chain([1.5, 1.2, 1.6, 1.3, 1.4, 1.1, 1.7], [2.0, 1.9, 2.1, 1.8, 2.2, 1.7],
                      [1.0, -1.0, -1.0, 1.0, -1.0], "01101", {(1, 6), (2, 7), (1, 8)})


@settings(max_examples=40, deadline=None)
@given(st.builds(generate, n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)).map(lambda generated: generated[0])
       | planar_chains(),
       st.sampled_from([1e-4, 1e-10]))
@example(generate(15, 3, 0.0)[0], 1e-10)
@example(generate(12, 405007, 0.5)[0], 1e-4)
# sparse: mode "first" pops over a hundred blocks of FIRST_BLOCK_ROWS rows,
# most of them dead subtrees, before its first leaf
@example(generate(19, 11, 0.05)[0], 1e-10)
@example(PLANAR, 1e-10)
def test_branch_and_prune_rows_are_the_whole_tree_walks(inst, delta):
    # BP walks vertex 4's 0 subtree and mirrors it; the walk here covers both
    whole = walk_rows(inst, delta, 1 << BLOCK_LEVELS)
    for mode, expected in (("all", whole), ("first", whole[:1])):
        try:
            sols = branch_and_prune(inst, extract_internal(inst), delta, mode)
        except NoSolutionError:
            assert expected == []
            continue
        assert [(k, pts.tobytes(), g.tobytes())
                for k, pts, g in zip(sols.index, sols.points, sols.penalties)] == expected


@settings(max_examples=40, deadline=None)
@given(instances.map(lambda generated: generated[0]) | planar_chains(),
       st.sampled_from(["all", "first"]))
@example(PLANAR, "all")
def test_bp_leaves_are_realize_bit_for_bit(inst, mode):
    # the per-vertex reference loop, not the block walk, places each row
    internal = extract_internal(inst)
    sols = branch_and_prune(inst, internal, mode=mode)
    assert not sols.points.flags.writeable
    assert len(sols.index) == len(sols.points) == len(sols.penalties) == len(sols.entries)
    for k, pts, g, sol in zip(sols.index, sols.points, sols.penalties, sols.entries):
        conf = realize(internal, int_to_bits(k, inst.n - 3))
        assert pts.tobytes() == conf.points.tobytes()
        expected = penalty(conf, inst)
        assert abs(g - expected) <= 1e-9 + 1e-12 * expected
        assert (sol.index, sol.penalty) == (k, g)
        assert sol.conformation.points.tobytes() == conf.points.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planar_chains(), st.sampled_from([1e-4, 1e-10, math.inf]))
@example(PLANAR, 1e-10)
def test_mirror_index_and_penalties_are_the_whole_tree_walks(inst, delta):
    # mode "all" mirrors vertex 4's 0 subtree with no check for zero
    # coordinates, which planar torsions make; its points are not read here
    internal = extract_internal(inst)
    blocks = list(_sign_blocks(internal, edge_arrays(inst), delta))
    try:
        sols = branch_and_prune(inst, internal, delta)
    except NoSolutionError:
        assert blocks == []
        return
    assert "points" not in vars(sols)
    assert sols.index.tobytes() == np.concatenate([k for k, _, _ in blocks]).tobytes()
    assert sols.penalties.tobytes() == np.concatenate([g for _, _, g in blocks]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.builds(generate, n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
# near-solutions with penalty 9.3e-6 and 2.3e-5: marked at delta 1e-4 only
@example(generate(12, 405007, 0.5))
@example(generate(13, 41003, 0.5))
def test_grover_marks_the_exhaustive_marked_set(generated):
    inst, _ = generated
    internal = extract_internal(inst)
    expected = marked_set(inst, internal, oracle_params(inst.n))
    if len(expected) == 1 << (inst.n - 3):
        with pytest.raises(CliError, match="nothing to amplify"):
            run_search(inst, internal, None, "nearest", 64, 0, 0.0)
        return
    report = run_search(inst, internal, None, "nearest", 64, 0, 0.0)
    assert report.marked.dtype == np.int64 and not report.marked.flags.writeable
    assert tuple(report.marked.tolist()) == expected
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
def internal_coords(draw):
    """Internal coordinates of n = 4..40 vertices; torsion cosines include
    the planar -1, 0 and 1, where the sine branch is 0.0 or -0.0."""
    n = draw(st.integers(4, 40))
    bonds = st.lists(st.floats(0.5, 5.0), min_size=n - 1, max_size=n - 1)
    angles = st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
                      min_size=n - 2, max_size=n - 2)
    cosines = st.lists(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
                       min_size=n - 3, max_size=n - 3)
    return InternalCoords(*(np.array(draw(s)) for s in (bonds, angles, cosines)))


@settings(max_examples=60, deadline=None)
@given(internal_coords())
def test_branch_matrices_equal_b_matrix_bit_for_bit(internal):
    reference = np.array([[b_matrix(i, internal, sign) for sign in (1, -1)]
                          for i in range(4, internal.n + 1)])
    branches = _branch_matrices(internal)
    assert branches.shape == reference.shape
    assert np.array_equal(branches.view(np.uint64), reference.view(np.uint64))


@st.composite
def edge_differences(draw):
    """(diff (K, e, 3), d2 (e,)) as the penalty kernel takes them, in one of
    four layouts: contiguous, strided on the last axis or on the rows, and
    transposed; the entries span magnitudes 1e-20..1e20."""
    K, e = draw(st.sampled_from([1, 2, 256, 512])), draw(st.sampled_from([0, 1, 3, 25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-20, 20))
    shape, view = draw(st.sampled_from([
        ((K, e, 3), lambda a: a),  # contiguous
        ((K, e, 6), lambda a: a[..., ::2]),  # strided on the last axis
        ((2 * K, e, 3), lambda a: a[::2]),  # strided on the rows
        ((3, e, K), lambda a: a.transpose(2, 1, 0)),
    ]))
    return view(rng.standard_normal(shape) * scale), rng.random(e) * scale ** 2


@settings(max_examples=200, deadline=None)
@given(edge_differences())
def test_penalty_kernel_is_the_two_stage_einsum_bit_for_bit(case):
    diff, d2 = case
    residual = np.einsum("kej,kej->ke", diff, diff) - d2
    expected = np.einsum("ke,ke->k", residual, residual)
    got = geometry._terms(diff, d2)
    assert got.shape == expected.shape == (diff.shape[0],)
    assert got.tobytes() == expected.tobytes()


def paper_b3(internal):
    """B_3 as the paper writes it out."""
    d, theta = internal.bond(3), internal.angle(3)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([
        [-c, -s, 0.0, -d * c],
        [s, -c, 0.0, d * s],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


@settings(max_examples=100, deadline=None)
@given(internal_coords())
@example(InternalCoords(np.array([1.5, 2.0, 1.0]), np.array([1e-12, 1.0]), np.array([0.5])))
@example(InternalCoords(np.array([1.5, 2.0, 1.0]), np.array([math.pi - 1e-12, 1.0]),
                        np.array([0.5])))
def test_b3_is_the_paper_literal_and_keeps_the_root_bit_for_bit(internal):
    literal = paper_b3(internal)
    assert np.array_equal(b_matrix(3, internal), literal)
    assert np.array_equal(b_matrix(3, internal, -1), literal)
    b2 = b_matrix(2, internal)
    assert (b2 @ b_matrix(3, internal)).tobytes() == (b2 @ literal).tobytes()


@settings(max_examples=60, deadline=None)
@given(internal_coords().flatmap(lambda internal: st.tuples(
    st.just(internal), st.text("01", min_size=internal.n - 3, max_size=internal.n - 3))))
# 63 and 64 sign bits: the widest int64 index and the narrowest Python-int one
@example((random_internal_coords(66, 1)[0], "01" * 31 + "1"))
@example((random_internal_coords(67, 1)[0], "10" * 32))
def test_realize_is_the_reference_loop_bit_for_bit(case):
    internal, bits = case
    points = geometry.realize(internal, bits).points
    assert np.array_equal(points.view(np.uint64), realize(internal, bits).points.view(np.uint64))
    with pytest.raises(ValueError):
        geometry.realize(internal, bits + "0")


near_flat = st.floats(1e-9, 1e-3) | st.floats(math.pi - 1e-3, math.pi - 1e-9)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(*BOND_RANGE)] * 3),
       st.tuples(*[st.floats(*ANGLE_RANGE) | near_flat] * 2),
       st.floats(0.0, 2.0 * math.pi) | near_flat | near_flat.map(lambda w: 2.0 * math.pi - w))
# a cis chain with equal bonds and planar angles pi/3 closes on itself:
# d14 = 8.7e-4 at the smallest torsion the generator keeps (sine 1e-3)
@example((1.0, 1.0, 1.0), (math.pi / 3, math.pi / 3), 1e-3)
@example((1.0, 1.0, 1.0), (math.pi / 3, math.pi / 3), 0.0)
def test_quad_end_distance_is_the_reference_chains(bonds, angles, omega):
    # d14^2 sums terms of up to (a + b + c)^2, so both computations round it
    # relative to that scale, not to d14^2, which cancels to 0 as d14 -> 0:
    # at the first example d14 itself differs by 1.1e-11 relative
    cw = math.cos(omega)
    closed = quad_end_distance(bonds, angles, cw)
    for bits in ("0", "1"):
        d = realize(InternalCoords(*map(np.array, (bonds, angles, [cw]))), bits).distance(1, 4)
        assert abs(closed * closed - d * d) <= 1e-12 * sum(bonds) ** 2


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


@st.composite
def two_amplitude_searches(draw):
    """(N = 2^1..2^14, marked set with 1 <= M < N, k in 0..2 k_opt + 2)."""
    N = 1 << draw(st.integers(1, 14))
    M = draw(st.integers(1, N - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    marked = rng.choice(N, size=M, replace=False)
    return N, marked, draw(st.integers(0, 2 * iteration_count(N, M).k + 2))


@settings(max_examples=60, deadline=None)
@given(two_amplitude_searches())
@example((1 << 18, np.array([5, 200_000]), 284))  # bench scale: k_opt at N = 2^18, M = 2
def test_grover_distribution_equals_the_n_vector_run(search):
    # the two recurrences round differently (a two-term mean against numpy's
    # pairwise sum over N); over 600 random cases up to N = 2^18, half of them
    # with M <= 8, they differed by at most 1.4e-14
    N, marked, iters = search
    probs = grover_distribution(N, marked, iters).probabilities
    reference = grover_state(N, marked, iters).probabilities().probabilities
    np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("N, marked, iters, message", [
    (8, [2], -1, "iteration count must be nonnegative"),
    (8, [], 1, "marked set must not be empty"),
    (8, [8], 1, "marked indices must lie in 0..7"),
    (8, [-1], 1, "marked indices must lie in 0..7"),
    (12, [2], 1, "search space size must be a power of 2 >= 2, got 12"),
    (1, [0], 1, "search space size must be a power of 2 >= 2, got 1"),
    (8, [10**30], 1, "marked indices must lie in 0..7"),
])
def test_grover_distribution_rejects_what_grover_state_rejects(N, marked, iters, message):
    for run in (grover_distribution, grover_state):
        with pytest.raises(ValueError, match=re.escape(message)):
            run(N, marked, iters)


@st.composite
def marked_inputs(draw):
    """(N, a marked set as an int64 or a uint64 array or a list, unsorted and
    with repeats, or as an ascending intp array of distinct entries;
    sometimes empty or reaching past 0..N-1)."""
    N = 1 << draw(st.integers(1, 10))
    form = draw(st.sampled_from(["int64", "uint64", "list", "ascending"]))
    low = 0 if form == "uint64" else -2
    values = draw(st.lists(st.integers(low, N + 1) | st.sampled_from([0, N - 1]), max_size=40))
    if form == "ascending":
        return N, np.array(sorted(set(values)), dtype=np.intp)
    return N, values if form == "list" else np.array(values, dtype=form)


@settings(max_examples=200, deadline=None)
@given(marked_inputs())
@example((8, []))
@example((8, np.array([], dtype=np.uint64)))
@example((8, np.array([7, 0, 7, 3, 0], dtype=np.uint64)))
@example((8, [8, 8, 1]))
@example((8, np.array([0, 3, 7], dtype=np.intp)))
@example((8, np.array([0, 3, 8], dtype=np.intp)))
@example((8, np.array([-1, 3], dtype=np.intp)))
@example((8, np.array([3, 3, 5], dtype=np.intp)))
def test_marked_array_equals_np_unique(case):
    # one sort and a first-of-run mask give np.unique's array, and the
    # caller's array is left as it was
    N, marked = case
    given_copy = np.array(marked, copy=True)
    values = np.array(marked, dtype=np.int64)
    if values.size == 0:
        message = "marked set must not be empty"
    elif values.min() < 0 or values.max() >= N:
        message = f"marked indices must lie in 0..{N - 1}"
    else:
        message = None
    if message is None:
        idx = _marked_array(N, marked)
        assert idx.dtype == np.intp
        assert idx.tolist() == np.unique(values).tolist()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _marked_array(N, marked)
    np.testing.assert_array_equal(np.asarray(marked), given_copy)


def test_marked_array_keeps_the_walks_index():
    # the walk's index is ascending, distinct and inside 0..N-1, so the
    # three calls of a grover run take it as it is, with no sorted copy
    inst = generate(12, 1, 0.05)[0]
    index = branch_and_prune(inst, extract_internal(inst)).index
    assert index.size == 64
    assert _marked_array(1 << (inst.n - 3), index) is index
