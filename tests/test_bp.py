import hashlib
import tracemalloc

import numpy as np
import pytest

from dmdgp import (
    DmdgpInstance,
    NoSolutionError,
    branch_and_prune,
    demo7_edges,
    demo7_instance,
    expand_symmetry,
    extract_internal,
    generate,
    penalty,
    symmetry_set,
)
from dmdgp.bitstrings import bits_to_int, int_to_bits
from dmdgp.bp import SymmetrySet
from dmdgp.instance import clique_pairs, generate_from_topology
from dmdgp.oracle import scan
from reference_geometry import realize


def words(sols, width):
    """The sign words of a solution set's indices, `width` bits each."""
    return [int_to_bits(k, width) for k in sols.index.tolist()]


class TestSymmetrySet:
    def test_demo_instance(self):
        inst, _ = demo7_instance()
        assert symmetry_set(inst).vertices == (4, 7)

    def test_clique_only_has_all_vertices(self):
        inst, _ = generate(8, 4, 0.0)
        assert symmetry_set(inst).vertices == (4, 5, 6, 7, 8)

    def test_single_long_edge_excludes_covered_vertices(self):
        # edge {1,6} rules out v with 4 < v <= 6
        inst, _ = generate_from_topology(tuple(clique_pairs(7)) + ((1, 6),), "0000", 3)
        assert symmetry_set(inst).vertices == (4, 7)

    def test_vertex_4_always_member(self):
        for seed in range(6):
            inst, _ = generate(9, seed, 1.0)
            assert 4 in symmetry_set(inst)

    def test_expansion_size(self):
        assert SymmetrySet((4, 7)).expansion_size == 4
        assert SymmetrySet((4,)).expansion_size == 2


class TestExpandSymmetry:
    def test_demo_expansion(self):
        assert expand_symmetry("0101", SymmetrySet((4, 7))) == {
            "0101",
            "0100",
            "1010",
            "1011",
        }

    def test_single_vertex_gives_complement_pair(self):
        for bits in ("0000", "1011", "0110"):
            assert expand_symmetry(bits, SymmetrySet((4,))) == {bits, int_to_bits(int(bits, 2) ^ 0b1111, 4)}

    def test_closure(self):
        sym = SymmetrySet((4, 6, 7))
        orbit = expand_symmetry("01011", sym)
        assert len(orbit) == 8
        for member in orbit:
            assert expand_symmetry(member, sym) == orbit

    def test_includes_input(self):
        assert "0101" in expand_symmetry("0101", SymmetrySet((4, 7)))


class TestBranchAndPrune:
    def test_demo_solutions(self):
        inst, _ = demo7_instance()
        sols = branch_and_prune(inst, extract_internal(inst))
        assert words(sols, 4) == ["0100", "0101", "1010", "1011"]
        assert sols.index.tolist() == [4, 5, 10, 11]

    def test_clique_only_keeps_every_leaf(self):
        inst, _ = generate(7, 7, 0.0)
        sols = branch_and_prune(inst, extract_internal(inst))
        assert len(sols) == 16

    def test_first_mode_is_subset_of_all(self):
        for seed in range(5):
            inst, _ = generate(8, seed, 0.6)
            internal = extract_internal(inst)
            first = branch_and_prune(inst, internal, mode="first")
            full = branch_and_prune(inst, internal, mode="all")
            assert len(first) == 1
            assert first.entries[0].bits in words(full, 5)

    def test_cardinality_matches_symmetry_prediction(self):
        for n, seed, p in [(6, 0, 0.5), (7, 1, 1.0), (9, 2, 0.3), (10, 3, 0.8)]:
            inst, _ = generate(n, seed, p)
            sols = branch_and_prune(inst, extract_internal(inst))
            assert len(sols) == symmetry_set(inst).expansion_size

    def test_expansion_of_first_solution_is_whole_set(self):
        for seed in range(6):
            inst, _ = generate(9, seed, 0.7)
            internal = extract_internal(inst)
            sols = branch_and_prune(inst, internal)
            sym = symmetry_set(inst)
            assert expand_symmetry(sols.entries[0].bits, sym) == set(words(sols, 6))

    def test_expanded_strings_realize_to_solutions(self):
        inst, gt = generate(8, 12, 0.9)
        internal = extract_internal(inst)
        sym = symmetry_set(inst)
        for bits in expand_symmetry(gt.bits, sym):
            assert penalty(realize(internal, bits), inst) < 1e-4

    def test_solution_penalties_below_tolerance(self):
        inst, _ = generate(9, 8, 0.6)
        sols = branch_and_prune(inst, extract_internal(inst))
        for sol in sols.entries:
            assert sol.penalty < 1e-4

    def test_inconsistent_instance_raises(self):
        inst, _ = demo7_instance()
        edges = dict(inst.edges)
        edges[(1, 6)] = edges[(1, 6)] + 1.0  # break the pruning edge
        broken = DmdgpInstance(7, edges)
        with pytest.raises(NoSolutionError):
            branch_and_prune(broken, extract_internal(broken))

    def test_bad_mode_rejected(self):
        inst, _ = demo7_instance()
        with pytest.raises(ValueError):
            branch_and_prune(inst, extract_internal(inst), mode="some")

    def test_internal_coordinates_of_another_chain_rejected(self):
        inst10, inst12 = generate(10, 1, 0.5)[0], generate(12, 1, 0.5)[0]
        with pytest.raises(ValueError, match="^internal coordinates built for n=10, instance has n=12$"):
            branch_and_prune(inst12, extract_internal(inst10))
        with pytest.raises(ValueError, match="^internal coordinates built for n=12, instance has n=10$"):
            branch_and_prune(inst10, extract_internal(inst12), mode="first")

    def test_n4_instance_has_both_branches(self):
        # no edge can reach back past the fixed root at n=4, so nothing prunes
        inst, _ = generate(4, 99, 1.0)
        sols = branch_and_prune(inst, extract_internal(inst))
        assert words(sols, 1) == ["0", "1"]

    def test_deep_chain_needs_no_recursion(self):
        # one tree level per vertex: a recursive search overflows Python's stack here
        inst, gt = generate(1100, 1, 0.5)
        sols = branch_and_prune(inst, extract_internal(inst))
        assert gt.bits in words(sols, 1097)

    @pytest.mark.parametrize("n", [66, 67, 130])
    def test_indices_stay_exact_past_63_levels(self, n):
        # 63 sign levels fill an int64; 64 and 127 levels need Python ints
        inst, gt = generate(n, 3, 0.5)
        internal = extract_internal(inst)
        sols = branch_and_prune(inst, internal)
        assert sols.index.dtype == (np.int64 if n - 3 <= 63 else object)
        assert bits_to_int(gt.bits) in sols.index
        for k, pts in zip(sols.index.tolist(), sols.points):
            assert type(k) is int
            assert np.array_equal(pts, realize(internal, int_to_bits(k, n - 3)).points)
        assert np.array_equal(branch_and_prune(inst, internal, mode="first").index, sols.index[:1])

    def test_mode_all_keeps_no_points(self):
        # clique-only n = 18: 2^15 rows of 8 B index and 8 B penalty; the
        # points of half of them would add 216 B a row
        inst, _ = generate(18, 1, 0.0)
        internal = extract_internal(inst)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sols = branch_and_prune(inst, internal)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sols) == 1 << 15
        assert retained <= 24 * len(sols)


def exhaustive_solution_scan(inst, tol=1e-4):
    """Independent oracle: all sign words whose realization fits the edges."""
    internal = extract_internal(inst)
    width = inst.n - 3
    return {
        format(k, f"0{width}b")
        for k in range(1 << width)
        if penalty(realize(internal, format(k, f"0{width}b")), inst) < tol
    }


class TestSolutionSetStructure:
    def test_demo_topology_from_all_zero_bits(self):
        # solution set closed under flipping the v7 bit and under flipping all
        inst, _ = generate_from_topology(demo7_edges(), "0000", seed=1)
        sols = exhaustive_solution_scan(inst)
        assert "0000" in sols
        for bits in sols:
            assert bits[:3] + ("1" if bits[3] == "0" else "0") in sols
            assert int_to_bits(int(bits, 2) ^ 0b1111, 4) in sols

    def test_clique_only_n5_topology_all_solutions(self):
        inst, _ = generate_from_topology(clique_pairs(5), "01", seed=3)
        assert exhaustive_solution_scan(inst) == {"00", "01", "10", "11"}

    def test_scan_matches_branch_and_prune(self):
        for seed in range(4):
            inst, _ = generate(8, seed, 0.7)
            sols = branch_and_prune(inst, extract_internal(inst))
            assert exhaustive_solution_scan(inst) == set(words(sols, 5))


# SHA-256 of the sign-tree walk's output, bit for bit: n = 11 has no level
# above the last BLOCK_LEVELS, n = 13 and clique-only n = 15 two and four,
# n = 300 nearly all.  Measured with numpy 2.4 and its bundled OpenBLAS only.
WALK_DIGESTS = {
    (11, 1, 0.5): ("41260fe8d35e5315c05dd9631cc2d0e0de6f55b33689364ef0fb02d8fde9dc63",
                   "f8267a725330a3b53133419c7666a5072556a2a4fc106e11479b43b9d0b25762",
                   "469d6f1f81675b2a276540dac7cb3120bb23d89af4117d7d815bf7639752be92"),
    (13, 2, 0.5): ("7e7499804ea271573123e2c271f7cb0b7653bc8309237a55e6332cdfb4c32744",
                   "a61588bc1a58b11244624a950c69255dee46eee480bb0c862dc8f418c26bdf0d",
                   "baa8ccf126d3f28fde5c6b1958a2655e27798a66cd469830b22ed96b4eef04b7"),
    (15, 3, 0.0): ("6533380d7b24a67da22163f7ab7905f669817d22b15540d4efe7f72d968f3e30",
                   "6b576f4c709d9812c5d90869f4dcdac60497802d683269dee453773625a2b446",
                   "b026470ac4ad644e236b00586f52f351e09e442817baa395d49dddd18a95d700"),
    (300, 1, 0.5): ("c40c41359a4f299ffbfd3404394929ee0df668ad404ad656477bb9674c3523a1",
                    "350a6748186e77248c06708a06aaa2e7117c03acf79f0ce6117a59eb5237bc41",
                    None),
}


@pytest.mark.parametrize("params", WALK_DIGESTS)
@pytest.mark.parametrize("mode", ["all", "first"])
def test_branch_and_prune_rows_are_pinned(params, mode):
    inst, _ = generate(*params)
    sols = branch_and_prune(inst, extract_internal(inst), mode=mode)
    h = hashlib.sha256(repr(tuple(sols.index.tolist())).encode())
    h.update(sols.points.tobytes())
    h.update(sols.penalties.tobytes())
    assert h.hexdigest() == WALK_DIGESTS[params][mode == "first"]


@pytest.mark.parametrize("params", WALK_DIGESTS)
def test_points_are_assembled_on_first_read(params):
    inst, _ = generate(*params)
    sols = branch_and_prune(inst, extract_internal(inst))
    assert "points" not in vars(sols)
    assert not sols.index.flags.writeable
    points = sols.points
    h = hashlib.sha256(repr(tuple(sols.index.tolist())).encode())
    h.update(points.tobytes())
    h.update(sols.penalties.tobytes())
    assert h.hexdigest() == WALK_DIGESTS[params][0]
    assert sols.points is points and not points.flags.writeable


@pytest.mark.parametrize("params", [p for p, d in WALK_DIGESTS.items() if d[2]])
def test_scan_blocks_are_pinned(params):
    inst, _ = generate(*params)
    h = hashlib.sha256()
    for first, g in scan(inst, extract_internal(inst)):
        h.update(repr(first).encode())
        h.update(g.tobytes())
    assert h.hexdigest() == WALK_DIGESTS[params][2]
