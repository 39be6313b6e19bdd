import math
import re

import numpy as np
import pytest

from dmdgp import (
    InternalCoords,
    b_matrix,
    extract_internal,
    generate,
    penalty,
)
from dmdgp.bitstrings import int_to_bits
from dmdgp.geometry import (
    BLOCK_LEVELS,
    InconsistentDistances,
    _sign_blocks,
    _torsion_cosine,
    edge_arrays,
    quad_end_distance,
)
from dmdgp.instance import DmdgpInstance, random_internal_coords
from reference_geometry import realize


def dihedral(p1, p2, p3, p4):
    """Independent check: signed dihedral via the atan2 construction."""
    b1, b2, b3 = p2 - p1, p3 - p2, p4 - p3
    n1, n2 = np.cross(b1, b2), np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    return math.atan2(float(m1 @ n2), float(n1 @ n2))


def chain(n=6, seed=0):
    return random_internal_coords(n, seed)[0]


class TestBMatrix:
    def test_level_1_is_identity(self):
        assert np.array_equal(b_matrix(1, chain()), np.eye(4))

    def test_level_2_entries(self):
        ic = InternalCoords(
            np.array([1.5, 1.2, 1.1]), np.array([1.6, 1.7]), np.array([0.3])
        )
        m = b_matrix(2, ic)
        assert np.array_equal(np.diag(m), [-1.0, 1.0, -1.0, 1.0])
        assert m[0, 3] == -1.5
        assert np.count_nonzero(m) == 5

    def test_planar_torsion_row(self):
        ic = InternalCoords(
            np.array([1.5, 1.2, 1.1]), np.array([1.6, 1.7]), np.array([1.0])
        )
        m = b_matrix(4, ic, sign=1)
        assert np.allclose(m[2], [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_bottom_row_always_affine(self):
        ic = chain(8, 3)
        for i in range(1, 9):
            assert np.array_equal(b_matrix(i, ic, 1)[3], [0.0, 0.0, 0.0, 1.0])

    def test_sign_flips_third_coordinate_block(self):
        ic = chain(6, 4)
        plus, minus = b_matrix(5, ic, 1), b_matrix(5, ic, -1)
        flip = np.diag([1.0, 1.0, -1.0, 1.0])
        assert np.allclose(minus, flip @ plus @ flip, atol=1e-15)


class TestRealize:
    def test_first_three_atoms_fixed(self):
        ic = chain(7, 5)
        conf = realize(ic, "1101")
        d12, d23, t13 = ic.bond(2), ic.bond(3), ic.angle(3)
        assert np.allclose(conf.point(1), [0, 0, 0], atol=1e-9)
        assert np.allclose(conf.point(2), [-d12, 0, 0], atol=1e-9)
        assert np.allclose(
            conf.point(3),
            [-d12 + d23 * math.cos(t13), d23 * math.sin(t13), 0],
            atol=1e-9,
        )

    def test_consecutive_distances(self):
        ic = chain(9, 6)
        conf = realize(ic, "010011")
        for i in range(2, 10):
            assert abs(conf.distance(i - 1, i) - ic.bond(i)) < 1e-9

    def test_clique_distances_for_both_deeper_branches(self):
        # distances among v1..vi cannot depend on branching below level i
        ic = chain(8, 7)
        for bits in ("00000", "00001", "00011", "11111"):
            conf = realize(ic, bits)
            for i in range(4, 9):
                expected = quad_end_distance(
                    (ic.bond(i - 2), ic.bond(i - 1), ic.bond(i)),
                    (ic.angle(i - 1), ic.angle(i)),
                    ic.torsion_cos(i),
                )
                assert abs(conf.distance(i - 3, i) - expected) < 1e-8

    def test_complement_is_mirror_image(self):
        ic = chain(9, 8)
        bits = "110100"
        a = realize(ic, bits).points
        b = realize(ic, int_to_bits(int(bits, 2) ^ 0b111111, 6)).points
        assert np.allclose(a[:, :2], b[:, :2], atol=1e-9)
        assert np.allclose(a[:, 2], -b[:, 2], atol=1e-9)

    def test_dihedral_magnitudes_match_inputs(self):
        ic = chain(7, 9)
        conf = realize(ic, "0110")
        for i in range(4, 8):
            pts = [conf.point(i - 3), conf.point(i - 2), conf.point(i - 1), conf.point(i)]
            assert abs(abs(math.cos(dihedral(*pts))) - abs(ic.torsion_cos(i))) < 1e-9

    def test_wrong_bit_width_rejected(self):
        with pytest.raises(ValueError):
            realize(chain(6, 1), "01")


def walk(inst, delta=math.inf):
    """(index, points, g) per leaf of the sign-tree walk over `inst`."""
    ic = extract_internal(inst)
    return [(k, pts, g)
            for index, block, gs in _sign_blocks(ic, edge_arrays(inst), delta)
            for k, pts, g in zip(index.tolist(), block, gs.tolist())]


class TestSignTree:
    def test_unpruned_walk_visits_every_leaf_in_order(self):
        inst, _ = generate(7, 4, 0.5)
        ic = extract_internal(inst)
        leaves = walk(inst)
        assert [k for k, _, _ in leaves] == list(range(16))
        for k, pts, g in leaves:
            conf = realize(ic, int_to_bits(k, 4))
            assert np.array_equal(pts, conf.points)
            assert abs(g - penalty(conf, inst)) <= 1e-9 + 1e-12 * g

    def test_prune_edge_cuts_subtrees(self):
        inst, gt = generate(8, 3, 1.0)
        kept = walk(inst, delta=1e-10)
        assert int(gt.bits, 2) in [k for k, _, _ in kept]
        assert len(kept) < 1 << 5
        assert all(g < 1e-10 for _, _, g in kept)

    def test_root_over_delta_yields_nothing_when_no_later_level_closes_an_edge(self):
        ic = chain(8, 2)
        # the one edge, {1,2}, is closed by the root and is 0.5 longer than the bond
        u, v, d = np.array([0]), np.array([1]), np.array([ic.bond(2) + 0.5])
        edges = (u, v, d * d)
        g = (ic.bond(2) ** 2 - (ic.bond(2) + 0.5) ** 2) ** 2
        assert list(_sign_blocks(ic, edges, delta=g / 2)) == []
        assert list(_sign_blocks(ic, edges, delta=g / 2, prefix="01010")) == []
        leaves = [k for index, _, _ in _sign_blocks(ic, edges, delta=2 * g) for k in index.tolist()]
        assert leaves == list(range(1 << 5))


class TestLeafBlocks:
    @pytest.mark.parametrize("levels", [BLOCK_LEVELS - 1, BLOCK_LEVELS, BLOCK_LEVELS + 1])
    def test_every_leaf_is_realize_bit_for_bit(self, levels):
        inst, _ = generate(levels + 3, levels, 0.5)
        ic = extract_internal(inst)
        seen = 0
        for index, block, g in _sign_blocks(ic, edge_arrays(inst)):
            size = 1 << min(levels, BLOCK_LEVELS)
            assert index.tolist() == list(range(seen, seen + size))
            assert block.shape == (size, levels + 3, 3) and g.shape == (size,)
            for k, pts in zip(index.tolist(), block):
                assert np.array_equal(pts, realize(ic, int_to_bits(k, levels)).points)
            seen += size
        assert seen == 1 << levels

    # a deep chain with 2 leaves, and a sparse one with 2^3
    @pytest.mark.parametrize("params", [(120, 3, 0.5), (40, 6, 0.05)])
    @pytest.mark.parametrize("cap", [1, 16])
    @pytest.mark.parametrize("prefix", ["0", ""])
    def test_rows_extended_in_place_never_reach_a_yielded_row(self, params, cap, prefix):
        inst, _ = generate(*params)
        ic = extract_internal(inst)
        blocks = list(_sign_blocks(ic, edge_arrays(inst), 1e-10, cap, prefix))  # the whole walk first
        assert blocks
        for index, block, _ in blocks:
            for k, pts in zip(index.tolist(), block):
                assert np.array_equal(pts, realize(ic, int_to_bits(k, inst.n - 3)).points)
        if cap == 1 and params == (40, 6, 0.05):
            # rows the walk went on to extend in place were split off these blocks' arrays
            assert any(a.base is not None and a.base is b.base
                       for i, (_, a, _) in enumerate(blocks) for _, b, _ in blocks[i + 1:])

    @pytest.mark.parametrize("cap", [1, 3, 16])
    def test_blocks_hold_at_most_cap_rows(self, cap):
        inst, _ = generate(12, 5, 0.5)
        ic = extract_internal(inst)
        for delta in (math.inf, 1e-10):
            blocks = list(_sign_blocks(ic, edge_arrays(inst), delta, cap))
            assert all(0 < len(index) <= cap for index, _, _ in blocks)
        assert [k for index, _, _ in blocks for k in index.tolist()] == [
            k for k, _, _ in walk(inst, delta=1e-10)]


class TestExtract:
    def test_round_trip_through_generation(self):
        for seed in range(6):
            ic, _ = random_internal_coords(8, seed)
            inst, _ = generate(8, seed, 0.5)
            ext = extract_internal(inst)
            assert np.allclose(ext.bonds, ic.bonds, atol=1e-9)
            assert np.allclose(ext.angles, ic.angles, atol=1e-9)
            assert np.allclose(ext.torsion_cosines, ic.torsion_cosines, atol=1e-9)

    def test_right_triangle_angle(self):
        # right angle at v2: the 3-4-5 triangle plus an off-plane v4
        pts = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0], [2, 3, 1.5]], dtype=float)
        edges = {
            (u + 1, v + 1): float(np.linalg.norm(pts[u] - pts[v]))
            for u in range(4)
            for v in range(u + 1, 4)
        }
        ext = extract_internal(DmdgpInstance(4, edges))
        assert abs(ext.angle(3) - math.pi / 2) < 1e-12

    def test_planar_quad_gives_cos_one(self):
        ic = InternalCoords(
            np.array([1.2, 1.4, 1.3]),
            np.array([1.8, 2.0]),
            np.array([1.0]),  # omega = 0, cis
        )
        conf = realize(ic, "0")
        d = conf.distance
        cw = _torsion_cosine(d(1, 2), d(1, 3), d(1, 4), d(2, 3), d(2, 4), d(3, 4))
        assert abs(cw - 1.0) < 1e-9

    def test_collinear_triple_raises(self):
        with pytest.raises(ValueError, match="collinear"):
            _torsion_cosine(2.0, 5.0, 6.0, 3.0, 4.0, 1.5)

    @pytest.mark.parametrize("scale, message", [
        (1e300, "degenerate triple at vertex 3: cos theta is NaN"),
        (1e-300, "degenerate triple at vertex 3: cos theta is NaN"),
        (1e100, "torsion cosine outside [-1, 1]"),
    ])
    def test_weights_past_the_doubles_range_fail_without_warnings(self, scale, message):
        # squares and products of these weights overflow or underflow; the
        # test configuration turns any numpy RuntimeWarning into an error
        inst, _ = generate(7, 1, 0.0)
        scaled = DmdgpInstance(7, {pair: d * scale for pair, d in inst.edges.items()})
        with pytest.raises(InconsistentDistances, match=re.escape(message)):
            extract_internal(scaled)


class TestPenalty:
    def test_ground_truth_penalty_near_zero(self):
        inst, gt = generate(9, 14, 0.7)
        assert penalty(gt.conformation, inst) < 1e-10

    def test_conformation_of_another_chain_rejected(self):
        (inst10, gt10), (inst12, gt12) = generate(10, 1, 0.5), generate(12, 1, 0.5)
        with pytest.raises(ValueError, match="^conformation has n=12, instance has n=10$"):
            penalty(gt12.conformation, inst10)
        with pytest.raises(ValueError, match="^conformation has n=10, instance has n=12$"):
            penalty(gt10.conformation, inst12)

    def test_single_violated_edge_contribution(self):
        from dmdgp import Conformation

        _, gt = generate(4, 3, 0.0)
        pts = gt.conformation.points.copy()
        pts[3] = pts[0]  # collapse v4 onto v1
        broken = DmdgpInstance(4, {(1, 4): 2.0})
        assert penalty(Conformation(pts), broken) == 16.0  # (0 - 4)^2

    def test_clique_only_instances_have_no_pruning(self):
        inst, _ = generate(7, 7, 0.0)
        internal = extract_internal(inst)
        for k in range(16):
            bits = format(k, "04b")
            assert penalty(realize(internal, bits), inst) < 1e-10

    def test_order_invariance(self):
        inst, gt = generate(8, 5, 0.9)
        edges_rev = dict(reversed(list(inst.edges.items())))
        inst_rev = DmdgpInstance(8, edges_rev)
        a = penalty(gt.conformation, inst)
        b = penalty(gt.conformation, inst_rev)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-18)

    def test_reflection_invariance(self):
        inst, _ = generate(9, 31, 0.8)
        internal = extract_internal(inst)
        for bits in ("000000", "101010", "111111", "010001"):
            a = penalty(realize(internal, bits), inst)
            b = penalty(realize(internal, int_to_bits(int(bits, 2) ^ 0b111111, 6)), inst)
            assert abs(a - b) < 1e-9
