import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

import reference_instance as reference
from dmdgp import (
    DmdgpInstance,
    ParseError,
    demo7_edges,
    demo7_instance,
    extract_internal,
    generate,
    generate_from_topology,
    parse_document,
    penalty,
    random_internal_coords,
    realize,
    serialize_instance,
    validate,
)
from dmdgp import instance
from dmdgp.instance import MAX_DISTANCE, MAX_VERTICES, MIN_PAIR_DISTANCE, clique_pairs


def small_edges(n=4, **overrides):
    """A valid clique-only 4-vertex edge dict to perturb in tests."""
    inst, _ = generate(n, seed=11, long_edge_prob=0.0)
    edges = dict(inst.edges)
    edges.update(overrides)
    return edges


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DmdgpInstance(4, {(2, 2): 1.0})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            DmdgpInstance(4, {(1, 2): -1.0})

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            DmdgpInstance(4, {(1, 5): 1.0})

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            DmdgpInstance(3, {})

    def test_vertex_count_over_the_limit_fails_before_any_array(self):
        # validate's (4, n) table would be 29 TiB here
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                DmdgpInstance(10**12, {(1, 2): 1.5})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"vertex count {10**12} exceeds the limit of {MAX_VERTICES}"
        assert peak < 1 << 20

    def test_every_way_of_making_an_instance_rejects_n_below_four_alike(self):
        message = "vertex count must be an integer >= 4, got 3"
        for make in (lambda: generate(3, 0, 0.5), lambda: random_internal_coords(3, 0),
                     lambda: DmdgpInstance(3, {}),
                     lambda: parse_document('{"n": 3, "edges": []}')):
            with pytest.raises(ValueError) as raised:
                make()
            assert str(raised.value) == message

    def test_vertex_limit_is_inclusive(self):
        assert DmdgpInstance(MAX_VERTICES, {(1, 2): 1.5}).n == MAX_VERTICES
        with pytest.raises(ValueError, match="exceeds the limit"):
            DmdgpInstance(MAX_VERTICES + 1, {(1, 2): 1.5})

    def test_numpy_vertex_count_is_held_as_an_int(self):
        inst = DmdgpInstance(np.int64(5), small_edges(5))
        assert type(inst.n) is int and inst.n == 5
        with pytest.raises(ValueError, match=r"^vertex count must be an integer >= 4, got True$"):
            DmdgpInstance(True, {})

    def test_numpy_vertex_count_generates_the_int_document(self):
        assert (serialize_instance(*generate(np.int64(8), 1, 0.5))
                == serialize_instance(*generate(8, 1, 0.5)))

    def test_int_weight_beyond_the_doubles_is_non_finite(self):
        with pytest.raises(ValueError, match=r"^non-finite weight inf on edge \{1,2\}$"):
            DmdgpInstance(4, {(1, 2): 10**400})

    @pytest.mark.parametrize("weight", ["1.5", True, None, 1 + 2j])
    def test_weight_must_be_a_real_number(self, weight):
        with pytest.raises(ValueError) as raised:
            DmdgpInstance(4, {(1, 2): 1.0, (3, 2): weight})
        assert str(raised.value) == f"weight on edge {{2,3}} must be a real number, got {weight!r}"

    def test_numpy_real_weights_are_accepted(self):
        inst = DmdgpInstance(4, {(1, 2): np.float32(1.5), (2, 3): np.int64(2)})
        assert inst.d.tolist() == [1.5, 2.0]

    def test_edges_are_read_only(self):
        inst = DmdgpInstance(4, small_edges())
        with pytest.raises(TypeError):
            inst.edges[(1, 2)] = 2.0
        with pytest.raises(ValueError):
            inst.d[0] = 2.0

    def test_reversed_keys_are_swapped(self):
        edges = small_edges()
        inst = DmdgpInstance(4, {(v, u): d for (u, v), d in edges.items()})
        assert inst == DmdgpInstance(4, edges)
        assert list(inst.edges.items()) == list(edges.items())

    def test_reversed_repeat_is_a_duplicate(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \{1,2\}$"):
            DmdgpInstance(4, {(1, 2): 1.0, (2, 1): 1.0})

    def test_edges_view_is_the_given_mapping(self):
        inst, _ = generate(12, 4, 0.5)
        edges = dict(zip(zip(inst.u.tolist(), inst.v.tolist()), inst.d.tolist()))
        view = DmdgpInstance(12, edges).edges
        assert len(view) == len(edges)
        assert view._dict is None  # the length is the arrays' size: no dict is built
        assert list(view.items()) == list(edges.items())
        assert view == edges and dict(view) == edges
        assert (3, 1) not in view and view.get((1, 3)) == edges[(1, 3)]


class TestParse:
    def test_demo_document_shape(self):
        inst, gt = demo7_instance()
        text = serialize_instance(inst, gt)
        parsed = parse_document(text)[0]
        assert parsed.n == 7
        assert len(parsed.edges) == 16

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_document("{not json")

    def test_self_loop_document(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_document('{"n": 4, "edges": [[2, 2, 1.0]]}')

    def test_reversed_endpoints_document(self):
        with pytest.raises(ParseError, match="u < v"):
            parse_document('{"n": 4, "edges": [[3, 1, 1.0]]}')

    def test_negative_weight_document(self):
        with pytest.raises(ParseError, match="non-positive"):
            parse_document('{"n": 4, "edges": [[1, 2, -1.0]]}')

    def test_duplicate_edge_document(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_document('{"n": 4, "edges": [[1, 2, 1.0], [1, 2, 1.5]]}')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing required field"):
            parse_document('{"n": 4}')

    def test_bad_ground_truth_bits(self):
        inst, gt = generate(5, 1, 0.0)
        text = serialize_instance(inst, gt).replace('"bits": "', '"bits": "zz')
        with pytest.raises(ParseError):
            parse_document(text)

    @pytest.mark.parametrize("weight, message", [
        ("1" + "0" * 400, "non-finite weight inf on edge {1,2}"),
        ("-1" + "0" * 400, "non-positive weight -inf on edge {1,2}"),
        ("1e400", "non-finite weight inf on edge {1,2}"),
        ("-1e400", "non-positive weight -inf on edge {1,2}"),
        ("NaN", "non-finite weight nan on edge {1,2}"),
        ("0", "non-positive weight 0.0 on edge {1,2}"),
    ])
    def test_weight_rule_names_the_failure(self, weight, message):
        with pytest.raises(ParseError) as raised:
            parse_document(f'{{"n": 4, "edges": [[1, 2, {weight}]]}}')
        assert str(raised.value) == message

    @pytest.mark.parametrize("template", ['{{"n": {}, "edges": []}}',
                                          '{{"n": 4, "edges": [[1, 2, {}]]}}'])
    def test_integer_over_the_digit_limit_is_parse_error(self, template):
        with pytest.raises(ParseError) as raised:
            parse_document(template.format("7" * 5000))
        assert str(raised.value) == "integer literal over 4300 digits"

    @pytest.mark.parametrize("text, message", [
        ("[]", "top-level value must be an object"),
        ('{"n": 4.0, "edges": []}', "field 'n' must be an integer, got 4.0"),
        ('{"n": true, "edges": []}', "field 'n' must be an integer, got True"),
        ('{"n": 4, "edges": {}}', "field 'edges' must be an array"),
        ('{"n": 4, "edges": [], "ground_truth": {"bits": "0"}}',
         "ground_truth must contain 'bits' and 'coords'"),
        ('{"n": 4, "edges": [], "ground_truth": {"bits": 0, "coords": []}}',
         "ground_truth.bits must be a string"),
    ])
    def test_document_shape_errors(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_document(text)
        assert str(raised.value) == message

    def test_vertex_limit_is_inclusive(self):
        assert parse_document(f'{{"n": {MAX_VERTICES}, "edges": []}}')[0].n == MAX_VERTICES
        with pytest.raises(ParseError, match=f"vertex count {MAX_VERTICES + 1} exceeds the limit"):
            parse_document(f'{{"n": {MAX_VERTICES + 1}, "edges": []}}')


class TestCollectorPause:
    # a valid document, then one for each way a parse can fail part-way
    DOCUMENTS = {
        "valid": serialize_instance(*generate(9, 3, 1.0)),
        "bad JSON": '{"n": 4, "edges": [',
        "bad row": '{"n": 4, "edges": [[1, 2, 1.5], [1, "3", 2.5]]}',
        "bad coordinate": serialize_instance(*generate(5, 1, 0.0)).replace(
            "[0, 0, 0]", "[0, 1" + "0" * 400 + ", 0]"),
        "nested too deeply": "[" * 100_000,
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", list(DOCUMENTS))
    def test_parse_leaves_the_collector_as_it_found_it(self, name, enabled):
        if not enabled:
            gc.disable()
        try:
            if name == "valid":
                parse_document(self.DOCUMENTS[name])
            else:
                with pytest.raises(ParseError):
                    parse_document(self.DOCUMENTS[name])
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_parse_and_serialize_run_no_automatic_collection(self):
        text = serialize_instance(*generate(300, 1005, 0.5))
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            again = serialize_instance(*parse_document(text))
        finally:
            gc.callbacks.remove(count)
        assert generations == []
        assert again == text


class TestRoundTrip:
    @pytest.mark.parametrize("n,seed,p", [(4, 0, 0.0), (7, 42, 1.0), (9, 3, 0.5)])
    def test_serialize_parse_identity(self, n, seed, p):
        inst, gt = generate(n, seed, p)
        text = serialize_instance(inst, gt)
        inst2, gt2 = parse_document(text)
        assert inst2 == inst
        assert gt2.bits == gt.bits
        assert np.array_equal(gt2.conformation.points, gt.conformation.points)
        assert serialize_instance(inst2, gt2) == text

    def test_zero_edge_document(self):
        inst = DmdgpInstance(5, {})
        text = serialize_instance(inst)
        assert text == '{\n  "n": 5,\n  "edges": [\n  ]\n}\n'
        parsed = parse_document(text)[0]
        assert parsed.n == 5 and len(parsed.edges) == 0

    def test_weights_lossless(self):
        inst, _ = generate(8, 17, 0.7)
        inst2 = parse_document(serialize_instance(inst))[0]
        for key, w in inst.edges.items():
            assert inst2.edges[key] == w  # exact, not approximate

    def test_generate_is_deterministic(self):
        a = serialize_instance(*generate(7, 42, 1.0))
        b = serialize_instance(*generate(7, 42, 1.0))
        assert a == b


class TestValidate:
    def test_generated_instances_validate(self):
        for seed in range(5):
            inst, _ = generate(7, seed, 0.5)
            assert validate(inst).ok

    def test_missing_clique_edge(self):
        inst, _ = generate(7, 1, 0.0)
        edges = dict(inst.edges)
        del edges[(1, 4)]
        report = validate(DmdgpInstance(7, edges))
        assert not report.ok
        assert any(v.rule == "clique" and "i=4" in v.message for v in report.violations)

    def test_degenerate_triangle(self):
        edges = small_edges(4)
        edges[(1, 2)], edges[(2, 3)], edges[(1, 3)] = 2.0, 3.0, 5.0
        report = validate(DmdgpInstance(4, edges))
        assert not report.ok
        assert any(
            v.rule == "triangle" and "i=4" in v.message for v in report.violations
        )

    def test_third_side_shorter_than_the_difference(self):
        edges = small_edges(4)
        edges[(1, 2)], edges[(2, 3)], edges[(1, 3)] = 1.0, 5.0, 1.0
        report = validate(DmdgpInstance(4, edges))
        assert any(v.rule == "triangle" and "i=4" in v.message and v.where == (1, 2, 3)
                   for v in report.violations)

    def test_weight_over_ceiling(self):
        edges = small_edges(4)
        edges[(1, 4)] = 6.5
        report = validate(DmdgpInstance(4, edges))
        assert any(v.rule == "weight-ceiling" for v in report.violations)

    def test_report_consistency(self):
        inst, _ = generate(6, 2, 0.3)
        report = validate(inst)
        assert report.ok == (len(report.violations) == 0)


class TestGenerate:
    def test_ground_truth_penalty_tiny(self):
        for n, seed in [(4, 0), (7, 42), (12, 9)]:
            inst, gt = generate(n, seed, 0.8)
            assert penalty(gt.conformation, inst) < 1e-10

    def test_weight_window(self):
        for seed in range(8):
            inst, _ = generate(9, seed, 1.0)
            for _, _, d in inst.edge_list():
                assert MIN_PAIR_DISTANCE <= d <= MAX_DISTANCE

    def test_n4_has_exactly_clique_edges(self):
        inst, _ = generate(4, 123, 1.0)
        assert sorted(inst.edges) == clique_pairs(4)

    def test_p_zero_gives_clique_only(self):
        inst, _ = generate(7, 7, 0.0)
        assert sorted(inst.edges) == clique_pairs(7)

    def test_ground_bits_match_drawn_signs(self):
        ic, bits = random_internal_coords(9, 55)
        inst, gt = generate(9, 55, 0.4)
        assert gt.bits == bits
        ext = extract_internal(inst)
        assert np.allclose(ext.bonds, ic.bonds, atol=1e-9)
        assert np.allclose(ext.angles, ic.angles, atol=1e-9)
        assert np.allclose(ext.torsion_cosines, ic.torsion_cosines, atol=1e-9)

    def test_realizing_ground_bits_recovers_conformation(self):
        inst, gt = generate(8, 21, 0.6)
        conf = realize(extract_internal(inst), gt.bits)
        assert np.allclose(conf.points, gt.conformation.points, atol=1e-9)

    # SHA-256 of generated documents: a change to the draws, the distance
    # arithmetic or the edge order shows here
    @pytest.mark.parametrize("n, seed, p, digest", [
        (4, 0, 0.5, "8d602801d56ce1d48a72f3e4029b4ef4f96ef0cdb3663116fd2d7e73c4791bd9"),
        (9, 3, 1.0, "e641cb136bae66a78cb3660a6aa8b1909c658f2a3e04dff8dcf0b6c0c5193205"),
        (12, 405007, 0.5, "5962f5d8f2a8d1bce2bcfed14ee2a58148a2743f0a44d7e4e2b67449d1daa636"),
        (40, 7, 0.3, "dfd4263c9aa8e66bbe3df25eded9785b20aaf1aea7f77725df96ba4e6b11fefe"),
        (150, 11, 0.05, "b8a61457cad4e2f66658a71d2cb6f786e8b7a908ccc926cd1567f19cbeffc75d"),
        (300, 1005, 0.5, "b8825114a088aadac246fa427644344e238e903e2ba1181986437e9ba1c6a995"),
        (600, 2018, 0.5, "4c7ec7f8d19d34db81d639124100443a501526598f876a339cafdf37a6c3a263"),
    ])
    def test_documents_are_pinned(self, n, seed, p, digest):
        text = serialize_instance(*generate(n, seed, p))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # SHA-256 of the generated edge arrays u, v and d, in the generator's
    # order: a document sorts its edges, so only these pins catch a change
    # in that order (BP's per-level order, and so its penalty bits, follow it)
    @pytest.mark.parametrize("n, seed, p, digest", [
        (4, 0, 0.5, "687c257e0f9f1eee9cfc9444f3aafa35138ad1f777f1bf780d2291c2e989f63d"),
        (9, 3, 1.0, "dc321141bf39c4c45a10ca61a3423235a471b8b291f9c79b1c5ec3ec6e20e141"),
        (12, 405007, 0.5, "a77718e6fb73d6d2271f7b91fa8d347e2f38d44f5a1e6207c8678085c05dc70e"),
        (40, 7, 0.3, "63cfd40e27da6e0ca4d27a0079a3130971732681660cf0fe34f38669560b5b53"),
        (150, 11, 0.05, "a23e4c23b598db955daa5ae0b67b91be69f4c4b958e9b0ed979e81d5ed02be74"),
        (300, 1005, 0.5, "f60f8e367bba88264e37d3e4f3aca677444405363078d859de6f069fed17afec"),
        (600, 2018, 0.5, "1895f9cc48ac299c39fc3d5402c9d918d1dba3fc37b838eead3c2e223482b1bd"),
    ])
    def test_edge_arrays_are_pinned(self, n, seed, p, digest):
        inst, _ = generate(n, seed, p)
        arrays = (inst.u.astype("<i8"), inst.v.astype("<i8"), inst.d.astype("<f8"))
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("block", [1, 3, 7, 10**6])
    def test_pair_blocks_do_not_change_the_instance(self, monkeypatch, block):
        cases = [(5, 1, 1.0), (12, 405007, 0.5), (23, 8, 0.7), (40, 7, 0.3)]
        expected = [generate(*case) for case in cases]
        monkeypatch.setattr(instance, "_PAIR_BLOCK", block)
        for case, (inst, gt) in zip(cases, expected):
            got, got_gt = generate(*case)
            assert list(got.edges.items()) == list(inst.edges.items())
            assert serialize_instance(got, got_gt) == serialize_instance(inst, gt)

    def test_generation_memory_is_bounded_by_the_pair_block(self):
        tracemalloc.start()
        try:
            generate(2000, 1, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    @pytest.mark.parametrize("n", [4, 5, 9, 40, 303])
    def test_internal_draws_are_per_draw_uniforms(self, n):
        # the bonds and angles come from one block of coins each; bit for
        # bit the reference's rng.uniform calls, with the rng left in step
        for seed in range(6):
            reference_rng = random.Random(seed)
            expected, expected_bits = reference.draw_internal(n, reference_rng)
            internal, bits = random_internal_coords(n, seed)
            assert bits == expected_bits
            for got, want in zip(vars(internal).values(), vars(expected).values()):
                assert got.tobytes() == want.tobytes()
            rng = random.Random(seed)
            instance._draw_internal(n, rng)
            assert rng.getstate() == reference_rng.getstate()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate(3, 0, 0.5)
        with pytest.raises(ValueError):
            generate(5, 0, 1.5)


class TestGenerateFromTopology:
    def test_demo_topology_has_16_edges(self):
        assert len(demo7_edges()) == 16
        inst, gt = demo7_instance()
        assert len(inst.edges) == 16
        assert gt.bits == "0101"
        assert validate(inst).ok

    def test_only_listed_edges_emitted(self):
        inst, _ = generate_from_topology(demo7_edges(), "0000", seed=1)
        assert sorted(inst.edges) == sorted(demo7_edges())

    def test_missing_clique_pair_rejected(self):
        edges = [e for e in demo7_edges() if e != (2, 5)]
        with pytest.raises(ValueError, match="missing clique"):
            generate_from_topology(edges, "0101", seed=1)

    def test_ground_truth_consistent(self):
        inst, gt = generate_from_topology(demo7_edges(), "1100", seed=9)
        assert penalty(gt.conformation, inst) < 1e-10
        assert validate(inst).ok
