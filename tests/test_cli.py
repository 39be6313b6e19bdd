import dataclasses
import hashlib
import json
import math
import re
import struct
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdgp import (
    DmdgpInstance,
    branch_and_prune,
    data_file,
    demo7_instance,
    expand_symmetry,
    extract_internal,
    generate,
    serialize_instance,
    symmetry_set,
)
from dmdgp import bp, cli, instance
from dmdgp.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    GROVER_MAX_ITERS,
    _parse_iters,
    _sci3,
    histogram_text,
    load_distribution_csv,
    main,
    render_run_report,
    run_search,
    save_distribution_csv,
    solution_table,
)
from dmdgp.bitstrings import _bit_digits, all_bits, int_to_bits
from dmdgp.grover import Distribution, iteration_count
from dmdgp.instance import ParseError


@pytest.fixture()
def demo_path(tmp_path):
    inst, gt = demo7_instance()
    path = tmp_path / "demo.json"
    path.write_text(serialize_instance(inst, gt), encoding="utf-8")
    return str(path)


@pytest.fixture()
def n30_path(tmp_path):
    path = tmp_path / "n30.json"
    inst, gt = generate(30, 1, 0.5)
    path.write_text(serialize_instance(inst, gt), encoding="utf-8")
    return str(path)


class TestGen:
    def test_gen_then_solve(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(["gen", "--n", "7", "--seed", "42", "--long-edge-prob",
                     "1.0", "--out", str(out)])
        assert code == EXIT_OK
        assert main(["solve", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "solutions found" in text

    def test_gen_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--n", "6", "--seed", "3", "--long-edge-prob",
                         "0.5", "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_n_below_four_is_usage_error(self, tmp_path):
        code = main(["gen", "--n", "3", "--seed", "0", "--out",
                     str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_edge_probability_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--n", "5", "--long-edge-prob", "1.5", "--out",
                     str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "dmdgp: error: long_edge_prob must be in [0, 1], got 1.5\n"
        )

    def test_unwritable_path_is_io_error(self, tmp_path):
        code = main(["gen", "--n", "5", "--seed", "0", "--out",
                     str(tmp_path / "missing" / "x.json")])
        assert code == EXIT_IO

    def test_n_above_the_vertex_limit_is_usage_error_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        # drawing 10^20 torsions would not end; the limit is checked first
        def no_draw(n, rng):
            raise AssertionError("drew internal coordinates")

        monkeypatch.setattr(instance, "_draw_internal", no_draw)
        n = 10**20
        message = f"vertex count {n} exceeds the limit of {instance.MAX_VERTICES}"
        assert main(["gen", "--n", str(n), "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"dmdgp: error: {message}"]
        with pytest.raises(ValueError, match=re.escape(message)):
            instance.random_internal_coords(n, 0)


class TestSolve:
    def test_demo_instance(self, demo_path, capsys):
        assert main(["solve", demo_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "S = {4, 7}" in out
        assert "2^|S| = 4" in out
        for bits in ("0100", "0101", "1010", "1011"):
            assert f"bits={bits}" in out

    def test_inconsistent_instance_exits_one(self, tmp_path, capsys):
        inst, gt = demo7_instance()
        edges = dict(inst.edges)
        edges[(1, 6)] = edges[(1, 6)] + 1.0
        from dmdgp import DmdgpInstance

        path = tmp_path / "broken.json"
        path.write_text(serialize_instance(DmdgpInstance(7, edges)), encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_NO_SOLUTION
        assert "no solution" in capsys.readouterr().out

    def test_clique_only_n6(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        main(["gen", "--n", "6", "--seed", "2", "--long-edge-prob", "0.0",
              "--out", str(out)])
        assert main(["solve", str(out)]) == EXIT_OK
        assert "solutions found: 8" in capsys.readouterr().out

    def test_missing_file_is_io_error(self):
        assert main(["solve", "/nonexistent/inst.json"]) == EXIT_IO

    def test_tol_is_unknown_option(self, demo_path, capsys):
        assert main(["solve", demo_path, "--tol", "0"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "dmdgp: error: unrecognized arguments: --tol 0"

    def test_malformed_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_DATA

    @pytest.mark.parametrize("mode, digest", [
        ("all", "5ef4a38a6d4adb2685fd85272bdb28e375319765b88907af2298ab92f405ba53"),
        ("first", "acff1a6975bfeff61932108d8c02bf2f4829f59f43878b916a6cc79c1317a556"),
    ])
    def test_deep_chain_solve_output_is_pinned(self, tmp_path, capsys, mode, digest):
        # 297 sign levels and |S| = 1: indices far past 63 bits
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "300", "--seed", "1", "--long-edge-prob", "0.5",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", path, "--mode", mode]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_sparse_chain_first_solve_output_is_pinned(self, tmp_path, capsys):
        # 97 sign levels pruned by few long edges: mode "first" backs out of
        # dead subtrees, a block of rows at a time
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "100", "--seed", "2", "--long-edge-prob", "0.03",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", path, "--mode", "first"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "d14c268fa54ea977bab1463c389c3840b38661c9e0c43b8f5c8052fb75fc83c4")

    @pytest.mark.parametrize("n, digest", [
        (66, "130cc8a889713764caef13a54cf3e458854e7f42d7a7579cca81d94ef29e8642"),
        (67, "def0f37cf21a9ea478c07dfea2b5f0a45307c4c09ba1c1cf84edd67dd0673ec5"),
    ])
    def test_int64_boundary_solve_output_is_pinned(self, tmp_path, capsys, n, digest):
        # 63 sign bits, the widest int64 index, and 64, the narrowest Python-int
        # one; at 64 one solution index lies below 2^63 and its mirror above
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", str(n), "--seed", "1", "--long-edge-prob", "0.5",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", path, "--mode", "all"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestGrover:
    def test_demo_auto(self, demo_path, capsys):
        assert main(["grover", demo_path, "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=2^4=16" in out
        assert "marked M = 4" in out
        assert "closed form=1.000000000" in out

    def test_near_solutions_are_not_marked(self, tmp_path, capsys):
        # 404 and 619 have penalty 2.3e-5: below the old delta, not solutions
        inst, gt = generate(13, 41003, 0.5)
        path = tmp_path / "near.json"
        path.write_text(serialize_instance(inst, gt), encoding="utf-8")
        assert main(["grover", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "marked M = 2" in lines[1]
        marked = {int(m) for m in re.findall(r"\((\d+)\)", lines[2])}
        internal = extract_internal(inst)
        first = branch_and_prune(inst, internal, mode="first").entries[0].bits
        expanded = {int(b, 2) for b in expand_symmetry(first, symmetry_set(inst))}
        assert marked == expanded == {427, 596}

    def test_zero_iterations_is_uniform(self, demo_path, capsys):
        assert main(["grover", demo_path, "--iters", "0", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.062500" in out  # 1/16 in the ideal column

    def test_sampled_marked_frequency_close_to_closed_form(self, demo_path, capsys):
        assert main(["grover", demo_path, "--shots", "8196", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if "empirical marked frequency" in ln)
        freq = float(line.rsplit("=", 1)[1])
        # binomial 3 sigma at p = 1.0 collapses; demo closed form is exactly 1
        assert freq == pytest.approx(1.0, abs=3e-2)

    def test_svg_output(self, demo_path, tmp_path, capsys):
        svg = tmp_path / "hist.svg"
        assert main(["grover", demo_path, "--svg", str(svg), "--seed", "3"]) == EXIT_OK
        root = ET.fromstring(svg.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) > 16  # one bar per outcome per series plus chrome

    def test_noise_flag(self, demo_path, capsys):
        assert main(["grover", demo_path, "--noise", "0.5", "--seed", "2"]) == EXIT_OK
        assert "lambda=0.5" in capsys.readouterr().out

    def test_bad_iters_usage_error(self, demo_path):
        assert main(["grover", demo_path, "--iters", "-2"]) == EXIT_USAGE
        assert main(["grover", demo_path, "--iters", "lots"]) == EXIT_USAGE

    def test_iters_above_the_limit_is_usage_error_before_loading(
            self, demo_path, monkeypatch, capsys):
        # 10^20 two-amplitude iterations would not end; the limit is checked first
        def no_load(path):
            raise AssertionError("loaded the instance")

        monkeypatch.setattr(cli, "_load_instance", no_load)
        assert main(["grover", demo_path, "--iters", str(10**20)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["dmdgp: error: --iters must be at most 4194304"]
        assert _parse_iters("4194304") == GROVER_MAX_ITERS == 4194304

    @pytest.mark.parametrize("flags, message", [
        (["--noise", "1.5"], "--noise must lie in [0, 1]"),
        (["--shots", "0"], "--shots must be positive"),
        (["--shots", str(10**20)], "--shots must be below 2^63"),
        (["--seed", "-1"], "--seed must be nonnegative"),
    ])
    def test_bad_noise_or_shots_is_usage_error(self, demo_path, capsys, flags, message):
        assert main(["grover", demo_path, *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"dmdgp: error: {message}"]

    @pytest.mark.parametrize("flags, golden", [
        (["--seed", "5"], "grover_demo7_seed5.txt"),
        (["--noise", "0.3", "--seed", "3"], "grover_demo7_noise0.3_seed3.txt"),
    ])
    def test_demo_output_is_golden(self, demo_path, capsys, flags, golden):
        assert main(["grover", demo_path, *flags]) == EXIT_OK
        expected = (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    # SHA-256 of the stdout; its two N-row tables are most of its 31-130 KB
    @pytest.mark.parametrize("n, seed, flags, digest", [
        (12, 1, ["--seed", "5"],
         "d171ba0a2ab0e2cfb2f3afd96414f504b67567d7d9b70f89d623f89781089e2c"),
        (12, 1, ["--noise", "0.3", "--seed", "5"],
         "da251c279a08517d91a292869a38e837922c0704307d5a225ea8874d231fd94c"),
        (13, 2, ["--seed", "5"],
         "ac5b8f79ec2dc8285829c83f3e731c02ee6f39d14ff63848868b0b7c7c68b805"),
        (13, 2, ["--noise", "0.3", "--seed", "5"],
         "9a58d3e53c800bed6061b12c42b7c31dae3c4c3ba1b8bc083efdc2a270577616"),
        (14, 3, ["--seed", "5"],
         "458e0ebbb154cc6c71957c8825708ece7a74e2cd6cf208bd174716fd16eb9cbb"),
        (14, 3, ["--noise", "0.3", "--seed", "5"],
         "daac97ee5cd32df87006c42f7026c4d58ffad20aca794f74bd562d35c340dc20"),
    ])
    def test_generated_output_is_pinned(self, tmp_path, capsys, n, seed, flags, digest):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(*generate(n, seed, 0.5)), encoding="utf-8")
        assert main(["grover", str(path), *flags]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # N = 2^14, M = 2, k = 71: sixteen times the outcomes of the n = 13 pins
    @pytest.mark.parametrize("flags, digest", [
        (["--seed", "5"],
         "95c881af376ccc112d7802d67d0b3f2d8d245bd1e4bd073943bd0461c14d45d7"),
        (["--noise", "0.3", "--seed", "5"],
         "bfd5723fb918d2a5aeea22d70e1428c1bc4d4cbea7b34ff985716bcfe471dbd4"),
    ])
    def test_n17_output_is_pinned(self, tmp_path, capsys, flags, digest):
        path = str(tmp_path / "n17.json")
        assert main(["gen", "--n", "17", "--seed", "2", "--long-edge-prob", "0.5",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["grover", path, *flags]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_generated_svg_is_pinned(self, tmp_path, capsys):
        path, svg = tmp_path / "inst.json", tmp_path / "hist.svg"
        path.write_text(serialize_instance(*generate(13, 2, 0.5)), encoding="utf-8")
        assert main(["grover", str(path), "--seed", "5", "--svg", str(svg)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(f"wrote histogram to {svg}\n")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "9d5018921c8b744d15ea4ec4e06a044cf6787bd69f7ee2fabd37045e96f722bd")

    def test_generated_solve_output_is_pinned(self, tmp_path, capsys):
        # clique-only n = 13: all 1024 leaves are solutions, two levels above the blocks
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "13", "--seed", "2", "--long-edge-prob", "0.0",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", path, "--mode", "all"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "a12ddf2df8c15ce33746444c16c7ef48d1700572e3735f4905b18bb70505df48")

    def test_generated_n15_solve_output_is_pinned(self, tmp_path, capsys):
        # clique-only n = 15: 4096 rows, half of them mirror rows
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "15", "--seed", "3", "--long-edge-prob", "0.0",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", path, "--mode", "all"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "d568e71c67eb2b8aae6123237a07fb8a0c9c2e38ea5557d775910fbce719d6ed")

    def test_run_search_rejects_negative_noise(self):
        inst, _ = demo7_instance()
        with pytest.raises(ValueError, match="mixing weight"):
            run_search(inst, None, "nearest", 100, 0, -0.25)

    def test_over_scan_cap_is_data_error(self, n30_path, capsys):
        assert main(["grover", n30_path]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "dmdgp: error: search space 134217728 exceeds scan cap 16777216"
        ]

    def test_over_outcome_limit_is_data_error_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch):
        # n = 26: N = 2^23 is under the scan cap and over grover's own limit
        path = tmp_path / "n26.json"
        path.write_text(serialize_instance(*generate(26, 1, 0.5)), encoding="utf-8")

        def no_search(*args, **kwargs):
            raise AssertionError("branch_and_prune ran above the outcome limit")

        monkeypatch.setattr(bp, "branch_and_prune", no_search)
        tracemalloc.start()
        try:
            code = main(["grover", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert peak < (1 << 23)  # one byte per outcome; an N-length float array is 64 MiB
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "dmdgp: error: search space 8388608 exceeds grover's limit of 4194304 "
            "outcomes (~2517 MB of memory and ~671 MB of stdout)"
        ]

    def test_inconsistent_instance_exits_one(self, tmp_path, capsys):
        # the broken demo of TestSolve: no candidate meets the raised d(1,6)
        inst, _ = demo7_instance()
        edges = dict(inst.edges)
        edges[(1, 6)] = edges[(1, 6)] + 1.0
        path = tmp_path / "broken.json"
        path.write_text(serialize_instance(DmdgpInstance(7, edges)), encoding="utf-8")
        assert main(["grover", str(path)]) == EXIT_NO_SOLUTION
        out, err = capsys.readouterr()
        assert out == "oracle marks no candidate (inconsistent instance)\n"
        assert err == ""

    def test_every_candidate_marked_is_data_error(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        assert main(["gen", "--n", "6", "--seed", "2", "--long-edge-prob", "0",
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["grover", path]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "dmdgp: error: oracle marks all 8 candidates: nothing to amplify"
        ]


@pytest.mark.parametrize("width", [1, 2, 3, 8, 10, 13])
def test_outcome_labels_equal_per_index_formatting(width):
    assert all_bits(width) == [int_to_bits(k, width) for k in range(1 << width)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 63).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=20))))
@example((63, [0, 1, (1 << 63) - 1]))
@example((8, [255, 0, 128]))
def test_labels_of_an_index_sequence_equal_per_index_formatting(case):
    # `solve` writes its bits column from BP's index tuple as int64
    width, index = case
    out = np.zeros((len(index), width), dtype=np.uint8)
    _bit_digits(np.array(index, dtype=np.int64), width, out)
    assert [row.tobytes().decode("ascii") for row in out] == [int_to_bits(k, width) for k in index]


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


float_bit_patterns = st.integers(0, (1 << 64) - 1).map(_float_of_bits)


def sci3_text(values):
    out = np.zeros((len(values), 11), dtype=np.uint8)
    _sci3(np.array(values, dtype=float), out)
    return [row[row != 0].tobytes().decode("ascii") for row in out]


@settings(max_examples=300, deadline=None)
@given(st.lists(float_bit_patterns | st.floats(), min_size=1, max_size=40))
@example([0.0])
@example([-0.0])
@example([5e-324])
@example([1.0625])  # an exact tie: 1062.5 rounds to even
@example([1.0005e-25])  # just above a tie in binary, though s computes as 1000.5
@example([9.9996e-28])  # rounds up to 1.000e-27
@example([1e-100])  # a three-digit exponent
@example([1e22])
@example([1e23])
@example([math.inf])
@example([math.nan])
@example([1e-30, 0.0, 3.175e-23, -math.inf, 9.9995e-6, 1e-306, 1.7976931348623157e308])
def test_sci3_equals_format(values):
    assert sci3_text(values) == [format(v, ".3e") for v in values]


@st.composite
def solution_rows(draw):
    """(width, ascending index tuple, penalties) of a `solve` table."""
    width = draw(st.integers(1, 70))
    index = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=30))
    penalties = draw(st.lists(float_bit_patterns | st.floats(0.0, 1e-8),
                              min_size=len(index), max_size=len(index)))
    return width, tuple(sorted(index)), penalties


@settings(max_examples=300, deadline=None)
@given(solution_rows())
@example((1, (0, 1), [0.0, 1e-30]))
@example((63, (0, 9, 10, (1 << 63) - 1), [1e-22, 2e-23, -0.0, math.nan]))
@example((64, (5, (1 << 63) - 1, 1 << 63, (1 << 64) - 1), [1.0625, 9.9996e-28, 1e-100, 5e-324]))
@example((70, (1 << 69,), [math.inf]))
def test_solution_table_equals_per_row_formatting(case):
    width, index, penalties = case
    expected = "".join("  bits={}  index={}  penalty={:.3e}\n".format(int_to_bits(k, width), k, p)
                       for k, p in zip(index, penalties))
    assert solution_table(width, index, np.array(penalties, dtype=float)) == expected


# Few distinct values, as the two N-row tables hold, with -0.0 next to 0.0:
# the two compare equal but print differently, so rows grouped by float
# equality rather than by bit pattern would print one of them wrongly.
TIES = [0.0, -0.0, 1e-7, 0.25, 1 / 3, 0.5, 0.5000001, 1.0]
# values down to the smallest subnormal: a peak below ~40 / DBL_MAX
# overflows the bar scale 40 / peak
tied_values = st.lists(st.sampled_from(TIES) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)
                       | st.floats(5e-324, 1e-300), max_size=40)


def reference_histogram(labels, values, width=40):
    """histogram_text as one str.format per row."""
    peak = float(values.max()) if len(values) else 1.0
    scale = width / peak if peak > 0 else 0.0

    def bar(v):
        return "#" * max(round(v * scale if scale < math.inf else max(v, 0) / peak * width), 0)

    return "\n".join("  {}  {:9.6f}  {}".format(label, v, bar(v))
                     for label, v in zip(labels, values.tolist()))


@settings(max_examples=200, deadline=None)
@given(tied_values)
@example([])
@example([0.0])
@example([0.0, 0.0, 0.0, 0.0])
@example([0.0, -0.0, 0.0, 0.5, -0.0, 0.5])
@example([-0.0, 0.0])
@example([-1.0, 5e-324])
def test_histogram_text_equals_per_row_formatting(values):
    values = np.array(values, dtype=float)
    labels = [f"k{k}" for k in range(values.size)]
    assert histogram_text(labels, values) == reference_histogram(labels, values)


@pytest.mark.parametrize("values, bars", [
    ([2.2e-311], [40]),
    ([0.0, 2.2e-311, -0.0], [0, 40, 0]),
    ([5e-324], [40]),
    ([1e-310, 5e-311, 2.5e-311, 0.0], [40, 20, 10, 0]),
])
def test_histogram_text_scales_subnormal_peaks(values, bars):
    # 40 / peak is inf here; the bars still measure each value's share of the peak
    rows = histogram_text([f"k{k}" for k in range(len(values))], np.array(values)).split("\n")
    assert [len(row) - len(row.rstrip("#")) for row in rows] == bars


@st.composite
def report_columns(draw):
    """(width, marked, sampled column, ideal weights) for a 2^width-row table."""
    width = draw(st.integers(1, 5))
    N = 1 << width
    marked = draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=N - 1))
    column = st.lists(st.sampled_from(TIES) | st.floats(0.0, 1.0), min_size=N, max_size=N)
    weights = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=N, max_size=N)
                   .filter(any))
    return width, sorted(marked), draw(column), weights


def test_solve_and_search_never_assemble_points(demo_path, monkeypatch, capsys):
    made = []

    def recorded(*args, **kwargs):
        made.append(branch_and_prune(*args, **kwargs))
        return made[-1]

    branch_and_prune = bp.branch_and_prune
    monkeypatch.setattr(bp, "branch_and_prune", recorded)
    assert main(["solve", demo_path]) == EXIT_OK
    run_search(demo7_instance()[0], None, "nearest", 100, 0, 0.0)
    assert len(made) == 2
    assert all("points" not in vars(sols) for sols in made)


@settings(max_examples=100, deadline=None)
@given(report_columns())
@example((2, [1], [0.0, -0.0, 0.5, -0.0], [1, 1, 1, 1]))
@example((2, [0, 3], [-0.0, 0.0, 0.0, 1.0], [3, 0, 0, 3]))
def test_report_rows_equal_per_row_formatting(columns):
    width, marked, sampled, weights = columns
    N = 1 << width
    base = run_search(demo7_instance()[0], None, "nearest", 100, 0, 0.0)
    report = dataclasses.replace(
        base, n=width + 3, N=N, marked=tuple(marked),
        plan=iteration_count(N, len(marked)),
        ideal=Distribution(np.array(weights) / sum(weights)))
    labels, freqs = all_bits(width), np.array(sampled, dtype=float)
    ideal = report.ideal.probabilities.tolist()
    expected = ["  {}  {:9.6f}  {:9.6f}{}".format(labels[k], freqs[k], ideal[k],
                                                  " *" if k in marked else "")
                for k in range(N)]
    lines = render_run_report(report, labels, freqs).split("\n")
    head = lines.index("outcome     sampled      ideal") + 1
    assert lines[head:head + N] == expected
    assert lines[head + N].startswith("sampled vs ideal: ")


class TestUnrealizableInstance:
    """Valid by `validate`, but d(1,4) = 5.9 exceeds the 4.5 that three
    bonds of 1.5 span, so its torsion cosine lies outside [-1, 1]."""

    @pytest.mark.parametrize("command", ["solve", "grover", "oracle-scan"])
    def test_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "unrealizable.json"
        path.write_text(json.dumps({"n": 4, "edges": [
            [1, 2, 1.5], [1, 3, 2.5], [1, 4, 5.9], [2, 3, 1.5], [2, 4, 1.5], [3, 4, 1.5],
        ]}), encoding="utf-8")
        assert main([command, str(path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dmdgp: error: {path}: torsion cosine outside [-1, 1]: inconsistent distances"
        ]


class TestInvalidDocument:
    # latin-1 bytes that are not UTF-8, brackets nested past Python's
    # recursion limit, and a weight with more digits than int() reads
    NOT_DOCUMENTS = {
        "latin1.json": '{"n": 4, "edges": [], "note": "\u00e9"}'.encode("latin-1"),
        "latin1.csv": "outcome,probability\n0,0.5\n1,0.5 \u00e9\n".encode("latin-1"),
        "nested.json": b"[" * 100_000,
        "long.json": b'{"n": 4, "edges": [[1, 2, ' + b"9" * 5000 + b"]]}",
    }

    @pytest.mark.parametrize("command, name", [
        ("solve", "latin1.json"), ("grover", "latin1.json"), ("oracle-scan", "latin1.json"),
        ("metrics", "latin1.csv"),
        ("solve", "nested.json"), ("grover", "nested.json"), ("oracle-scan", "nested.json"),
        ("solve", "long.json"), ("grover", "long.json"), ("oracle-scan", "long.json"),
    ])
    def test_text_that_is_no_document_is_one_line_data_error(self, tmp_path, capsys,
                                                             command, name):
        path = tmp_path / name
        path.write_bytes(self.NOT_DOCUMENTS[name])
        assert main([command, str(path)] + [str(path)] * (command == "metrics")) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"dmdgp: error: {path}: ")

    @pytest.mark.parametrize("coordinate", ["x", [1], None, pytest.param(10**400, id="10**400"),
                                            float("nan"), float("inf"), float("-inf")])
    def test_coordinate_of_the_wrong_type_is_data_error(self, tmp_path, capsys, coordinate):
        doc = json.loads(serialize_instance(*demo7_instance()))
        doc["ground_truth"]["coords"][2][1] = coordinate
        path = tmp_path / "coords.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dmdgp: error: {path}: ground_truth.coords must be an array of 7 [x, y, z] "
            "rows of numbers"
        ]

    @pytest.mark.parametrize("command", ["grover", "oracle-scan"])
    def test_coordinate_that_is_no_finite_double_is_data_error(self, tmp_path, capsys, command):
        for k, coordinate in enumerate([10**400, float("nan"), float("inf"), float("-inf")]):
            doc = json.loads(serialize_instance(*demo7_instance()))
            doc["ground_truth"]["coords"][2][1] = coordinate
            path = tmp_path / f"coords{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main([command, str(path)]) == EXIT_DATA
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [
                f"dmdgp: error: {path}: ground_truth.coords must be an array of 7 [x, y, z] "
                "rows of numbers"
            ]

    def test_violation_listing_is_capped(self, tmp_path, capsys):
        # every one of the 199997 cliques is incomplete
        path = tmp_path / "empty.json"
        path.write_text('{"n": 200000, "edges": []}', encoding="utf-8")
        start = time.perf_counter()
        assert main(["solve", str(path)]) == EXIT_DATA
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 12
        assert lines[0] == f"dmdgp: error: {path}: instance fails validation:"
        assert lines[1] == ("  clique: clique i=4 incomplete: missing "
                            "{1,2}, {1,3}, {1,4}, {2,3}, {2,4}, {3,4}")
        assert lines[-1] == "  ... and 199987 more"

    @pytest.mark.parametrize("command", ["solve", "grover", "oracle-scan"])
    def test_huge_vertex_count_is_one_line(self, tmp_path, capsys, command):
        # validate would ask for a (4, n) table of 29 TiB
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**12, "edges": [[1, 2, 1.5], [1, 3, 2.5], [2, 3, 1.5]]}),
                        encoding="utf-8")
        assert main([command, str(path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dmdgp: error: {path}: vertex count 1000000000000 exceeds the limit of 1048576"
        ]

    def test_short_violation_listing_is_whole(self, tmp_path, capsys):
        inst, _ = demo7_instance()
        edges = dict(inst.edges)
        edges[(1, 6)] = 6.5
        path = tmp_path / "ceiling.json"
        path.write_text(serialize_instance(DmdgpInstance(7, edges)), encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"dmdgp: error: {path}: instance fails validation:",
            "  weight-ceiling: weight 6.5 on {1,6} exceeds 6.0 A",
        ]


class TestMetrics:
    def test_published_pair(self, capsys):
        a = str(data_file("santiago_std_1call.csv"))
        b = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", a, b, "--marked", "010"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fidelity_tv          0.856000" in out
        assert "selectivity          9.200000" in out

    def test_marked_accepts_decimal_index(self, capsys):
        a = str(data_file("santiago_std_1call.csv"))
        b = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", a, b, "--marked", "2"]) == EXIT_OK
        assert "selectivity          9.200000" in capsys.readouterr().out

    def test_file_vs_itself(self, capsys):
        a = str(data_file("lagos_impr_2call.csv"))
        assert main(["metrics", a, a]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tv_distance          0.000000" in out
        assert "hellinger            0.000000" in out

    def test_csv_output(self, capsys):
        a = str(data_file("santiago_std_1call.csv"))
        b = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", a, b, "--csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("metric,value")
        assert "tv_distance,0.14" in out

    def test_marked_listing_every_outcome_is_usage_error(self, capsys):
        a = str(data_file("santiago_std_1call.csv"))
        b = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", a, b, "--marked", "0,1,2,3,4,5,6,7"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "dmdgp: error: marked set must be a proper subset of the outcomes"
        ]

    @pytest.mark.parametrize("marked, message", [
        ("9", "marked indices must lie in 0..7"),
        ("-1", "marked indices must lie in 0..7"),
        ("12345678901234567890123", "marked indices must lie in 0..7"),
        (",", "marked set must not be empty"),
        ("", "marked set must not be empty"),
        ("abc", "bad marked outcome 'abc'"),
    ])
    def test_bad_marked_set_is_usage_error(self, capsys, marked, message):
        a = str(data_file("santiago_std_1call.csv"))
        b = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", a, b, "--marked", marked]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"dmdgp: error: {message}"]

    def test_distributions_of_different_sizes_are_data_error(self, tmp_path, capsys):
        paths = []
        for size in (2, 4):
            path = tmp_path / f"uniform{size}.csv"
            path.write_text(save_distribution_csv(np.full(size, 1 / size)), encoding="utf-8")
            paths.append(str(path))
        assert main(["metrics", *paths]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["dmdgp: error: distribution sizes differ: 2 vs 4"]

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("outcome,probability\n000,0.5\n00x,0.5\n", encoding="utf-8")
        good = str(data_file("simulator_std_1call.csv"))
        assert main(["metrics", str(bad), good]) == EXIT_DATA
        assert "row 3" in capsys.readouterr().err


class TestOracleScan:
    def test_demo_scan(self, demo_path, capsys):
        assert main(["oracle-scan", demo_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "marked: 4 of 16" in out
        # normalized column stays in [0, 1]
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0].isdigit():
                assert 0.0 <= float(parts[3]) <= 1.0

    def test_hypothesis_violation_is_usage_error(self, demo_path):
        assert main(["oracle-scan", demo_path, "--delta", "0.6",
                     "--epsilon", "0.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "nan"], "dmdgp: error: delta must be positive, got nan"),
        (["--epsilon", "1e-17"],
         "dmdgp: error: epsilon must lie in (0, 1) with 1 - epsilon < 1 in float64, got 1e-17"),
        (["--delta", "1e-320"],
         "dmdgp: error: delta = 1e-320 is too small: delta / p1 underflows to 0 at n = 7"),
    ])
    def test_bad_threshold_is_usage_error(self, demo_path, capsys, flags, message):
        assert main(["oracle-scan", demo_path, *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [message]

    # SHA-256 of the stdout: every candidate's penalty, normalized value and bit
    @pytest.mark.parametrize("flags, digest", [
        ([], "c4d844911c497a26cc558d857b6ff74af5a6bfa0f848cd8532ec6c4fc6b399ae"),
        (["--delta", "1e-4", "--epsilon", "0.9"],
         "7bc2538dd7e88af8118bf6d6534feff1e58a0d81d71b48e1e40a7b5f77f14c4f"),
    ])
    def test_demo_output_is_pinned(self, capsys, flags, digest):
        assert main(["oracle-scan", str(data_file("demo7.json")), *flags]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, seed, p, digest", [
        (10, 1, "0", "44caff94cdd4d9274f82af6ef030152118442485f64ac7618fb740b4dbbbf3ed"),
        (10, 1, "0.5", "8168d03f9493eda062ed62abb4b581a0ed6273cd9b48d761f77395e3913abaed"),
        (10, 1, "1", "7c3f9fad237937d8c34dc14e0c9fdf36b1810dd26cca2d5df8161e6604616c0c"),
        (14, 2, "0.5", "9ea949d0bcc7bf11b25d26c94284d704c36a1ceade9ae43df43d2892ce25e10e"),
    ])
    def test_generated_output_is_pinned(self, tmp_path, capsys, n, seed, p, digest):
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", str(n), "--seed", str(seed), "--long-edge-prob", p,
                     "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["oracle-scan", path]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_over_scan_cap_prints_no_rows(self, n30_path, capsys):
        assert main(["oracle-scan", n30_path]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "dmdgp: error: search space 134217728 exceeds scan cap 16777216"
        ]


class TestDistributionCsv:
    def test_round_trip(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        text = save_distribution_csv(probs)
        assert np.array_equal(load_distribution_csv(text), probs)

    def test_bundled_files_parse(self):
        for name in ("santiago_std_1call", "simulator_impr_2call", "bogota_std_2call"):
            probs = load_distribution_csv(
                data_file(f"{name}.csv").read_text(encoding="utf-8")
            )
            assert probs.shape == (8,)
            assert abs(probs.sum() - 1.0) < 0.01  # printed values are rounded

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            load_distribution_csv("a,b\n000,0.5\n")

    def test_duplicate_outcome(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_distribution_csv("outcome,probability\n0,0.5\n0,0.5\n")

    def test_missing_outcomes(self):
        with pytest.raises(ParseError, match="missing"):
            load_distribution_csv("outcome,probability\n00,0.5\n01,0.5\n")

    def test_missing_outcomes_message_is_bounded(self, tmp_path, capsys):
        # 2^64 outcomes, one of them present: the message counts the rest
        path = tmp_path / "wide.csv"
        path.write_text(f"outcome,probability\n{'0' * 64},1\n", encoding="utf-8")
        assert main(["metrics", str(path), str(path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dmdgp: error: {path}: missing {2**64 - 1} of {2**64} outcomes, first "
            + ", ".join(int_to_bits(k, 64) for k in (1, 2, 3))
        ]

    def test_unknown_flag_is_usage_error(self):
        assert main(["solve", "--frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestBundledDemoInstance:
    def test_file_matches_regeneration(self):
        # the shipped file is the frozen output of demo7_instance()
        inst, gt = demo7_instance()
        bundled = data_file("demo7.json").read_text(encoding="utf-8")
        assert bundled == serialize_instance(inst, gt)

    def test_file_solves_directly(self, capsys):
        assert main(["solve", str(data_file("demo7.json"))]) == EXIT_OK
        assert "solutions found: 4" in capsys.readouterr().out
