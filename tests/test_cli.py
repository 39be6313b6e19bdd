import contextlib
import dataclasses
import hashlib
import io
import math
import re
import struct
import sys
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
    generate_from_topology,
    parse_document,
    serialize_instance,
    symmetry_set,
)
from dmdgp import bp, cli, instance
from dmdgp.cli import (
    EXIT_DATA,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    GROVER_MAX_ITERS,
    _distinct,
    _parse_iters,
    _sci3,
    histogram_svg,
    histogram_text,
    load_distribution_csv,
    main,
    render_run_report,
    run_search,
    save_distribution_csv,
    solution_table,
)
from dmdgp.bitstrings import _bit_digits, bitstrings, int_to_bits
from dmdgp.grover import Distribution, iteration_count
from dmdgp.instance import ParseError, clique_pairs

import test_cli_contract as contract
from test_cli_contract import in_process_dir  # noqa: F401  (a fixture of the moved tests)


@pytest.fixture()
def demo_path(tmp_path):
    inst, gt = demo7_instance()
    path = tmp_path / "demo.json"
    path.write_text(serialize_instance(inst, gt), encoding="utf-8")
    return str(path)


# Tests whose argv, inputs and expected exit code, stderr and output are now
# rows of the contract table (tests/test_cli_contract.py), under the node ids
# they had here: class, test, then parameter id.  Each id still runs: it
# checks its rows in-process, in this module's own runner directory.
MOVED = {
    "TestSolve": {
        "test_missing_file_is_io_error": "solve-missing-file",
        "test_tol_is_unknown_option": "solve-tol",
        "test_sparse_chain_first_solve_output_is_pinned": "solve-sparse100-first",
    },
    "TestInvalidDocument": {
        "test_text_that_is_no_document_is_one_line_data_error": {
            f"{command}-{name}": f"{command}-{name.split('.')[0]}" for command, name in [
                ("solve", "latin1.json"), ("grover", "latin1.json"),
                ("oracle-scan", "latin1.json"), ("metrics", "latin1.csv"),
                ("solve", "nested.json"), ("grover", "nested.json"),
                ("oracle-scan", "nested.json"),
                ("solve", "long.json"), ("grover", "long.json"), ("oracle-scan", "long.json")]},
        "test_coordinate_of_the_wrong_type_is_data_error": {
            param: f"solve-coords-{key}" for param, key in [
                ("x", "x"), ("coordinate1", "list"), ("None", "null"), ("10**400", "1e400"),
                ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")]},
        "test_coordinate_that_is_no_finite_double_is_data_error": {
            command: [f"{command}-coords-{key}" for key in ("1e400", "nan", "inf", "-inf")]
            for command in ("grover", "oracle-scan")},
        "test_huge_vertex_count_is_one_line": {
            command: f"{command}-huge" for command in ("solve", "grover", "oracle-scan")},
        "test_short_violation_listing_is_whole": "solve-ceiling",
    },
    "TestMetrics": {
        "test_marked_listing_every_outcome_is_usage_error": "metrics-marked-every",
        "test_bad_marked_set_is_usage_error": {
            "9-marked indices must lie in 0..7": "metrics-marked-9",
            "-1-marked indices must lie in 0..7": "metrics-marked--1",
            "12345678901234567890123-marked indices must lie in 0..7": "metrics-marked-huge",
            ",-marked set must not be empty": "metrics-marked-comma",
            "-marked set must not be empty": "metrics-marked-empty",
            "abc-bad marked outcome 'abc'": "metrics-marked-abc"},
        "test_distributions_of_different_sizes_are_data_error": "metrics-sizes-differ",
        "test_malformed_csv_is_data_error": "metrics-bad-row",
    },
}


def with_moved_tests(cls):
    """Add to `cls` the tests that MOVED lists under its name."""
    for name, rows in MOVED[cls.__name__].items():
        setattr(cls, name, _moved_test(rows))
    return cls


def _moved_test(rows):
    """A test of `rows`, a row id or a list of them, or one such test per
    parameter id of a dict of them."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row_ids", list(rows.values()), ids=list(rows))
        def test(self, in_process_dir, monkeypatch, row_ids):
            _check_rows(row_ids, in_process_dir, monkeypatch)
        return test

    def test(self, in_process_dir, monkeypatch):
        _check_rows(rows, in_process_dir, monkeypatch)
    return test


def _check_rows(row_ids, in_process_dir, monkeypatch):
    for row_id in [row_ids] if isinstance(row_ids, str) else row_ids:
        contract.check_in_process(contract.ROW[row_id], in_process_dir, monkeypatch)


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


@with_moved_tests
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

    def test_far_over_the_limit_is_one_data_error_line(self, tmp_path, capsys):
        # N = 2^1097 is far past the largest double
        inst, gt = generate(1100, 1, 0.5)
        path = tmp_path / "n1100.json"
        path.write_text(serialize_instance(inst, gt), encoding="utf-8")
        assert main(["grover", str(path)]) == EXIT_DATA
        out, err = capsys.readouterr()
        N = 1 << 1097
        assert out == ""
        assert err.splitlines() == [
            f"dmdgp: error: search space {N} exceeds grover's limit of 4194304 outcomes"]

    def test_run_search_rejects_negative_noise(self):
        inst, _ = demo7_instance()
        with pytest.raises(ValueError, match="mixing weight"):
            run_search(inst, extract_internal(inst), None, "nearest", 100, 0, -0.25)

    def test_over_outcome_limit_is_data_error_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch):
        # n = 26: N = 2^23 is over grover's limit of 2^22 outcomes
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
            "dmdgp: error: search space 8388608 exceeds grover's limit of 4194304 outcomes"
        ]

    def test_over_outcome_limit_writes_no_svg(self, tmp_path, capsys):
        path = tmp_path / "n26.json"
        path.write_text(serialize_instance(*generate(26, 1, 0.5)), encoding="utf-8")
        svg = tmp_path / "hist.svg"
        assert main(["grover", str(path), "--svg", str(svg)]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert not svg.exists()

    @pytest.mark.parametrize("p, argv", [(0.5, ["grover"]), (0.0, ["solve", "--mode", "all"])],
                             ids=["grover", "solve-all"])
    def test_n_row_limit_admits_exactly_2_to_the_22(self, tmp_path, monkeypatch, p, argv):
        # n = 25: N = 2^22 outcomes, and clique-only |S| = 22 predicts 2^22
        # solutions; each command reaches the walk, stubbed so no search runs
        path = tmp_path / "n25.json"
        path.write_text(serialize_instance(*generate(25, 1, p)), encoding="utf-8")

        class Walked(Exception):
            pass

        def walk(*args, **kwargs):
            raise Walked

        monkeypatch.setattr(bp, "branch_and_prune", walk)
        with pytest.raises(Walked):
            main([*argv, str(path)])


@contextlib.contextmanager
def int_digit_limit(digits):
    """Python's int-to-str digit limit set to `digits` (0 lifts it), then restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestIntDigitLimit:
    """Every command prints its sizes and indices in full under the lowest
    digit limit PYTHONINTMAXSTRDIGITS accepts, 640 digits; n = 2200 gives
    2^2197 candidates, whose count has 662 digits."""

    @pytest.fixture(scope="class")
    def n2200_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("digits") / "n2200.json"
        path.write_text(serialize_instance(*generate(2200, 1, 0.5)), encoding="utf-8")
        return str(path)

    @staticmethod
    def run(argv, capsys):
        with int_digit_limit(640):
            code = main(argv)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("mode", ["first", "all"])
    def test_solve_prints_every_index(self, n2200_path, mode, capsys):
        code, out, err = self.run(["solve", n2200_path, "--mode", mode], capsys)
        assert (code, err) == (EXIT_OK, "")
        with int_digit_limit(0):
            inst, _ = parse_document(Path(n2200_path).read_text(encoding="utf-8"))
            solutions = branch_and_prune(inst, extract_internal(inst), mode=mode)
            rows = ["  bits={}  index={}  penalty={:.3e}".format(int_to_bits(k, inst.n - 3), k, g)
                    for k, g in zip(solutions.index.tolist(), solutions.penalties.tolist())]
        assert out.splitlines()[2:] == [f"solutions found: {len(rows)}", *rows]

    @pytest.mark.parametrize("command", ["grover", "oracle-scan"])
    def test_search_space_over_the_limit_is_one_line(self, n2200_path, command, capsys):
        code, out, err = self.run([command, n2200_path], capsys)
        with int_digit_limit(0):
            N = 1 << 2197
            message = (f"search space {N} exceeds scan cap {1 << 24}" if command == "oracle-scan"
                       else f"search space {N} exceeds grover's limit of 4194304 outcomes")
        assert (code, out) == (EXIT_DATA, "")
        assert err.splitlines() == [f"dmdgp: error: {message}"]

    def test_solve_over_the_row_limit_is_one_line(self, tmp_path, capsys):
        # clique-only: every vertex 4..2200 is in S, so 2^|S| = 2^2197
        path = tmp_path / "clique2200.json"
        inst, ground = generate_from_topology(clique_pairs(2200), "0" * 2197, 1)
        path.write_text(serialize_instance(inst, ground), encoding="utf-8")
        code, out, err = self.run(["solve", str(path), "--mode", "all"], capsys)
        with int_digit_limit(0):
            message = (f"predicted solutions 2^|S| = {1 << 2197} exceed solve's limit of "
                       "4194304 rows in mode 'all'")
        assert (code, out) == (EXIT_DATA, "")
        assert err.splitlines() == [f"dmdgp: error: {message}"]

    def test_metrics_missing_outcomes_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("outcome,probability\n" + "0" * 2200 + ",1\n", encoding="utf-8")
        code, out, err = self.run(["metrics", str(path), str(path)], capsys)
        with int_digit_limit(0):
            first = ", ".join(int_to_bits(k, 2200) for k in (1, 2, 3))
            message = f"{path}: missing {(1 << 2200) - 1} of {1 << 2200} outcomes, first {first}"
        assert (code, out) == (EXIT_DATA, "")
        assert err.splitlines() == [f"dmdgp: error: {message}"]


@pytest.mark.parametrize("width", [1, 2, 3, 8, 10, 13])
def test_outcome_labels_equal_per_index_formatting(width):
    assert (bitstrings(width, np.arange(1 << width))
            == [int_to_bits(k, width) for k in range(1 << width)])


@pytest.mark.parametrize("width, start, stop", [(1, 1, 2), (3, 2, 2), (13, 4095, 8192),
                                                (17, 1 << 16, (1 << 16) + 5)])
def test_labels_of_a_range_equal_per_index_formatting(width, start, stop):
    assert (bitstrings(width, np.arange(start, stop))
            == [int_to_bits(k, width) for k in range(start, stop)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 63).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=20))))
@example((63, [0, 1, (1 << 63) - 1]))
@example((8, [255, 0, 128]))
def test_labels_of_an_index_sequence_equal_per_index_formatting(case):
    # `solve` writes its bits column from BP's index tuple as int64, and
    # `grover` labels its marked set from the walk's index
    width, index = case
    out = np.zeros((len(index), width), dtype=np.uint8)
    _bit_digits(np.array(index, dtype=np.int64), width, out)
    expected = [int_to_bits(k, width) for k in index]
    assert [row.tobytes().decode("ascii") for row in out] == expected
    assert bitstrings(width, np.array(index)) == expected


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


def _bits_of_float(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


#: Bit patterns of TIES, the infinities, subnormals, and NaNs with payloads
#: and either sign.
SPECIAL_PATTERNS = [*map(_bits_of_float, TIES + [math.inf, -math.inf, 5e-324, -5e-324,
                                                 2.2250738585072009e-308]),
                    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                    0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL_PATTERNS) | st.integers(0, (1 << 64) - 1), max_size=40))
@example([])
@example(SPECIAL_PATTERNS * 2)
def test_distinct_equals_unique_of_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    keys, inverse = _distinct(values)
    expected_keys, expected_inverse = np.unique(values.view(np.uint64), return_inverse=True)
    assert keys.dtype == values.dtype
    assert keys.tobytes() == expected_keys.tobytes()
    assert np.array_equal(inverse, expected_inverse)


def reference_histogram(labels, values, width=40):
    """histogram_text as one str.format per row."""
    peak = float(values.max()) if len(values) else 1.0
    scale = width / peak if peak > 0 else 0.0

    def bar(v):
        return "#" * max(round(v * scale if scale < math.inf else max(v, 0) / peak * width), 0)

    return "".join("  {}  {:9.6f}  {}\n".format(label, v, bar(v))
                   for label, v in zip(labels, values.tolist()))


def written(fn, *args):
    """What fn(*args) writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return out.getvalue()


def histogram_of(values):
    """(labels, histogram_text's rows) of `values`, labelled with as few bits as hold them."""
    width = max(len(values) - 1, 1).bit_length()
    return (bitstrings(width, np.arange(len(values))),
            written(histogram_text, width, _distinct(values)))


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
    labels, text = histogram_of(values)
    assert text == reference_histogram(labels, values)


@pytest.mark.parametrize("values, bars", [
    ([2.2e-311], [40]),
    ([0.0, 2.2e-311, -0.0], [0, 40, 0]),
    ([5e-324], [40]),
    ([1e-310, 5e-311, 2.5e-311, 0.0], [40, 20, 10, 0]),
])
def test_histogram_text_scales_subnormal_peaks(values, bars):
    # 40 / peak is inf here; the bars still measure each value's share of the peak
    rows = histogram_of(np.array(values))[1].splitlines()
    assert [len(row) - len(row.rstrip("#")) for row in rows] == bars


def test_histogram_text_writes_blocks_of_rows(monkeypatch):
    # three blocks of two rows and one of one, each row whole
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    values = np.array([0.0, 0.25, -0.0, 1.0, 0.25, 0.5, 0.0])
    labels, text = histogram_of(values)
    assert text == reference_histogram(labels, values)


def reference_svg_groups(n_bits, sampled, ideal):
    """histogram_svg's bar groups as one closure per outcome formatted them."""
    height, margin_l, margin_t, margin_b = 360, 50, 40, 50
    plot_h = height - margin_t - margin_b
    group_w = (640 - margin_l - 20) / (1 << n_bits)
    peak = max(float(sampled.max()), float(ideal.max()))
    peak = peak if peak > 0 else 1.0
    colors = ["#4878a8", "#d08830"]
    bar_w = group_w * 0.8 / 2

    def group(gi, values):
        x0 = margin_l + gi * group_w + group_w * 0.1
        lines = []
        for si, v in enumerate(values):
            h = plot_h * v / peak
            lines.append(
                f'<rect x="{x0 + si * bar_w:.1f}" y="{margin_t + plot_h - h:.1f}" '
                f'width="{bar_w:.1f}" height="{h:.1f}" fill="{colors[si]}"/>\n'
            )
        lines.append(
            f'<text x="{margin_l + (gi + 0.5) * group_w:.1f}" y="{height - margin_b + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{int_to_bits(gi, n_bits)}</text>\n'
        )
        return "".join(lines)

    return "".join(map(group, range(1 << n_bits), zip(sampled.tolist(), ideal.tolist())))


#: A peak of 270 / 256 scales j / 1024 to a bar height of exactly j / 4 px
#: (plot height 270), so an odd j puts the height and the bar's top on a
#: .x5 rounding tie
SVG_PEAK = 270 / 256


@st.composite
def svg_columns(draw):
    """(n_bits, sampled, ideal) for histogram_svg: zeros, tie heights, the
    tie peak, any value up to 1, and at times a column of zeros only."""
    n_bits = draw(st.integers(1, 5))
    N = 1 << n_bits
    value = (st.sampled_from([0.0, SVG_PEAK]) | st.integers(0, 1080).map(lambda j: j / 1024)
             | st.floats(0.0, 1.0))
    column = st.just([0.0] * N) | st.lists(value, min_size=N, max_size=N)
    return n_bits, draw(column), draw(column)


@settings(max_examples=100, deadline=None)
@given(svg_columns())
@example((2, [0.0, SVG_PEAK, 1 / 1024, 3 / 1024], [SVG_PEAK, 0.0, 5 / 1024, 7 / 1024]))
@example((3, [0.0] * 8, [0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25]))
@example((1, [0.0, 0.0], [0.0, 0.0]))
def test_histogram_svg_groups_equal_per_outcome_formatting(columns):
    # in blocks of 1, 2 and 3 outcomes, the last block short, and in one block
    n_bits, sampled, ideal = columns
    N = 1 << n_bits
    sampled, ideal = np.array(sampled), np.array(ideal)
    expected = reference_svg_groups(n_bits, sampled, ideal)
    for rows in (1, 2, 3, cli._BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_ROWS", rows)
            blocks = list(histogram_svg(n_bits, sampled, ideal, "title"))
        assert [block.count("<text ") for block in blocks[1:-1]] == [
            min(rows, N - start) for start in range(0, N, rows)]
        assert "".join(blocks[1:-1]) == expected


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
    inst = demo7_instance()[0]
    run_search(inst, extract_internal(inst), None, "nearest", 100, 0, 0.0)
    assert len(made) == 2
    assert all("points" not in vars(sols) for sols in made)


@settings(max_examples=100, deadline=None)
@given(report_columns())
@example((2, [1], [0.0, -0.0, 0.5, -0.0], [1, 1, 1, 1]))
@example((2, [0, 3], [-0.0, 0.0, 0.0, 1.0], [3, 0, 0, 3]))
@example((3, [1, 3, 5, 7], [0.5, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0], [0, 1, 2, 3, 0, 1, 2, 3]))
def test_report_rows_equal_per_row_formatting(columns):
    # in blocks of 1, 2 and 3 rows, each block holds only some of the distinct values
    width, marked, sampled, weights = columns
    N = 1 << width
    inst = demo7_instance()[0]
    base = run_search(inst, extract_internal(inst), None, "nearest", 100, 0, 0.0)
    report = dataclasses.replace(
        base, n=width + 3, N=N, marked=np.array(marked, dtype=np.int64),
        plan=iteration_count(N, len(marked)),
        ideal=Distribution(np.array(weights) / sum(weights)))
    labels, freqs = bitstrings(width, np.arange(N)), np.array(sampled, dtype=float)
    ideal = report.ideal.probabilities.tolist()
    expected = ["  {}  {:9.6f}  {:9.6f}{}".format(labels[k], freqs[k], ideal[k],
                                                  " *" if k in marked else "")
                for k in range(N)]
    for rows in (1, 2, 3, cli._BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_ROWS", rows)
            lines = written(render_run_report, report, _distinct(freqs)).split("\n")
        assert lines[2] == "marked candidates: " + ", ".join(f"{labels[m]}({m})" for m in marked)
        head = lines.index("outcome     sampled      ideal") + 1
        assert lines[head:head + N] == expected
        assert lines[head + N].startswith("sampled vs ideal: ")


class _HashingSink:
    """A stdout that keeps only the size and SHA-256 of what is written to it."""

    def __init__(self):
        self.size, self.sha = 0, hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_grover_holds_no_n_row_text(tmp_path, capsys):
    # N = 2^19: the tables go out in blocks, so peak memory is the run's
    # N-length arrays, not its N labels or rows; whole-N tables take ~257 B
    # per outcome
    path = tmp_path / "g22.json"
    assert main(["gen", "--n", "22", "--seed", "1", "--out", str(path)]) == EXIT_OK
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["grover", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (sink.size, sink.sha.hexdigest()) == (
        41419365, "af4e603d3321ef580292762ceb88157eef97655f537037b928dabd913c51c7d4")
    assert peak <= 120 << 19


def test_grover_holds_no_marked_line_text(tmp_path, capsys):
    # M = 2^18 marked of N = 2^19: the marked line goes out a block at a
    # time too, so peak memory stays the run's N-length arrays; the line
    # built whole took ~102 B per outcome
    path = tmp_path / "g22.json"
    assert main(["gen", "--n", "22", "--seed", "5", "--long-edge-prob", "0.01",
                 "--out", str(path)]) == EXIT_OK
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["grover", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (sink.size, sink.sha.hexdigest()) == (
        49664108, "21faed7f2ff0f845cf6ff8b9280c4e57bfedd95e77ba16a8fbb0008ef32d47e6")
    assert peak <= 85 << 19


def test_solve_holds_no_n_row_text(tmp_path, capsys):
    # 2^19 solutions: the table goes out in blocks, so peak memory is the
    # walk's index and penalties, not the table's text; a whole-N table
    # takes ~278 B per row
    path = tmp_path / "c22.json"
    assert main(["gen", "--n", "22", "--seed", "1", "--long-edge-prob", "0",
                 "--out", str(path)]) == EXIT_OK
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["solve", str(path), "--mode", "all"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (sink.size, sink.sha.hexdigest()) == (
        31346343, "4b5ecead7f6d526ee2cbd4715100b7dcbf9c0e6cdf28a6211f4380ae83abf9f9")
    assert peak <= 80 << 19


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_block_size_does_not_change_the_bytes(rows, tmp_path, monkeypatch, capsys):
    # 512 solutions and 512 outcomes, and a marked line of 64 candidates,
    # written in blocks of 1, 2 and 3 rows, the last block short: the bytes
    # of one block of 2^16 rows; with noise the sampled column holds many
    # distinct values
    clique, chain, svg = tmp_path / "c12.json", tmp_path / "g12.json", tmp_path / "hist.svg"
    sparse = tmp_path / "s12.json"
    for path, p in [(clique, "0"), (chain, "0.5"), (sparse, "0.05")]:
        assert main(["gen", "--n", "12", "--seed", "1", "--long-edge-prob", p,
                     "--out", str(path)]) == EXIT_OK

    def written():
        capsys.readouterr()
        out = []
        for argv in (["solve", str(clique), "--mode", "all"],
                     ["grover", str(chain), "--seed", "5", "--svg", str(svg)],
                     ["grover", str(chain), "--noise", "0.3", "--seed", "3"],
                     ["grover", str(sparse)]):
            assert main(argv) == EXIT_OK
            out.append(capsys.readouterr().out)
        return out + [svg.read_bytes()]

    expected = written()
    monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
    assert written() == expected


@with_moved_tests
class TestInvalidDocument:
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


@with_moved_tests
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


class TestBundledDemoInstance:
    def test_file_matches_regeneration(self):
        # the shipped file is the frozen output of demo7_instance()
        inst, gt = demo7_instance()
        bundled = data_file("demo7.json").read_text(encoding="utf-8")
        assert bundled == serialize_instance(inst, gt)

    def test_file_solves_directly(self, capsys):
        assert main(["solve", str(data_file("demo7.json"))]) == EXIT_OK
        assert "solutions found: 4" in capsys.readouterr().out
