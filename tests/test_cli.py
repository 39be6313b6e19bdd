import dataclasses
import math
import re
import struct
import time
import tracemalloc
import xml.etree.ElementTree as ET

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
    "TestGen": {
        "test_n_below_four_is_usage_error": "gen-n3",
        "test_edge_probability_out_of_range_is_usage_error": "gen-edge-prob-1.5",
        "test_unwritable_path_is_io_error": "gen-unwritable",
    },
    "TestSolve": {
        "test_missing_file_is_io_error": "solve-missing-file",
        "test_tol_is_unknown_option": "solve-tol",
        "test_malformed_file_is_data_error": "solve-oops",
        "test_deep_chain_solve_output_is_pinned": {
            "all-5ef4a38a6d4adb2685fd85272bdb28e375319765b88907af2298ab92f405ba53":
                "solve-chain300-all",
            "first-acff1a6975bfeff61932108d8c02bf2f4829f59f43878b916a6cc79c1317a556":
                "solve-chain300-first"},
        "test_sparse_chain_first_solve_output_is_pinned": "solve-sparse100-first",
        "test_int64_boundary_solve_output_is_pinned": {
            "66-130cc8a889713764caef13a54cf3e458854e7f42d7a7579cca81d94ef29e8642": "solve-chain66",
            "67-def0f37cf21a9ea478c07dfea2b5f0a45307c4c09ba1c1cf84edd67dd0673ec5": "solve-chain67"},
    },
    "TestGrover": {
        "test_bad_iters_usage_error": ["grover-iters-negative", "grover-iters-word"],
        "test_bad_noise_or_shots_is_usage_error": {
            "flags0---noise must lie in [0, 1]": "grover-noise-1.5",
            "flags1---shots must be positive": "grover-shots-0",
            "flags2---shots must be below 2^63": "grover-shots-1e20",
            "flags3---seed must be nonnegative": "grover-seed-negative"},
        "test_demo_output_is_golden": {
            "flags0-grover_demo7_seed5.txt": "grover-demo7-seed5",
            "flags1-grover_demo7_noise0.3_seed3.txt": "grover-demo7-noise"},
        "test_generated_output_is_pinned": {
            f"{n}-{seed}-flags{k}-{contract.ROW[row].out}": row for k, (n, seed, row) in enumerate([
                (12, 1, "grover-n12-seed5"), (12, 1, "grover-n12-noise"),
                (13, 2, "grover-n13-seed5"), (13, 2, "grover-n13-noise"),
                (14, 3, "grover-n14-seed5"), (14, 3, "grover-n14-noise")])},
        "test_n17_output_is_pinned": {
            f"flags{k}-{contract.ROW[row].out}": row
            for k, row in enumerate(["grover-n17-seed5", "grover-n17-noise"])},
        "test_generated_svg_is_pinned": "grover-n13-svg",
        "test_generated_solve_output_is_pinned": "solve-clique13",
        "test_generated_n15_solve_output_is_pinned": "solve-clique15",
        "test_over_scan_cap_is_data_error": "grover-over-scan-cap",
        "test_inconsistent_instance_exits_one": "grover-broken",
        "test_every_candidate_marked_is_data_error": "grover-every-marked",
    },
    "TestUnrealizableInstance": {
        "test_is_data_error": {command: f"{command}-unrealizable"
                               for command in ("solve", "grover", "oracle-scan")},
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
    "TestOracleScan": {
        "test_hypothesis_violation_is_usage_error": "oracle-scan-delta-epsilon-sum",
        "test_bad_threshold_is_usage_error": {
            f"flags{k}-{contract.ROW[row].err[0]}": row for k, row in enumerate([
                "oracle-scan-delta-nan", "oracle-scan-epsilon-1e-17",
                "oracle-scan-delta-1e-320"])},
        "test_demo_output_is_pinned": {
            f"flags{k}-{contract.ROW[row].out}": row
            for k, row in enumerate(["oracle-scan-demo7", "oracle-scan-demo7-thresholds"])},
        "test_generated_output_is_pinned": {
            f"{n}-{seed}-{p}-{contract.ROW[row].out}": row for n, seed, p, row in [
                (10, 1, "0", "oracle-scan-n10-p0"), (10, 1, "0.5", "oracle-scan-n10-p0.5"),
                (10, 1, "1", "oracle-scan-n10-p1"), (14, 2, "0.5", "oracle-scan-n14-p0.5")]},
        "test_over_scan_cap_prints_no_rows": "oracle-scan-over-scan-cap",
    },
    "TestDistributionCsv": {
        "test_missing_outcomes_message_is_bounded": "metrics-wide",
        "test_unknown_flag_is_usage_error": "solve-unknown-flag",
        "test_help_exits_zero": "help",
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


@with_moved_tests
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


@with_moved_tests
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

    def test_run_search_rejects_negative_noise(self):
        inst, _ = demo7_instance()
        with pytest.raises(ValueError, match="mixing weight"):
            run_search(inst, None, "nearest", 100, 0, -0.25)

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


@with_moved_tests
class TestUnrealizableInstance:
    """Valid by `validate`, but d(1,4) = 5.9 exceeds the 4.5 that three
    bonds of 1.5 span, so its torsion cosine lies outside [-1, 1]."""


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


@with_moved_tests
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


@with_moved_tests
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
