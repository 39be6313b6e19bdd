import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dmdgp import (
    branch_and_prune,
    data_file,
    demo7_instance,
    expand_symmetry,
    extract_internal,
    generate,
    serialize_instance,
    symmetry_set,
)
from dmdgp.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    load_distribution_csv,
    main,
    run_search,
    save_distribution_csv,
)
from dmdgp.bitstrings import all_bits, int_to_bits
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

    @pytest.mark.parametrize("flags, message", [
        (["--noise", "1.5"], "--noise must lie in [0, 1]"),
        (["--shots", "0"], "--shots must be positive"),
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

    def test_generated_svg_is_pinned(self, tmp_path, capsys):
        path, svg = tmp_path / "inst.json", tmp_path / "hist.svg"
        path.write_text(serialize_instance(*generate(13, 2, 0.5)), encoding="utf-8")
        assert main(["grover", str(path), "--seed", "5", "--svg", str(svg)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(f"wrote histogram to {svg}\n")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "9d5018921c8b744d15ea4ec4e06a044cf6787bd69f7ee2fabd37045e96f722bd")

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
