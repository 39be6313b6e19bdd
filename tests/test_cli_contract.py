"""The CLI's contract: each row's argv, its exit code, its stderr and the
bytes it writes.

Two runners check every row: `test_in_process` through `cli.main`, and
`test_child_process` as `python -m dmdgp.cli` with PYTHONPATH set to the
directory that holds the `dmdgp` package this process imported, so both
always test the same package.  To check an installed package, run from
outside the checkout:

    python -m pytest -p no:cacheprovider -o pythonpath= tests/test_cli_contract.py

Each runner works in a directory of its own, which holds the named
documents below and every row's `gen` input, written through `cli.main`
when the directory is made.  Rows name those files by their bare names,
so a message that quotes a path reads the same in both runners.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmdgp
from dmdgp import DmdgpInstance, cli, data_file, demo7_instance, serialize_instance

# The exit codes are the contract, so they are written here, not read from `cli`.
OK, NO_SOLUTION, IO, USAGE, DATA = 0, 1, 2, 64, 65


@dataclass(frozen=True)
class Gen:
    """An input document that `dmdgp gen` writes into each runner's directory."""

    n: int
    seed: int
    p: str

    @property
    def name(self) -> str:
        return f"gen-{self.n}-{self.seed}-{self.p}.json"

    def argv(self, directory: Path) -> list[str]:
        return ["gen", "--n", str(self.n), "--seed", str(self.seed),
                "--long-edge-prob", self.p, "--out", str(directory / self.name)]


@dataclass(frozen=True)
class Data:
    """A data file bundled with the package."""

    name: str


class Sha(str):
    """The SHA-256 of the expected bytes, in hex."""


@dataclass(frozen=True)
class Row:
    """One argv of the contract, with what it must exit with and write."""

    id: str
    argv: tuple
    code: int = OK
    err: tuple[str, ...] = ()  # the exact stderr lines
    out: str | Sha | None = ""  # the exact stdout, its digest, or None: not checked
    writes: tuple[str, Sha] | None = None  # a file the command writes, and its digest


def golden(name: str) -> str:
    return (Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")


def _demo_with_coordinate(value) -> str:
    """The demo document with x_3's y coordinate replaced."""
    doc = json.loads(serialize_instance(*demo7_instance()))
    doc["ground_truth"]["coords"][2][1] = value
    return json.dumps(doc)


def _demo_with_d16(weight: float) -> str:
    """The demo instance, without ground truth, with d(1,6) replaced."""
    inst, _ = demo7_instance()
    return serialize_instance(DmdgpInstance(7, {**dict(inst.edges), (1, 6): weight}))


COORDINATES = {"x": "x", "list": [1], "null": None, "1e400": 10**400,
               "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}
D16 = dict(demo7_instance()[0].edges)[(1, 6)]

#: Named documents, each written into both runners' directories.
DOCUMENTS = {
    # latin-1 bytes that are not UTF-8, brackets nested past Python's
    # recursion limit, and a weight with more digits than int() reads
    "latin1.json": '{"n": 4, "edges": [], "note": "é"}'.encode("latin-1"),
    "latin1.csv": "outcome,probability\n0,0.5\n1,0.5 é\n".encode("latin-1"),
    "nested.json": b"[" * 100_000,
    "long.json": b'{"n": 4, "edges": [[1, 2, ' + b"9" * 5000 + b"]]}",
    "oops.json": "{oops",
    "bigweight.json": '{"n": 4, "edges": [[1, 2, 1' + "0" * 400 + "]]}",
    # validate would ask for a (4, n) table of 29 TiB
    "huge.json": json.dumps({"n": 10**12, "edges": [[1, 2, 1.5], [1, 3, 2.5], [2, 3, 1.5]]}),
    # valid by `validate`, but d(1,4) = 5.9 exceeds the 4.5 that three bonds
    # of 1.5 span, so its torsion cosine lies outside [-1, 1]
    "unrealizable.json": json.dumps({"n": 4, "edges": [
        [1, 2, 1.5], [1, 3, 2.5], [1, 4, 5.9], [2, 3, 1.5], [2, 4, 1.5], [3, 4, 1.5]]}),
    **{f"coords-{key}.json": _demo_with_coordinate(value) for key, value in COORDINATES.items()},
    "ceiling.json": _demo_with_d16(6.5),
    # no candidate meets the raised d(1,6)
    "broken.json": _demo_with_d16(D16 + 1.0),
    "uniform2.csv": cli.save_distribution_csv(np.full(2, 1 / 2)),
    "uniform4.csv": cli.save_distribution_csv(np.full(4, 1 / 4)),
    "bad.csv": "outcome,probability\n000,0.5\n00x,0.5\n",
    # 2^64 outcomes, one of them present: the message counts the rest
    "wide.csv": f"outcome,probability\n{'0' * 64},1\n",
    "header.csv": "outcome,probability\n",
    "empty.csv": "",
    "fields.csv": "outcome,probability\n0,0.5,x\n1,0.5\n",
    "width.csv": "outcome,probability\n0,0.5\n01,0.5\n",
    "half.csv": "outcome,probability\n0,half\n1,0.5\n",
    "negative.csv": "outcome,probability\n0,-0.5\n1,1.5\n",
    "inf.csv": "outcome,probability\n0,inf\n1,0.5\n",
}

DEMO = Data("demo7.json")
SANTIAGO, SIMULATOR = Data("santiago_std_1call.csv"), Data("simulator_std_1call.csv")


def fails(id: str, argv: tuple, code: int, message: str) -> Row:
    """A row that prints nothing and one `dmdgp: error:` line."""
    return Row(id, argv, code, (f"dmdgp: error: {message}",))


def coords_error(name: str) -> str:
    return f"{name}: ground_truth.coords must be an array of 7 [x, y, z] rows of numbers"


ROWS = [
    # gen: every draw's accept/reject decision and distance of a 597-level
    # chain; tests/test_instance.py pins the same document
    Row("gen-n600", ("gen", "--n", "600", "--seed", "2018", "--long-edge-prob", "0.5",
                     "--out", "g600.json"),
        out=Sha("fe3ed6cbec8ad72e6f07098ecb5e2f6e9d0944555d60b1285dd270693545cbff"),
        writes=("g600.json", Sha("4c7ec7f8d19d34db81d639124100443a501526598f876a339cafdf37a6c3a263"))),
    fails("gen-n3", ("gen", "--n", "3", "--seed", "0", "--out", "x.json"), USAGE,
          "vertex count must be an integer >= 4, got 3"),
    fails("gen-edge-prob-1.5", ("gen", "--n", "5", "--long-edge-prob", "1.5", "--out", "x.json"),
          USAGE, "long_edge_prob must be in [0, 1], got 1.5"),
    fails("gen-unwritable", ("gen", "--n", "5", "--seed", "0", "--out", "missing/x.json"), IO,
          "cannot write missing/x.json: [Errno 2] No such file or directory: 'missing/x.json'"),

    # solve
    # clique-only n = 13: all 1024 leaves are solutions, two levels above the blocks
    Row("solve-clique13", ("solve", Gen(13, 2, "0.0"), "--mode", "all"),
        out=Sha("a12ddf2df8c15ce33746444c16c7ef48d1700572e3735f4905b18bb70505df48")),
    # clique-only n = 15: 4096 rows, half of them mirror rows
    Row("solve-clique15", ("solve", Gen(15, 3, "0.0"), "--mode", "all"),
        out=Sha("d568e71c67eb2b8aae6123237a07fb8a0c9c2e38ea5557d775910fbce719d6ed")),
    # clique-only n = 20: 2^17 rows, written as two blocks of 2^16
    Row("solve-clique20", ("solve", Gen(20, 1, "0"), "--mode", "all"),
        out=Sha("aeaf88e926f9848a3bea230ceb9ecd844e7d5981f7ebaa60dbd0c11ede6781de")),
    # 297 sign levels and |S| = 1: indices far past 63 bits
    Row("solve-chain300-all", ("solve", Gen(300, 1, "0.5"), "--mode", "all"),
        out=Sha("5ef4a38a6d4adb2685fd85272bdb28e375319765b88907af2298ab92f405ba53")),
    Row("solve-chain300-first", ("solve", Gen(300, 1, "0.5"), "--mode", "first"),
        out=Sha("acff1a6975bfeff61932108d8c02bf2f4829f59f43878b916a6cc79c1317a556")),
    # 63 sign bits, the widest int64 index, and 64, the narrowest Python-int
    # one; at 64 one solution index lies below 2^63 and its mirror above
    Row("solve-chain66", ("solve", Gen(66, 1, "0.5"), "--mode", "all"),
        out=Sha("130cc8a889713764caef13a54cf3e458854e7f42d7a7579cca81d94ef29e8642")),
    Row("solve-chain67", ("solve", Gen(67, 1, "0.5"), "--mode", "all"),
        out=Sha("def0f37cf21a9ea478c07dfea2b5f0a45307c4c09ba1c1cf84edd67dd0673ec5")),
    # 97 sign levels pruned by few long edges: mode "first" backs out of
    # dead subtrees, a block of rows at a time
    Row("solve-sparse100-first", ("solve", Gen(100, 2, "0.03"), "--mode", "first"),
        out=Sha("d14c268fa54ea977bab1463c389c3840b38661c9e0c43b8f5c8052fb75fc83c4")),
    # clique-only n = 27 predicts 2^24 solutions: mode "all" stops before the
    # walk and prints nothing, mode "first" walks to the first solution
    fails("solve-over-row-limit", ("solve", Gen(27, 1, "0"), "--mode", "all"), DATA,
          "predicted solutions 2^|S| = 16777216 exceed solve's limit of 4194304 rows in mode 'all'"),
    Row("solve-over-row-limit-first", ("solve", Gen(27, 1, "0"), "--mode", "first"),
        out=Sha("4b35d51b4dc680f51f342a9c6cff4426c4e460d61b467349132b2b28b0a02e8d")),
    fails("solve-missing-file", ("solve", "/nonexistent/inst.json"), IO,
          "cannot read /nonexistent/inst.json: [Errno 2] No such file or directory: "
          "'/nonexistent/inst.json'"),
    fails("solve-tol", ("solve", DEMO, "--tol", "0"), USAGE, "unrecognized arguments: --tol 0"),
    # an unknown option is named before the missing instance
    Row("solve-unknown-flag", ("solve", "--frobnicate"), USAGE,
        ("dmdgp solve: error: unrecognized arguments: --frobnicate",)),
    fails("solve-oops", ("solve", "oops.json"), DATA, "oops.json: invalid JSON at line 1, "
          "column 2: Expecting property name enclosed in double quotes"),
    fails("solve-bigweight", ("solve", "bigweight.json"), DATA,
          "bigweight.json: non-finite weight inf on edge {1,2}"),
    Row("solve-ceiling", ("solve", "ceiling.json"), DATA,
        ("dmdgp: error: ceiling.json: instance fails validation:",
         "  weight-ceiling: weight 6.5 on {1,6} exceeds 6.0 A")),
    *(fails(f"solve-coords-{key}", ("solve", f"coords-{key}.json"), DATA,
            coords_error(f"coords-{key}.json")) for key in COORDINATES),

    # grover
    Row("grover-demo7-seed5", ("grover", DEMO, "--seed", "5"),
        out=golden("grover_demo7_seed5.txt")),
    Row("grover-demo7-noise", ("grover", DEMO, "--noise", "0.3", "--seed", "3"),
        out=golden("grover_demo7_noise0.3_seed3.txt")),
    # two N-row tables are most of these 31-130 KB
    Row("grover-n12-seed5", ("grover", Gen(12, 1, "0.5"), "--seed", "5"),
        out=Sha("d171ba0a2ab0e2cfb2f3afd96414f504b67567d7d9b70f89d623f89781089e2c")),
    Row("grover-n12-noise", ("grover", Gen(12, 1, "0.5"), "--noise", "0.3", "--seed", "5"),
        out=Sha("da251c279a08517d91a292869a38e837922c0704307d5a225ea8874d231fd94c")),
    Row("grover-n13-seed5", ("grover", Gen(13, 2, "0.5"), "--seed", "5"),
        out=Sha("ac5b8f79ec2dc8285829c83f3e731c02ee6f39d14ff63848868b0b7c7c68b805")),
    # the noisy run has the most distinct sampled values
    Row("grover-n13-noise", ("grover", Gen(13, 2, "0.5"), "--noise", "0.3", "--seed", "5"),
        out=Sha("9a58d3e53c800bed6061b12c42b7c31dae3c4c3ba1b8bc083efdc2a270577616")),
    Row("grover-n14-seed5", ("grover", Gen(14, 3, "0.5"), "--seed", "5"),
        out=Sha("458e0ebbb154cc6c71957c8825708ece7a74e2cd6cf208bd174716fd16eb9cbb")),
    Row("grover-n14-noise", ("grover", Gen(14, 3, "0.5"), "--noise", "0.3", "--seed", "5"),
        out=Sha("daac97ee5cd32df87006c42f7026c4d58ffad20aca794f74bd562d35c340dc20")),
    # N = 2^14, M = 2, k = 71: sixteen times the outcomes of the n = 13 rows
    Row("grover-n17-seed5", ("grover", Gen(17, 2, "0.5"), "--seed", "5"),
        out=Sha("95c881af376ccc112d7802d67d0b3f2d8d245bd1e4bd073943bd0461c14d45d7")),
    Row("grover-n17-noise", ("grover", Gen(17, 2, "0.5"), "--noise", "0.3", "--seed", "5"),
        out=Sha("bfd5723fb918d2a5aeea22d70e1428c1bc4d4cbea7b34ff985716bcfe471dbd4")),
    # N = 2^17: each table is written as two blocks of 2^16 rows
    Row("grover-n20-seed5", ("grover", Gen(20, 1, "0.5"), "--seed", "5"),
        out=Sha("b5d72242ac310764ec493815dc7359e7d2c361715c0f9b2706e83735afd7947d")),
    Row("grover-n13-svg", ("grover", Gen(13, 2, "0.5"), "--seed", "5", "--svg", "hist.svg"),
        out=Sha("c2710b453bceb4de6702437e55e5166bc71842a48b9b35cf4541a76cd6a7efef"),
        writes=("hist.svg", Sha("9d5018921c8b744d15ea4ec4e06a044cf6787bd69f7ee2fabd37045e96f722bd"))),
    # the SVG is written before the report, so a path it cannot write prints none
    fails("grover-svg-unwritable", ("grover", DEMO, "--svg", "missing/x.svg"), IO,
          "cannot write missing/x.svg: [Errno 2] No such file or directory: 'missing/x.svg'"),
    Row("grover-broken", ("grover", "broken.json"), NO_SOLUTION,
        out="oracle marks no candidate (inconsistent instance)\n"),
    fails("grover-every-marked", ("grover", Gen(6, 2, "0")), DATA,
          "oracle marks all 8 candidates: nothing to amplify"),
    fails("grover-over-scan-cap", ("grover", Gen(30, 1, "0.5")), DATA,
          "search space 134217728 exceeds grover's limit of 4194304 outcomes"),
    fails("grover-iters-negative", ("grover", DEMO, "--iters", "-2"), USAGE,
          "--iters must be nonnegative"),
    fails("grover-iters-word", ("grover", DEMO, "--iters", "lots"), USAGE,
          "--iters must be 'auto' or an integer, got 'lots'"),
    fails("grover-iters-over-limit", ("grover", DEMO, "--iters", str(10**20)), USAGE,
          "--iters must be at most 4194304"),
    fails("grover-noise-1.5", ("grover", DEMO, "--noise", "1.5"), USAGE,
          "--noise must lie in [0, 1]"),
    fails("grover-shots-0", ("grover", DEMO, "--shots", "0"), USAGE, "--shots must be positive"),
    fails("grover-shots-1e20", ("grover", DEMO, "--shots", str(10**20)), USAGE,
          "--shots must be below 2^63"),
    fails("grover-seed-negative", ("grover", DEMO, "--seed", "-1"), USAGE,
          "--seed must be nonnegative"),
    # -1 is the value of --seed, not an unknown option
    Row("grover-seed-negative-no-instance", ("grover", "--seed", "-1"), USAGE,
        ("dmdgp grover: error: the following arguments are required: instance",)),

    # oracle-scan: every candidate's penalty, normalized value and bit
    Row("oracle-scan-demo7", ("oracle-scan", DEMO),
        out=Sha("c4d844911c497a26cc558d857b6ff74af5a6bfa0f848cd8532ec6c4fc6b399ae")),
    Row("oracle-scan-demo7-thresholds",
        ("oracle-scan", DEMO, "--delta", "1e-4", "--epsilon", "0.9"),
        out=Sha("7bc2538dd7e88af8118bf6d6534feff1e58a0d81d71b48e1e40a7b5f77f14c4f")),
    Row("oracle-scan-n10-p0", ("oracle-scan", Gen(10, 1, "0")),
        out=Sha("44caff94cdd4d9274f82af6ef030152118442485f64ac7618fb740b4dbbbf3ed")),
    Row("oracle-scan-n10-p0.5", ("oracle-scan", Gen(10, 1, "0.5")),
        out=Sha("8168d03f9493eda062ed62abb4b581a0ed6273cd9b48d761f77395e3913abaed")),
    Row("oracle-scan-n10-p1", ("oracle-scan", Gen(10, 1, "1")),
        out=Sha("7c3f9fad237937d8c34dc14e0c9fdf36b1810dd26cca2d5df8161e6604616c0c")),
    Row("oracle-scan-n14-p0.5", ("oracle-scan", Gen(14, 2, "0.5")),
        out=Sha("9ea949d0bcc7bf11b25d26c94284d704c36a1ceade9ae43df43d2892ce25e10e")),
    fails("oracle-scan-over-scan-cap", ("oracle-scan", Gen(30, 1, "0.5")), DATA,
          "search space 134217728 exceeds scan cap 16777216"),
    fails("oracle-scan-delta-epsilon-sum",
          ("oracle-scan", DEMO, "--delta", "0.6", "--epsilon", "0.5"), USAGE,
          "hypothesis violated: delta + epsilon = 1.1 must be < 1"),
    fails("oracle-scan-delta-nan", ("oracle-scan", DEMO, "--delta", "nan"), USAGE,
          "delta must be positive, got nan"),
    fails("oracle-scan-epsilon-1e-17", ("oracle-scan", DEMO, "--epsilon", "1e-17"), USAGE,
          "epsilon must lie in (0, 1) with 1 - epsilon < 1 in float64, got 1e-17"),
    fails("oracle-scan-delta-1e-320", ("oracle-scan", DEMO, "--delta", "1e-320"), USAGE,
          "delta = 1e-320 is too small: delta / p1 underflows to 0 at n = 7"),

    # every command that reads an instance
    *(row for command in ("solve", "grover", "oracle-scan") for row in (
        fails(f"{command}-unrealizable", (command, "unrealizable.json"), DATA,
              "unrealizable.json: torsion cosine outside [-1, 1]: inconsistent distances"),
        fails(f"{command}-huge", (command, "huge.json"), DATA,
              "huge.json: vertex count 1000000000000 exceeds the limit of 1048576"),
        fails(f"{command}-latin1", (command, "latin1.json"), DATA,
              "latin1.json: 'utf-8' codec can't decode byte 0xe9 in position 31: "
              "invalid continuation byte"),
        fails(f"{command}-nested", (command, "nested.json"), DATA,
              "nested.json: invalid JSON: nested too deeply"),
        fails(f"{command}-long", (command, "long.json"), DATA,
              "long.json: integer literal over 4300 digits"),
    )),
    *(fails(f"{command}-coords-{key}", (command, f"coords-{key}.json"), DATA,
            coords_error(f"coords-{key}.json"))
      for command in ("grover", "oracle-scan") for key in ("1e400", "nan", "inf", "-inf")),

    # metrics
    fails("metrics-marked-every", ("metrics", SANTIAGO, SIMULATOR, "--marked", "0,1,2,3,4,5,6,7"),
          USAGE, "marked set must be a proper subset of the outcomes"),
    *(fails(f"metrics-marked-{key}", ("metrics", SANTIAGO, SIMULATOR, "--marked", marked),
            USAGE, message) for key, marked, message in [
        ("9", "9", "marked indices must lie in 0..7"),
        ("-1", "-1", "marked indices must lie in 0..7"),
        ("huge", "12345678901234567890123", "marked indices must lie in 0..7"),
        ("comma", ",", "marked set must not be empty"),
        ("empty", "", "marked set must not be empty"),
        ("abc", "abc", "bad marked outcome 'abc'"),
    ]),
    fails("metrics-sizes-differ", ("metrics", "uniform2.csv", "uniform4.csv"), DATA,
          "distribution sizes differ: 2 vs 4"),
    fails("metrics-bad-row", ("metrics", "bad.csv", SIMULATOR), DATA,
          "bad.csv: row 3: outcome '00x' is not a bit string"),
    fails("metrics-latin1", ("metrics", "latin1.csv", "latin1.csv"), DATA,
          "latin1.csv: 'utf-8' codec can't decode byte 0xe9 in position 32: "
          "invalid continuation byte"),
    fails("metrics-wide", ("metrics", "wide.csv", "wide.csv"), DATA,
          f"wide.csv: missing {2**64 - 1} of {2**64} outcomes, first "
          + ", ".join(f"{k:064b}" for k in (1, 2, 3))),
    fails("metrics-header-only", ("metrics", "header.csv", "header.csv"), DATA,
          "header.csv: no outcome rows"),
    *(fails(f"metrics-{name}", ("metrics", f"{name}.csv", f"{name}.csv"), DATA,
            f"{name}.csv: {message}") for name, message in [
        ("empty", "empty distribution file"),
        ("fields", "row 2: expected 2 fields, got 3"),
        ("width", "row 3: outcome width 2 != 1"),
        ("half", "row 2: bad probability 'half'"),
        ("negative", "row 2: probability must be finite and >= 0"),
        ("inf", "row 2: probability must be finite and >= 0"),
    ]),

    Row("help", ("--help",), out=None),
]
ROW = {row.id: row for row in ROWS}
assert len(ROW) == len(ROWS), "row ids must be unique"
#: Every row's `gen` input, once each.
GENS = list(dict.fromkeys(arg for row in ROWS for arg in row.argv if isinstance(arg, Gen)))


# ---------------------------------------------------------------------------
# Runners


def resolve(argv) -> list[str]:
    """argv as strings: an input by its file name, a bundled file by its path."""
    def text(arg):
        if isinstance(arg, Gen):
            return arg.name
        if isinstance(arg, Data):
            return str(data_file(arg.name))
        return arg

    return list(map(text, argv))


def run_in_process(argv) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(resolve(argv))
    return code, out.getvalue().encode(), err.getvalue()


#: The directory that holds the imported `dmdgp` package.
PACKAGE_ROOT = Path(dmdgp.__file__).parents[1]


def run_child(argv, cwd: Path) -> tuple[int, bytes, str]:
    proc = subprocess.run([sys.executable, "-m", "dmdgp.cli", *resolve(argv)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def check(row: Row, result: tuple[int, bytes, str], workdir: Path) -> None:
    code, out, err = result
    assert code == row.code, err
    assert tuple(err.splitlines()) == row.err
    if isinstance(row.out, Sha):
        assert hashlib.sha256(out).hexdigest() == row.out
    elif row.out is not None:
        assert out.decode() == row.out
    if row.writes:
        name, digest = row.writes
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest


def _workdir(tmp_path_factory, name: str) -> Path:
    path = tmp_path_factory.mktemp(name)
    for doc, content in DOCUMENTS.items():
        (path / doc).write_bytes(content if isinstance(content, bytes) else content.encode())
    for gen in GENS:
        code, _, err = run_in_process(gen.argv(path))
        assert code == OK, f"{gen.name}: {err}"
    return path


@pytest.fixture(scope="module")
def in_process_dir(tmp_path_factory):
    return _workdir(tmp_path_factory, "in-process")


def check_in_process(row: Row, workdir: Path, monkeypatch) -> None:
    """Run `row` through `cli.main` in `workdir`."""
    monkeypatch.chdir(workdir)
    check(row, run_in_process(row.argv), workdir)


@pytest.fixture(scope="module")
def child_results(tmp_path_factory):
    """(workdir, {row id: result}) of every row's child process, two at a time."""
    workdir = _workdir(tmp_path_factory, "child")
    with ThreadPoolExecutor(2) as pool:
        results = pool.map(lambda row: run_child(row.argv, workdir), ROWS)
        return workdir, {row.id: result for row, result in zip(ROWS, results)}


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_in_process(row, in_process_dir, monkeypatch):
    check_in_process(row, in_process_dir, monkeypatch)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_child_process(row, child_results):
    workdir, results = child_results
    check(row, results[row.id], workdir)


# ---------------------------------------------------------------------------
# A closed stdout


@pytest.fixture(scope="module")
def closed_stdout_docs(tmp_path_factory):
    """demo7, a few hundred bytes of output, and `gen --n 20 --seed 1`, megabytes of it."""
    path = tmp_path_factory.mktemp("closed-stdout") / "g20.json"
    code, _, err = run_in_process(["gen", "--n", "20", "--seed", "1", "--out", str(path)])
    assert code == OK, err
    return {"demo7": str(data_file("demo7.json")), "g20": str(path)}


@pytest.mark.parametrize("doc", ["demo7", "g20"])
@pytest.mark.parametrize("command", ["solve", "grover", "oracle-scan"])
def test_closed_stdout_is_one_io_error_line(command, doc, closed_stdout_docs):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "dmdgp.cli", command, closed_stdout_docs[doc]],
                              env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == IO, proc.stderr
    assert proc.stderr.decode().splitlines() == [
        "dmdgp: error: cannot write stdout: [Errno 32] Broken pipe"]


# ---------------------------------------------------------------------------
# Mutated documents


def _paths(node, path=()):
    """The path of every value inside a JSON document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


VALUES = (st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=2)
          | st.sampled_from([10**12, 2**63, 10**400, [], {}, [1, 2], [1, 2, "x"]]))


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


@st.composite
def mutated_demo(draw) -> str:
    """The demo document with one to three of its values nudged, set,
    deleted or repeated, and one time in eight cut short."""
    doc = json.loads(data_file("demo7.json").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["nudge", "set", "delete", "repeat"]))
        # a weight or coordinate is nudged, often to a document that still
        # solves or has no solution; a key or a row (an edge, a point) is
        # deleted, a row is repeated, and any value may be set
        paths = [path for path in list(_paths(doc))[1:] if {
            "nudge": isinstance(_at(doc, path), float),
            "set": True,
            "delete": isinstance(_at(doc, path[:-1]), dict) or isinstance(_at(doc, path), list),
            "repeat": isinstance(_at(doc, path[:-1]), list) and isinstance(_at(doc, path), list),
        }[action]]
        if not paths:
            continue
        *path, key = draw(st.sampled_from(paths))
        parent = _at(doc, path)
        if action == "nudge":
            parent[key] *= draw(st.sampled_from([1 + 1e-9, 1 + 1e-3, 0.9, -1.0]))
        elif action == "set":
            parent[key] = draw(VALUES)
        elif action == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=mutated_demo())
def test_mutated_documents_exit_0_1_or_65_in_one_line(fuzz_dir, text):
    path = fuzz_dir / "mutated.json"
    path.write_text(text, encoding="utf-8")
    for command in ("solve", "grover", "oracle-scan"):
        code, _, err = run_in_process([command, str(path)])
        lines = err.splitlines()
        assert code in (OK, NO_SOLUTION, DATA), (command, err)
        if code != DATA:
            assert err == "", (command, err)
            continue
        assert lines[0].startswith("dmdgp: error: "), (command, err)
        if lines[0].endswith(": instance fails validation:"):
            assert len(lines) > 1 and all(line.startswith("  ") for line in lines[1:]), err
        else:
            assert len(lines) == 1, (command, err)
