"""Smoke test of the benchmark itself.

Every workload runs briefly, plain and traced; each metric that
BENCHMARK.json names must be printed with its unit, and no op may fail.
No timing is asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_prints_every_metric(tmp_path, trace, section):
    proc = run_bench(BENCH.parent, "--workload", "all", "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0

    printed: dict[str, dict[str, str]] = {}
    workload = None
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0] == "workload":
            workload = printed.setdefault(fields[1], {})
        elif workload is not None and fields[:1] == ["error_rate"]:
            workload["error_rate"] = fields[1]
        elif workload is not None and len(fields) >= 3:
            workload[fields[0]] = fields[2]
    assert set(printed) == {w["name"] for w in SPEC["workloads"]}
    for name, shown in printed.items():
        assert shown["error_rate"] == "0", name
        for metric in SPEC[section]:
            assert shown.get(metric["name"]) == metric["unit"], (name, metric["name"])
            value = summary["metrics"][f"{name}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
            if section == "end_to_end":
                # never 0, and small enough to print as a plain decimal
                assert 0 < value["value"] < 1e15, (name, metric["name"], value)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "grover-scan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
