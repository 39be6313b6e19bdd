"""Closed-loop benchmark of the dmdgp pipeline.

    python3 bench/run.py --workload grover-scan --seed 1 --seconds 20 --trace 0

One client thread in this process runs one op after another over a
generated instance pool for `--seconds`, checks every op's output, and
prints one metric per line followed by a JSON summary as the last line.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs every pool
member twice in turn, once plain and once with spans around the calls
into each dmdgp module, and reports the per-layer metrics.
Times are scaled to nominal machine speed by a reference pass timed
around each op (calibration.py).
`--workload all` runs each workload in a fresh process, one after
another.  Full records (traffic, environment, ops, failures, spans) go
to `--out`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Pinned before numpy is imported, so BLAS runs on the client thread only.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOAD_NAMES = ("grover-scan", "grover-wide", "solve-wide", "solve-deep")
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Set-ups per run; setup_s is their median.
SETUPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                   help="directory for the full run records")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples beyond it; the maximum when that percentile
    would lie below the median."""
    ordered = sorted(values)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return (ordered[-TAIL_BEYOND - 1],
            100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered), TAIL_BEYOND)


# -- one workload in this process


class Runner:
    """Runs checked ops over a pool and keeps every outcome."""

    def __init__(self, workload, seed: int, calibrator):
        self.workload = workload
        self.seed = seed
        self.calibrator = calibrator
        self.ops: list[dict] = []
        self.failures: list[dict] = []

    def timed(self, fn):
        """(fn(), wall ms, factor to nominal machine speed)."""
        before = self.calibrator.reference_ms()
        start = time.perf_counter_ns()
        result = fn()
        raw_ms = (time.perf_counter_ns() - start) / 1e6
        return result, raw_ms, self.calibrator.scale(before, self.calibrator.reference_ms())

    def run_op(self, case_index: int, case, phase: str, tracer=None) -> int:
        """One checked op, traced if a tracer is given; returns its index in `ops`.

        `ms` is the op's wall time `raw_ms` scaled to nominal machine
        speed.  A crash and a wrong output are both recorded as a failed
        op with the exception type, and the run goes on.
        """
        op_id = len(self.ops)

        def attempt():
            try:
                op = lambda: self.workload.op(case, self.seed)  # noqa: E731
                return (tracer.run(op_id, op) if tracer else op()), None
            except Exception as exc:
                return None, f"{type(exc).__name__}: {exc}"

        (result, error), raw_ms, scale = self.timed(attempt)
        if error is None:
            try:
                self.workload.check(case, result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        record = {"op": op_id, "case": case_index, "phase": phase, "ok": error is None,
                  "ms": raw_ms * scale, "raw_ms": raw_ms, "scale": scale}
        self.ops.append(record)
        if error is not None:
            self.failures.append({**record, "error": error[:500]})
        return op_id


def environment() -> dict:
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "thread_env": {var: os.environ[var] for var in THREAD_ENV}}


def run_workload(args: argparse.Namespace) -> dict:
    import resource

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, workload.calibrator())
    workdir = args.out / f"pool-{args.workload}-{os.getpid()}"
    setups = []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            # members are timed one by one, so that the calibration follows
            # the machine through a set-up that takes seconds (solve-deep)
            built = [runner.timed(lambda i=i: workloads.build_case(workload, args.seed, i, workdir))
                     for i in range(len(workload.members))]
            pool = [case for case, _, _ in built]
            warm = runner.ops[runner.run_op(0, pool[0], "warmup")]
            setups.append({"s": (sum(ms * scale for _, ms, scale in built) + warm["ms"]) / 1e3,
                           "raw_s": (sum(ms for _, ms, _ in built) + warm["raw_ms"]) / 1e3})

        tracer = tracing.Tracer()
        plain, traced, visits = [], [], 0
        start = time.perf_counter()
        deadline = start + args.seconds
        while time.perf_counter() < deadline:
            i = visits % len(pool)
            if args.trace:
                # the same member plain and traced, alternating which goes first
                for use_tracer in ((False, True) if visits % 2 == 0 else (True, False)):
                    if use_tracer:
                        traced.append(runner.run_op(i, pool[i], "traced", tracer))
                    else:
                        plain.append(runner.run_op(i, pool[i], "measure"))
            else:
                plain.append(runner.run_op(i, pool[i], "measure"))
            visits += 1
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [runner.ops[k] for k in plain]
    latencies = [op["ms"] for op in measured]
    busy_s = sum(latencies) / 1e3
    done = [op for op in measured if op["ok"]]
    tail_ms, tail_pct, tail_n = tail(latencies)
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "wall_s": wall,
        "members": [{"n": n, "long_edge_prob": lep} for n, lep in workload.members],
        "instances": [case.traffic() for case in pool],
        "environment": environment(),
        "setups": setups,
        "raw": {"latency_p50_ms": statistics.median(op["raw_ms"] for op in measured),
                "setup_s": statistics.median(s["raw_s"] for s in setups),
                "scale_p50": statistics.median(op["scale"] for op in measured)},
        "attempted": len(runner.ops), "failed": len(runner.failures),
        "error_rate": len(runner.failures) / len(runner.ops),
        "latency_tail": {"percentile": tail_pct, "beyond": tail_n, "samples": len(latencies)},
        "ops": runner.ops, "failures": runner.failures,
    }
    if not args.trace:
        record["metrics"] = {
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (len(done) / busy_s, "1/s"),
            "candidates_per_s": (sum(workload.candidates(pool[op["case"]]) for op in done) / busy_s,
                                 "1/s"),
            "setup_s": (statistics.median(s["s"] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        profs = tracing.profiles(tracer.spans)
        for k in traced:
            profs[k].scale = runner.ops[k]["scale"]
        traced_ok = [profs[k] for k in traced if runner.ops[k]["ok"]]
        record["metrics"] = tracing.layer_metrics(
            traced_ok, statistics.median(latencies),
            statistics.median(runner.ops[k]["ms"] for k in traced))
        record["layer_share"] = tracing.layer_share(traced_ok)
        record["span_coverage"] = 1.0 - record["layer_share"].get(tracing.ROOT, 0.0)
        record["spans"] = [vars(s) for s in tracer.spans]
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines and return the summary object."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']} trace {record['trace']}")
    env = record["environment"]
    print(f"environment: Python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}")
    metrics = record["metrics"]
    t = record["latency_tail"]
    raw = record["raw"]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} samples beyond)"
        elif name == "latency_p50_ms":
            note = (f"  ({t['samples']} samples; wall clock {raw['latency_p50_ms']:.6g} ms "
                    f"at speed scale {raw['scale_p50']:.3f})")
        elif name == "setup_s":
            note = (f"  (median of {len(record['setups'])} set-ups incl. warm-up op; "
                    f"wall clock {raw['setup_s']:.6g} s)")
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"error_rate {record['error_rate']:.6g}  "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for kind, n in Counter(f["error"].split(":", 1)[0] for f in record["failures"]).items():
        print(f"  failures {kind}: {n}")
    if "layer_share" in record:
        print(f"named spans cover {100 * record['span_coverage']:.1f}% of traced op time; "
              "self-time shares: "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in record["layer_share"].items()))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# -- every workload, each in a fresh process


def run_all(args: argparse.Namespace) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmdgp" / "__init__.py").is_file():
        print(f"bench: no dmdgp sources under {SRC}", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import dmdgp

    if Path(dmdgp.__file__).resolve().parent != (SRC / "dmdgp").resolve():
        print(f"bench: imported dmdgp from {dmdgp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run_workload(args)
    summary = report(record)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"record: {path}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
