"""One workload run in a fresh process: set up, run passes, check, report.

Started by ``run.py`` (``selftest.py`` imports its ``Runner``).  It imports ``anonkey`` from the
checkout's ``src/``, runs one untimed warm-up op of each kind, prints
``ready`` (the parent times set-up up to that line), then runs passes of the
workload's op list in a closed loop with one client until the next pass
would end after ``--seconds``.  Each op's output is checked by the oracle.
It prints one JSON line with the measurements and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
P90_MIN_OPS = 100  # at least ten samples above the 90th percentile
REFERENCE_S = 0.004  # calibration kernel time the scaled timings refer to


def _import_anonkey():
    if not (SRC / "anonkey" / "__init__.py").is_file():
        raise SystemExit(f"no anonkey package under {SRC}")
    sys.path.insert(0, str(SRC))
    import anonkey
    import anonkey.cli

    if not Path(anonkey.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"anonkey imported from {anonkey.__file__}, not from {SRC}")
    return anonkey


class Runner:
    """Executes ops, checks their output and keeps the failure count."""

    def __init__(self, anonkey, oracle, out_path: Path) -> None:
        self.ak = anonkey
        self.oracle = oracle
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_z = 0.0
        self.max_exact_err = 0.0

    def execute(self, op) -> tuple[float, object, str]:
        """Run one op; returns (seconds, exit code, output text)."""
        if op.argv:
            self.out_path.unlink(missing_ok=True)
            t0 = perf_counter()
            code = self.ak.cli.run_cli(op.argv + ["--out", str(self.out_path)])
            elapsed = perf_counter() - t0
            text = self.out_path.read_text(encoding="utf-8") if self.out_path.exists() else ""
            return elapsed, code, text
        # the sphere-grid 2/3 figure has no CLI path
        t0 = perf_counter()
        e = self.ak.states.sphere_grid_ensemble(op.params["n"])
        report = self.ak.detection.evaluate_detection(e)
        elapsed = perf_counter() - t0
        text = json.dumps({"n": op.params["n"], "p_correct": report.pc, "p_accept": report.pa})
        return elapsed, 0, text

    def fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(op.argv) or op.params}: {why}")

    def run(self, op, tracer=None) -> tuple[float, str, int]:
        """Run and check one op; returns (seconds, output, key bits)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                elapsed, code, text = self.execute(op)
            else:
                elapsed, code, text = tracer.wrap("op", self.execute)(op)
        except Exception:  # a crash is a failed op, not a dead benchmark
            self.fail(op, traceback.format_exc(limit=3))
            return perf_counter() - t0, "", 0
        verdict = self.oracle.check(op, code, text)
        self.max_z = max([self.max_z, *verdict.zs])
        self.max_exact_err = max([self.max_exact_err, *verdict.exact_errs])
        if not verdict.ok:
            self.fail(op, "; ".join(verdict.errors[:3]))
        return elapsed, text, verdict.key_bits


def _src_loc() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "anonkey").glob("*.py"))


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small numpy
    operations that does not touch anonkey.

    The host's speed drifts by up to a fifth over tens of seconds as other
    tenants load it.  Scaling a pass's op times by ``REFERENCE_S`` over the
    median kernel time measured between its ops removes most of that drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    a = np.arange(4096, dtype=float)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    m = np.full((64, 64), 1.0 / 64)
    for _ in range(10):
        m = m @ m
    return perf_counter() - t0


class Pass:
    """One run of a pass's op list: raw and scaled latencies, outputs."""

    def __init__(self, runner: Runner, ops: list, tracer=None) -> None:
        self.raw, self.outputs, self.key_bits = [], [], []
        self.kernel = [calibrate()]
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            elapsed, text, bits = runner.run(op, tracer)
            self.kernel.append(calibrate())
            self.raw.append(elapsed)
            self.outputs.append(text)
            self.key_bits.append(bits)
        self.scale = REFERENCE_S / statistics.median(self.kernel)
        self.scaled = [t * self.scale for t in self.raw]


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _end_to_end(passes: list, ops_of: list, runner: Runner) -> dict:
    """End-to-end metrics of the untraced passes, each as (value, unit, n)."""
    scaled = [x for p in passes for x in p.scaled]
    raw = [x for p in passes for x in p.raw]
    ake = [(p.scaled[i], p.key_bits[i]) for p, ops in zip(passes, ops_of)
           for i, op in enumerate(ops) if op.kind == "ake"]
    n = len(scaled)
    return {
        "wall_s": (statistics.median(sum(p.scaled) for p in passes), "s", len(passes)),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms", n),
        "op_p90_ms": (1e3 * _p90(scaled) if n >= P90_MIN_OPS else None, "ms", n),
        "key_bits_per_s": (sum(b for _, b in ake) / sum(t for t, _ in ake) if ake else None,
                           "1/s", len(ake)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_ratio": (runner.failed / runner.attempted, "ratio", runner.attempted),
        "wall_s_raw": (statistics.median(sum(p.raw) for p in passes), "s", len(passes)),
        "op_p50_ms_raw": (1e3 * statistics.median(raw), "ms", n),
        "kernel_ms": (1e3 * statistics.median(k for p in passes for k in p.kernel), "ms",
                      sum(len(p.kernel) for p in passes)),
    }


def _layer_metrics(traced: list, overheads: list, runner: Runner) -> dict:
    """Per-layer metrics: times are medians over traced passes, scaled like
    the ops; counts are those of pass 0, which repeat exactly for a seed."""
    per_pass = [(t.layer_totals(), p.scale) for t, p in traced]

    def med(i, name):
        return statistics.median(totals[i].get(name, 0.0) * k for totals, k in per_pass)

    tracer = traced[0][0]
    c = tracer.counts
    calls = per_pass[0][0][2]
    m = {
        "cli.run_cli.self_ms": med(1, "cli.run_cli"),
        "cli.run_cli.calls": calls["cli.run_cli"],
        "protocol.run_ake_session.self_ms": med(1, "protocol.run_ake_session"),
        "protocol.run_ake_session.calls": calls["protocol.run_ake_session"],
        "coding.privacy_amplify.calls": calls["coding.privacy_amplify"],
        "protocol.aborted_ratio": c["protocol.aborted"] / max(c["protocol.sessions"], 1),
        "coding.useful_key_ratio": c["protocol.key_bits"] / max(c["protocol.qubits_sent"], 1),
        "oracle.max_abs_z": runner.max_z,
        "oracle.max_exact_err": runner.max_exact_err,
        "trace.overhead_ratio": statistics.median(overheads),
        "trace.spans": len(tracer.spans),
        "src.loc": _src_loc(),
    }
    for name in {s[0] for t, _ in traced for s in t.spans} - {"op"}:
        m[f"{name}.ms"] = med(0, name)
    for name, value in c.items():
        m.setdefault(name, value)
    return m


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    anonkey = _import_anonkey()
    import oracle
    import workloads
    from tracing import Tracer

    tmp = OUT / f"worker-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(anonkey, oracle, tmp / "op.out")
        for op in workloads.warmup(args.workload):
            runner.run(op)
        print("ready", flush=True)
        # the parent scales the set-up time it measured by this factor
        print(f"scale {REFERENCE_S / statistics.median(calibrate() for _ in range(5))}", flush=True)
        if args.setup_only:
            return 0

        passes, ops_of, traced, overheads = [], [], [], []
        t_begin = perf_counter()
        while True:
            index = len(passes)
            ops = workloads.make_pass(args.workload, args.seed, index, args.scale)
            if args.trace:
                # the traced and untraced runs of a list alternate which goes first
                tracer = Tracer()
                runs = {}
                for with_trace in (index % 2 == 1, index % 2 == 0):
                    with tracer.installed(anonkey) if with_trace else contextlib.nullcontext():
                        runs[with_trace] = Pass(runner, ops, tracer if with_trace else None)
                for op, a, b in zip(ops, runs[False].outputs, runs[True].outputs):
                    if a != b:
                        runner.fail(op, "traced and untraced runs gave different bytes")
                traced.append((tracer, runs[True]))
                overheads.append(sum(runs[True].scaled) / sum(runs[False].scaled))
                passes.append(runs[False])
            else:
                passes.append(Pass(runner, ops))
            ops_of.append(ops)
            elapsed = perf_counter() - t_begin
            if elapsed + elapsed / len(passes) > args.seconds:
                break

        # identical seeds must give identical bytes: repeat the cheapest op
        # of each kind from pass 0
        ops = ops_of[0]
        cheapest = {}
        for i, op in enumerate(ops):
            if op.kind not in cheapest or op.cost < ops[cheapest[op.kind]].cost:
                cheapest[op.kind] = i
        for i in cheapest.values():
            _, text, _ = runner.run(ops[i])
            if text != passes[0].outputs[i]:
                runner.fail(ops[i], "repeat with the same seed gave different bytes")

        result = {
            "e2e": _end_to_end(passes, ops_of, runner),
            "layers": _layer_metrics(traced, overheads, runner) if args.trace else {},
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "src_loc": _src_loc(),
            },
        }
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            spans.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "op"],
                "passes": [t.spans for t, _ in traced],
            }))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
