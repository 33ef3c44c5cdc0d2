"""Benchmark of the anonkey library and CLI.

    python3 benchmarks/run.py --workload ake-stream --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1

Each workload runs in fresh processes with BLAS/OpenMP pinned to one thread
and one closed-loop client.  Set-up (interpreter start, importing ``anonkey``
from ``src/``, one warm-up op of each kind) is timed in several fresh
processes and reported as the median.  The last process then measures the
workload (``worker.py``).  With ``--trace 0`` the result line carries the
``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries
the ``per_layer`` metrics of a traced run.  Every metric of both kinds is
printed above the result line with its unit and sample count.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  If the program cannot be set up
or measured the script exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes timed per run, the measuring one included
RUN_TIMEOUT_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, float, list[str]]:
    """Run worker.py; returns (seconds to its ``ready`` line, the factor that
    scales them to reference speed, later lines)."""
    env = dict(os.environ, **{k: "1" for k in THREAD_PINS})
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        scale, *rest = proc.stdout.read().splitlines() or [""]
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or first.strip() != "ready" or not scale.startswith("scale "):
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return ready, float(scale.split()[1]), rest


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    setup = [_spawn([*base, "--seconds", "0", "--setup-only"], deadline)[:2]
             for _ in range(SETUP_SAMPLES - 1)]
    ready, scale, rest = _spawn([*base, "--seconds", str(seconds), "--trace", str(trace)],
                                deadline)
    setup.append((ready, scale))
    if not rest:
        raise BenchError(f"worker for {workload} printed no result")
    result = json.loads(rest[-1])
    result["e2e"]["setup_s"] = (statistics.median(t * k for t, k in setup), "s", len(setup))
    result["e2e"]["setup_s_raw"] = (statistics.median(t for t, _ in setup), "s", len(setup))
    return result


def report(workload: str, result: dict, spec: dict, trace: int) -> dict:
    """Print every metric with unit and sample count; return the gated ones."""
    env = result["env"]
    print(f"# {workload}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, src {env['src_loc']} lines")
    for name, (value, unit, n) in result["e2e"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:<11} {name:<40} {shown:>14} {unit:<6} n={n}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if trace:
        for name, unit in units.items():
            value = result["layers"].get(name, 0)
            print(f"{workload:<11} {name:<40} {value:>14.6g} {unit:<6} traced")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["layers"].get(m["name"], 0) if trace else result["e2e"][m["name"]][0]
        if value is None:
            raise BenchError(f"{m['name']} was not measured on {workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "anonkey" / "__init__.py").is_file():
        print(f"no anonkey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = measure(workload, args.seed, args.seconds, args.trace, args.scale)
            metrics = report(workload, result, spec, args.trace)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
