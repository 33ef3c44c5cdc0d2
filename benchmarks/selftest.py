"""Self-test of the benchmark: tiny smoke runs and a corrupted-output check.

    python3 benchmarks/selftest.py

1. Runs every workload at tiny sizes, untraced and traced, and checks that
   every end-to-end metric is printed by name for every workload, that every
   metric of ``BENCHMARK.json`` is in the result line, that each per-layer
   metric is measured on some workload, and that no op failed.
2. Runs one op of each kind in-process, checks that the oracle accepts the
   real output, then corrupts it (``p_accept = 0.70`` and the like) and
   checks that the oracle rejects every corruption.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import csv
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRINTED = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "key_bits_per_s", "peak_rss_mb",
           "failed_ratio")
MAY_BE_ZERO = {"protocol.aborted_ratio"}


def fail(why: str) -> None:
    print(f"selftest FAILED: {why}")
    sys.exit(1)


def smoke(spec: dict) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    seen = {}
    for trace in (0, 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "0",
             "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            fail(f"smoke run --trace {trace} exited {out.returncode}: {out.stderr[-2000:]}")
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            fail(f"smoke run --trace {trace} had failed ops: "
                 f"{[x for x in lines if x.startswith('FAILED')][:5]}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for w in workloads:
            for name in PRINTED:
                if not any(x.split()[:2] == [w, name] for x in lines):
                    fail(f"{name} not printed for {w}")
            for m in wanted:
                key = f"{w}.{m['name']}"
                if key not in result["metrics"]:
                    fail(f"{key} missing from the result line")
                if result["metrics"][key]["unit"] != m["unit"]:
                    fail(f"{key} has unit {result['metrics'][key]['unit']}")
                seen[m["name"]] = seen.get(m["name"], 0) or result["metrics"][key]["value"]
    for m in spec["per_layer"]:
        if not seen[m["name"]] and m["name"] not in MAY_BE_ZERO:
            fail(f"per-layer metric {m['name']} is zero on every workload")
    print(f"smoke: {len(workloads)} workloads, {len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics present")


def _rewrite(text: str, fmt: str, row: int, column: str, value) -> str:
    """Change one cell of a CLI table and re-serialize it as the CLI does."""
    if fmt == "json":
        obj = json.loads(text)
        obj["rows"][row][column] = value
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = value
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def corruptions(op, text: str):
    """(description, corrupted text, exit code) for one op's real output."""
    p = op.params
    kind = op.kind
    if kind == "detect":
        yield "p_accept = 0.70", _rewrite(text, p["fmt"], 0, "p_accept", 0.70), 0
        yield "p_correct off by 1e-6", _rewrite(
            text, p["fmt"], 0, "p_correct", 2 / p["Ms"][0] + 1e-6), 0
        yield "not certified", _rewrite(text, p["fmt"], 0, "certified_optimal", False), 0
    elif kind == "sphere":
        r = json.loads(text)
        yield "sphere p_accept 0.70", json.dumps({**r, "p_accept": 0.70}), 0
    elif kind == "attack:impersonation":
        yield "pmf entry off", _rewrite(text, p["fmt"], 1, "probability", 0.3), 0
    elif kind == "attack:opaque":
        yield "sequential estimate 0.70", _rewrite(text, p["fmt"], 0, "sequential_estimate", 0.70), 0
    elif kind == "attack:translucent":
        yield "deterministic bits 2k+1", _rewrite(
            text, p["fmt"], 0, "deterministic_bits", 2 * p["k"] + 1), 0
    elif kind == "aki":
        yield "aki estimate 0.70", _rewrite(text, p["fmt"], 0, "estimate", 0.70), 0
    elif kind.startswith("coherent"):
        yield "coherent pa 0.60", _rewrite(text, p["fmt"], 0, "pa", 0.60), 0
    elif kind == "ake" and p["transcript"]:
        t = json.loads(text)
        yield "transcript not canonical", json.dumps(t) + "\n", 0
        t[0]["final_key_adam"] = t[0]["final_key_adam"][:-1]
        yield "key one bit short", json.dumps(t, sort_keys=True, indent=2) + "\n", 0
    elif kind == "ake":
        yield "key_bits 4k-1", _rewrite(text, p["fmt"], 0, "key_bits", 4 * p["k"] - 1), 0
        yield "keys differ", _rewrite(text, p["fmt"], 0, "keys_equal", False), 0
    yield "exit code 2", text, 2


def oracle_rejects_corruption() -> None:
    anonkey = worker._import_anonkey()
    import oracle
    import workloads

    rng = random.Random(0)
    ops = [
        workloads._detect(rng, [8, 12], True),
        workloads._sphere(30),
        workloads._attack(rng, "impersonation", 6, [4], 1),
        workloads._attack(rng, "opaque", 8, [8], 4000),
        workloads._attack(rng, "translucent", 6, [8], 1),
        workloads._aki(rng, [1, 2], 4, 4000),
        *(workloads._coherent(rng, est, [3.0], 4000) for est in workloads.ESTIMATORS),
        workloads._ake(rng, 4, 2, "none", 0.0, 0.0),
        workloads._ake(rng, 8, 1, "opaque", 0.0, 0.0, transcript=True),
    ]
    checked = 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        runner = worker.Runner(anonkey, oracle, Path(tmp) / "op.out")
        for op in ops:
            _, code, text = runner.execute(op)
            verdict = oracle.check(op, code, text)
            if not verdict.ok:
                fail(f"oracle rejects the real output of {op.kind}: {verdict.errors}")
            for what, bad, bad_code in corruptions(op, text):
                if oracle.check(op, bad_code, bad).ok:
                    fail(f"oracle accepts corrupted {op.kind} output ({what})")
                checked += 1
    print(f"oracle: accepted {len(ops)} real outputs, rejected {checked} corruptions")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    oracle_rejects_corruption()
    smoke(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
