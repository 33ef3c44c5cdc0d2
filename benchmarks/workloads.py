"""Seeded op lists for the benchmark workloads.

An op is one in-process ``anonkey.cli.run_cli`` call writing to a file, or
one public library call for a figure the CLI cannot produce.  Every pass of
a workload has a fixed count of each op kind and a near-constant cost: the
seed picks parameters inside fixed cost strata (sizes come in pairs whose
squares sum to a constant where cost grows as the square) and the order, so
the time of a pass is comparable from one seed to the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass
class Op:
    kind: str
    argv: list  # CLI arguments without ``--out``; empty for library calls
    params: dict
    cost: float  # rough relative cost; the cheapest op of a kind is repeated


RING_SIZES = (4, 8, 16)
ESTIMATORS = ("heterodyne", "canonical", "heterodyne-resend")
SIZES = {
    "full": {
        "stream_k": (16, 32, 64, 128),
        "stream_trials": (4, 8, 12, 16),
        "bulk_k": (512, 1024, 2048),
        "detect_small": (8, 60),
        "detect_pair": (32, 192),
        "sphere_pair": (50, 150),
        # Monte Carlo trials that make every Monte Carlo op take about the same
        # time, so the median op of a pass is always one of them
        "opaque_trials": 1_000_000,
        "aki_trials": 300_000,
        "coherent_trials": {"heterodyne": 350_000, "canonical": 420_000,
                            "heterodyne-resend": 1_250_000},
    },
    "tiny": {
        "stream_k": (4, 8),
        "stream_trials": (1, 2),
        "bulk_k": (4, 8, 16),
        "detect_small": (8, 12),
        "detect_pair": (8, 24),
        "sphere_pair": (30, 40),
        "opaque_trials": 2_000,
        "aki_trials": 2_000,
        "coherent_trials": dict.fromkeys(ESTIMATORS, 2_000),
    },
}

COHERENT_M = 4096


def _args(*items) -> list:
    return [str(x) for x in items]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _balanced_pair(rng: random.Random, lo: int, hi: int, step: int) -> tuple[int, int]:
    """Two sizes in [lo, hi] whose squares sum to about lo^2 + hi^2."""
    a = rng.randrange(lo, hi + 1, step)
    b = step * round(math.sqrt(lo * lo + hi * hi - a * a) / step)
    return a, min(max(b, lo), hi)


def _ake(rng, k, trials, eve, loss, depolarize, transcript=False, M=None) -> Op:
    M = M or rng.choice(RING_SIZES)
    fmt = rng.choice(("csv", "json"))
    argv = _args(
        "ake", "--k", k, "--trials", trials, "--M", M, "--eve", eve, "--loss", loss,
        "--depolarize", depolarize, "--seed", _seed(rng), "--format", fmt,
    )
    if transcript:
        argv.append("--transcript")
    params = dict(k=k, trials=trials, M=M, eve=eve, loss=loss, depolarize=depolarize,
                  fmt=fmt, transcript=transcript)
    return Op("ake", argv, params, cost=k * k * trials if transcript else k * trials)


def _ake_stream(rng: random.Random, s: dict) -> list[Op]:
    ks, trial_counts = s["stream_k"], s["stream_trials"]
    n = len(ks) * len(trial_counts)
    eves = ["opaque", "impersonate-order", "translucent"] * max(1, n // 8)
    eves += ["none"] * (n - len(eves))
    rng.shuffle(eves)
    clean = math.ceil(0.4 * eves.count("none"))  # honest, lossless, noiseless
    ops = []
    for k in ks:
        trials = list(trial_counts)
        rng.shuffle(trials)
        for t in trials:
            eve = eves[len(ops)]
            if eve == "none" and clean:
                clean -= 1
                loss = depolarize = 0.0
            else:
                loss = round(rng.uniform(0.0, 0.15), 4)
                depolarize = round(rng.uniform(0.0, 0.05), 4)
            ops.append(_ake(rng, k, t, eve, loss, depolarize))
    return ops


def _ake_bulk(rng: random.Random, s: dict) -> list[Op]:
    ks = s["bulk_k"]
    opaque = rng.randrange(len(ks))
    return [
        _ake(rng, k, 1, "opaque" if i == opaque else "none",
             round(rng.uniform(0.0, 0.1), 4), 0.0, transcript=True)
        for i, k in enumerate(ks)
    ]


def _detect(rng, ms: list, six_state: bool) -> Op:
    fmt = rng.choice(("csv", "json"))
    argv = _args("detect", "--M", ",".join(map(str, ms)), "--format", fmt)
    if six_state:
        argv.append("--six-state")
    return Op("detect", argv, dict(Ms=ms, six_state=six_state, fmt=fmt),
              cost=sum(m * m for m in ms))


def _sphere(n: int) -> Op:
    return Op("sphere", [], dict(n=n), cost=n * n)


def _attack(rng, strategy: str, k: int, ms: list, trials: int) -> Op:
    fmt = rng.choice(("csv", "json"))
    argv = _args("attack", "--strategy", strategy, "--k", k, "--M", ",".join(map(str, ms)),
                 "--trials", trials, "--seed", _seed(rng), "--format", fmt)
    return Op(f"attack:{strategy}", argv, dict(k=k, Ms=ms, trials=trials, fmt=fmt),
              cost=trials * len(ms) if strategy == "opaque" else k)


def _aki(rng, m_list: list, M: int, trials: int) -> Op:
    fmt = rng.choice(("csv", "json"))
    argv = _args("aki", "--m", ",".join(map(str, m_list)), "--M", M, "--trials", trials,
                 "--seed", _seed(rng), "--format", fmt)
    return Op("aki", argv, dict(m_list=m_list, M=M, trials=trials, fmt=fmt),
              cost=trials * sum(m_list))


def _coherent(rng, estimator: str, alphas: list, trials: int) -> Op:
    fmt = rng.choice(("csv", "json"))
    argv = _args("coherent", "--alpha0", ",".join(map(str, alphas)), "--M", COHERENT_M,
                 "--estimator", estimator, "--trials", trials, "--seed", _seed(rng),
                 "--format", fmt)
    return Op(f"coherent:{estimator}", argv,
              dict(alphas=alphas, M=COHERENT_M, trials=trials, fmt=fmt),
              cost=trials * len(alphas))


def _ring(rng, lo: int, hi: int) -> int:
    return rng.randrange(lo, hi + 1, 4)


def _analysis(rng: random.Random, s: dict) -> list[Op]:
    ops = [_detect(rng, list(_balanced_pair(rng, *s["detect_small"], 4)), six_state=True)]
    ops += [_detect(rng, [m], False) for m in _balanced_pair(rng, *s["detect_pair"], 4)]
    ops += [_sphere(n) for n in _balanced_pair(rng, *s["sphere_pair"], 1)]
    for _ in range(2):
        m = _ring(rng, 4, 64)  # the cost grows with M1 + M2, kept at 68
        ops.append(_attack(rng, "opaque", 8, [m, 68 - m], s["opaque_trials"]))
    ops.append(_attack(rng, "impersonation", rng.randint(8, 64), [4], 1))
    ops.append(_attack(rng, "translucent", rng.randint(8, 64),
                       [_ring(rng, 4, 64), _ring(rng, 4, 64)], 1))
    # m = 1..8 split into pairs (m, 9 - m): every aki op runs 18 rounds per
    # trial, at the identification protocol's M = 4
    small = rng.sample(range(1, 5), 4)
    for pair in (small[:2], small[2:]):
        m_list = [m for p in pair for m in (p, 9 - p)]
        rng.shuffle(m_list)
        ops.append(_aki(rng, m_list, 4, s["aki_trials"]))
    for est in ESTIMATORS:
        alphas = [round(rng.uniform(a, a + 6.0), 2) for a in (2.0, 8.0, 14.0)]
        rng.shuffle(alphas)
        ops.append(_coherent(rng, est, alphas, s["coherent_trials"][est]))
    return ops


_PASS_LISTS = {"ake-stream": _ake_stream, "ake-bulk": _ake_bulk, "analysis": _analysis}


def make_pass(workload: str, seed: int, index: int, scale: str = "full") -> list[Op]:
    """The ops of pass ``index``; the same arguments give the same list."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _PASS_LISTS[workload](rng, SIZES[scale])
    rng.shuffle(ops)
    return ops


def warmup(workload: str) -> list[Op]:
    """One small untimed op of each kind (and each ring size the ake ops use)."""
    rng = random.Random(f"{workload}/warmup")
    if workload.startswith("ake-"):
        eves = ("none", "opaque", "translucent")
        return [_ake(rng, 1, 1, eve, 0.0, 0.0, workload == "ake-bulk", M)
                for eve, M in zip(eves, RING_SIZES)]
    return [
        _detect(rng, [4], True),
        _sphere(30),
        _attack(rng, "opaque", 8, [4], 200),
        _attack(rng, "impersonation", 2, [4], 1),
        _attack(rng, "translucent", 2, [4], 1),
        _aki(rng, [1], 4, 200),
        *(_coherent(rng, est, [2.0], 200) for est in ESTIMATORS),
    ]
