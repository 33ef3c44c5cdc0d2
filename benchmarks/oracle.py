"""Output oracle: checks each op's output against the claim it reproduces.

Exact figures (2/M, 3/4, guessing 1/2, six-state 2/3, the optimality
certificate, the Binomial(k, 1/4) pmf, 2k translucent bits, (3/4)^m) must
match within 1e-9.  Monte Carlo estimates are z-tested against their exact
mean with the exact standard error and must satisfy |z| <= 6, so a correct
program essentially never fails.  The heterodyne and canonical-phase
acceptances have no closed form; their exact means over the phase bins are
computed here from the phase densities, independently of ``anonkey``.
Sphere grids must stay within the bands ``tests/test_detection.py`` states.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

EXACT_TOL = 1e-9
Z_MAX = 6.0
CODE_OK, CODE_ABORT = 0, 3
AKE_COLUMNS = [
    "trial", "seed", "k", "M", "eve", "cecc", "aborted", "trial_check_passed",
    "key_bits", "keys_equal", "corrected_blocks", "expended_order_bits",
]
SEND_MARGIN = 0.25  # SessionConfig default: qubits sent beyond the slots needed


class Verdict:
    """Errors, |z| values and exact-figure errors found in one op's output."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.zs: list[float] = []
        self.exact_errs: list[float] = []
        self.key_bits = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.errors.append(what)

    def exact(self, what: str, value, target: float) -> None:
        err = abs(float(value) - target)
        self.exact_errs.append(err)
        self.require(err <= EXACT_TOL, f"{what}: {value!r} differs from {target!r}")

    def z(self, what: str, estimate, mean: float, var: float, n: int) -> None:
        z = (float(estimate) - mean) / math.sqrt(var / n)
        self.zs.append(abs(z))
        self.require(abs(z) <= Z_MAX, f"{what}: {estimate!r} is {z:+.1f} sd from {mean!r}")


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_table(text: str, fmt: str) -> tuple[list, list]:
    """Columns and typed rows of a CLI table in either output format."""
    if fmt == "json":
        obj = json.loads(text)
        if json.dumps(obj, sort_keys=True, indent=2) + "\n" != text:
            raise ValueError("table JSON is not canonical")
        return obj["columns"], obj["rows"]
    reader = csv.DictReader(io.StringIO(text))
    rows = [{c: _cell(v) for c, v in row.items()} for row in reader]
    return list(reader.fieldnames or []), rows


def check(op, code, text: str) -> Verdict:
    """Check one op's exit code and output bytes."""
    v = Verdict()
    try:
        _CHECKS[op.kind.split(":")[0]](v, op, code, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        v.errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return v


def _check_ake(v: Verdict, op, code, text: str) -> None:
    p = op.params
    if p["transcript"]:
        aborted = _check_transcripts(v, p, text)
    else:
        aborted = _check_ake_rows(v, p, text)
    v.require(code == (CODE_ABORT if aborted else CODE_OK), f"exit code {code}")


def _honest(p: dict) -> bool:
    # loss only drops qubits; without noise or Eve no bit can flip
    return p["eve"] == "none" and p["depolarize"] == 0.0


def _check_ake_rows(v: Verdict, p: dict, text: str) -> bool:
    cols, rows = parse_table(text, p["fmt"])
    v.require(cols == AKE_COLUMNS, f"columns {cols}")
    v.require(len(rows) == p["trials"], f"{len(rows)} rows for {p['trials']} trials")
    aborted = False
    for i, r in enumerate(rows):
        v.require((r["trial"], r["k"], r["M"], r["eve"]) == (i, p["k"], p["M"], p["eve"]),
                  f"row {i} parameters {r}")
        if r["aborted"]:
            aborted = True
            v.require(r["key_bits"] == 0 and not r["trial_check_passed"], f"row {i} aborted")
            continue
        v.require(r["key_bits"] == 4 * p["k"], f"row {i}: {r['key_bits']} key bits")
        v.key_bits += r["key_bits"]
        if _honest(p):
            v.require(r["keys_equal"] is True and r["trial_check_passed"] is True,
                      f"row {i}: honest session disagrees")
    if p["loss"] == 0.0:
        v.require(not aborted, "lossless session aborted")
    return aborted


def _check_transcripts(v: Verdict, p: dict, text: str) -> bool:
    payload = json.loads(text)
    v.require(json.dumps(payload, sort_keys=True, indent=2) + "\n" == text,
              "transcript JSON is not canonical")
    v.require(len(payload) == p["trials"], f"{len(payload)} transcripts")
    k, M = p["k"], p["M"]
    n_coded = 14 * k  # Hamming(7,4) over 8k raw bits
    n_blocks = math.ceil(n_coded / 8)
    n_slots = 8 * n_blocks
    aborted = False
    for t in payload:
        cfg = t["config"]
        v.require((cfg["k"], cfg["M"], cfg["eve_strategy"]) == (k, M, p["eve"]),
                  f"transcript config {cfg}")
        v.require(len(t["states_sent"]) == math.ceil(n_slots * (1 + SEND_MARGIN)),
                  f"{len(t['states_sent'])} qubits sent")
        v.require(all(0 <= s < M for s in t["states_sent"]), "ring index out of range")
        if t["aborted"]:
            aborted = True
            v.require(t["final_key_adam"] == [] and not t["trial_check_passed"], "aborted")
            continue
        key_a, key_b = t["final_key_adam"], t["final_key_babe"]
        v.require(len(key_a) == len(key_b) == 4 * k, f"{len(key_a)}-bit key for k={k}")
        v.require(set(key_a) <= {0, 1} and set(key_b) <= {0, 1}, "key is not binary")
        v.require(len(t["orders_used"]) == n_blocks
                  and t["expended_order_bits"] == 2 * n_blocks, "order bookkeeping")
        v.key_bits += len(key_a)
        if _honest(p):
            v.require(key_a == key_b and t["raw_bits_adam"] == t["raw_bits_babe"]
                      and t["trial_check_passed"], "honest session disagrees")
        if p["eve"] == "opaque" and p["depolarize"] == 0.0:
            r = t["eve_report"]
            # the ring detector hits the sent state with probability 2/M and
            # its re-prepared estimate passes Adam's test with probability 3/4
            v.z("opaque hit rate", r["per_qubit_success"], 2 / M, (2 / M) * (1 - 2 / M), n_slots)
            v.z("opaque bit error", r["adam_coded_bit_error_rate"], 0.25, 0.1875, n_coded)
    return aborted


def _check_detect(v: Verdict, op, code, text: str) -> None:
    p = op.params
    _, rows = parse_table(text, p["fmt"])
    v.require(len(rows) == len(p["Ms"]) + p["six_state"], f"{len(rows)} rows")
    for M, r in zip(p["Ms"], rows):
        v.require((r["ensemble"], r["M"]) == ("circle", M), f"row {r}")
        v.exact(f"p_correct M={M}", r["p_correct"], 2 / M)
        v.exact(f"p_accept M={M}", r["p_accept"], 0.75)
        v.exact(f"p_accept_guessing M={M}", r["p_accept_guessing"], 0.5)
        v.require(r["certified_optimal"] is True, f"M={M} not certified optimal")
    if p["six_state"]:
        r = rows[-1]
        v.require((r["ensemble"], r["M"]) == ("six-state", 6), f"row {r}")
        v.exact("six-state p_accept", r["p_accept"], 2 / 3)
        v.exact("six-state p_accept_guessing", r["p_accept_guessing"], 0.5)
        v.require(r["certified_optimal"] is True, "six-state not certified optimal")
    v.require(code == CODE_OK, f"exit code {code}")


def sphere_band(n: int) -> float:
    """Distance from 2/3 allowed for an n-point sphere grid (test_detection)."""
    return 1e-4 if n >= 100 else 1e-3


def _check_sphere(v: Verdict, op, code, text: str) -> None:
    r = json.loads(text)
    n = op.params["n"]
    v.require(r["n"] == n, f"n={r['n']}")
    v.require(abs(r["p_accept"] - 2 / 3) <= sphere_band(n),
              f"sphere n={n}: p_accept {r['p_accept']!r} outside 2/3 +- {sphere_band(n)}")
    v.require(r["p_accept"] >= r["p_correct"] - EXACT_TOL, f"sphere n={n}: P_a < P_c")
    v.require(code == CODE_OK, f"exit code {code}")


def _binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _check_attack(v: Verdict, op, code, text: str) -> None:
    p = op.params
    strategy = op.kind.split(":")[1]
    _, rows = parse_table(text, p["fmt"])
    if strategy == "impersonation":
        k = p["k"]
        v.require([r["q"] for r in rows] == list(range(k + 1)), "impersonation rows")
        for r in rows:
            q = r["q"]
            v.exact(f"Binomial({k},1/4) at {q}", r["probability"],
                    float(Fraction(math.comb(k, q) * 3 ** (k - q), 4**k)))
    elif strategy == "opaque":
        v.require([r["M"] for r in rows] == p["Ms"], "opaque rows")
        for r in rows:
            v.exact(f"opaque bound M={r['M']}", r["bound"], 0.75)
            v.require(r["trials"] == p["trials"], "trials column")
            v.z(f"sequential M={r['M']}", r["sequential_estimate"], 0.75, 0.1875, p["trials"])
    else:
        k = p["k"]
        v.require([r["M"] for r in rows] == p["Ms"], "translucent rows")
        for r in rows:
            v.exact(f"translucent pa M={r['M']}", r["pa"], 0.75)
            v.require(r["deterministic_bits"] == 2 * k, f"{r['deterministic_bits']} != 2k")
            v.exact("translucent shannon bits", r["shannon_bits"],
                    6 * k * (1 - _binary_entropy(0.75)))
    v.require(code == CODE_OK, f"exit code {code}")


def _check_aki(v: Verdict, op, code, text: str) -> None:
    p = op.params
    _, rows = parse_table(text, p["fmt"])
    v.require([r["m"] for r in rows] == p["m_list"], "aki rows")
    for r in rows:
        target = 0.75 ** r["m"]
        v.exact(f"aki expected m={r['m']}", r["expected"], target)
        v.z(f"aki m={r['m']}", r["estimate"], target, target * (1 - target), p["trials"])
    v.require(code == CODE_OK, f"exit code {code}")


def _bins(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres and edges of the phase bins an estimate is rounded into."""
    step = 2 * math.pi / M
    j = np.arange(-(M // 2), M // 2 + 1)
    lo = np.maximum((j - 0.5) * step, -math.pi)
    hi = np.minimum((j + 0.5) * step, math.pi)
    return j * step, lo, hi


def _acceptance_moments(alpha0: float, M: int, prob: np.ndarray) -> tuple[float, float]:
    centres, _, _ = _bins(M)
    acc = np.exp(-2 * alpha0**2 * (1 - np.cos(centres)))
    mean = float(prob @ acc)
    return mean, float(prob @ acc**2) - mean**2


@lru_cache(maxsize=64)
def heterodyne_moments(alpha0: float, M: int) -> tuple[float, float]:
    """Exact mean and variance of the heterodyne acceptance.

    The outcome phase of a coherent state under unit-variance heterodyne
    noise has the density (1/2pi)[e^{-a^2} + sqrt(pi) a cos t e^{-a^2 sin^2 t}
    (1 + erf(a cos t))], integrated over each bin by 8-point Gauss-Legendre.
    """
    _, lo, hi = _bins(M)
    x, w = np.polynomial.legendre.leggauss(8)
    half = (hi - lo)[:, None] / 2
    t = (lo + hi)[:, None] / 2 + half * x
    c = alpha0 * np.cos(t)
    erfc = np.vectorize(math.erfc)(-c)  # 1 + erf(c)
    dens = (math.exp(-alpha0**2) + math.sqrt(math.pi) * c
            * np.exp(-(alpha0 * np.sin(t)) ** 2) * erfc) / (2 * math.pi)
    return _acceptance_moments(alpha0, M, (half * w * dens).sum(axis=1))


@lru_cache(maxsize=64)
def canonical_moments(alpha0: float, M: int) -> tuple[float, float]:
    """Exact mean and variance of the canonical-phase acceptance.

    With Poisson amplitudes c_n, the density |sum c_n e^{int}|^2 / 2pi has
    the antiderivative t r_0 / 2pi + (1/pi) sum_d r_d sin(d t) / d, where
    r_d = sum_n c_n c_{n+d}; bin probabilities are its differences.
    """
    n_max = math.ceil(alpha0**2 + 10 * alpha0 + 40)
    n = np.arange(n_max + 1)
    log_c = -alpha0**2 / 2 + n * math.log(alpha0) - 0.5 * np.array([math.lgamma(x + 1) for x in n])
    c = np.exp(log_c)
    r = np.correlate(c, c, "full")[n_max:]
    d = np.arange(1, n_max + 1)
    _, lo, hi = _bins(M)
    edges = np.append(lo, hi[-1])
    g = edges * r[0] / (2 * math.pi) + (np.sin(np.multiply.outer(edges, d)) @ (r[1:] / d)) / math.pi
    return _acceptance_moments(alpha0, M, np.diff(g))


def _check_coherent(v: Verdict, op, code, text: str) -> None:
    p = op.params
    estimator = op.kind.split(":")[1]
    _, rows = parse_table(text, p["fmt"])
    v.require([r["alpha0"] for r in rows] == p["alphas"], "coherent rows")
    for r in rows:
        a0 = float(r["alpha0"])
        v.require((r["M"], r["estimator"], r["trials"]) == (p["M"], estimator, p["trials"]),
                  f"row {r}")
        if estimator == "heterodyne-resend":
            # acceptance e^{-|n|^2} with |n|^2 ~ Exp(1): mean 1/2, variance 1/12
            mean, var = 0.5, 1 / 12
        elif estimator == "heterodyne":
            mean, var = heterodyne_moments(a0, p["M"])
        else:
            mean, var = canonical_moments(a0, p["M"])
        v.z(f"{estimator} alpha0={a0}", r["pa"], mean, var, p["trials"])
    v.require(code == CODE_OK, f"exit code {code}")


_CHECKS = {
    "ake": _check_ake,
    "detect": _check_detect,
    "sphere": _check_sphere,
    "attack": _check_attack,
    "aki": _check_aki,
    "coherent": _check_coherent,
}
