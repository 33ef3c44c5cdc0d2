"""Experiment command line: reproduce every headline figure as a table.

Subcommands
-----------
``detect``    identification and acceptance probabilities of the optimal
              ring detector over a list of M (plus the six-pole ensemble),
              columns: ensemble, M, p_correct, p_accept, p_accept_guessing,
              certified_optimal.
``attack``    adversary analyses: ``impersonation`` (order-guess PMF rows:
              k, q, probability), ``opaque`` (M, bound, sequential estimate,
              stderr, trials, seed), ``translucent`` (k, pa, deterministic
              bits, shannon bits).
``ake``       full key sessions; per-session rows (trial, seed, aborted,
              trial_check_passed, key bits, error counts) or a full
              transcript JSON with ``--transcript``.
``aki``       identification impersonation curve over a list of m, columns:
              m, M, estimate, stderr, expected, trials, seed.
``coherent``  acceptance sweeps over amplitude and ring size for the
              heterodyne / canonical / resend estimators, columns: alpha0,
              M, estimator, pa, stderr, trials, seed.

Common flags: ``--config <json>`` (flat object of parameter names; explicit
flags override), ``--seed``, ``--trials``, ``--out``, ``--format csv|json``.
Exit codes: 0 success, 1 internal error (Python prints the traceback),
2 configuration error, 3 session abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from . import adversary, aki, coding, coherent, detection, states
from .harness import ResultTable, derive_seeds, open_output
from .protocol import EVE_STRATEGIES, ChannelModel, SessionConfig, run_ake_sessions
from .protocol import run_ake_session  # noqa: F401 - benchmarks/tracing.py patches it here

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ConfigError(Exception):
    pass


#: Allowed values of the keys that name a choice; flags and config files share them.
_CHOICES = {
    "strategy": ("impersonation", "opaque", "translucent"),
    "eve": EVE_STRATEGIES,
    "cecc": coding.CODES,
    "estimator": ("heterodyne", "canonical", "heterodyne-resend", "all"),
    "fmt": ("csv", "json"),
}


def _number_list(cfg: dict, key: str, kind: type) -> list:
    """Comma-separated positive finite numbers: ring sizes, qubit counts or amplitudes."""
    text = cfg[key]
    try:
        values = [kind(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(
            f"config key {key!r} must be comma-separated {what}, got {text!r}"
        ) from exc
    for v in values:
        if not 0 < v < math.inf:
            raise ConfigError(f"config key {key!r} entries must be positive and finite, got {v!r}")
    return values


def _ring_size(key: str, M: int) -> int:
    if M % 4 != 0:
        raise ConfigError(
            f"config key {key!r} must hold ring sizes M that are multiples of 4, got {M}"
        )
    return M


def _ring_sizes(cfg: dict) -> list[int]:
    return [_ring_size("m_list", M) for M in _number_list(cfg, "m_list", int)]


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="anonkey", description="anonymous-key protocol experiments"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON file of parameter values")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=_CHOICES["fmt"], default=None)

    p = sub.add_parser("detect", help="optimal detection figures over M")
    p.add_argument("--M", dest="m_list", default=None, help="comma list of ring sizes")
    p.add_argument("--six-state", action="store_true", dest="six_state", default=None)
    common(p)

    p = sub.add_parser("attack", help="adversary reports")
    p.add_argument("--strategy", choices=_CHOICES["strategy"], default=None)
    p.add_argument("--k", type=int, default=None, help="block count")
    p.add_argument("--M", dest="m_list", default=None, help="comma list of ring sizes")
    common(p)

    p = sub.add_parser("ake", help="full key-distribution sessions")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--M", dest="M", type=int, default=None)
    p.add_argument("--eve", choices=_CHOICES["eve"], default=None)
    p.add_argument("--cecc", choices=_CHOICES["cecc"], default=None)
    p.add_argument("--loss", type=float, default=None)
    p.add_argument("--depolarize", type=float, default=None)
    p.add_argument("--transcript", action="store_true", default=None,
                   help="emit the full transcript JSON of each session")
    common(p)

    p = sub.add_parser("aki", help="identification impersonation curves")
    p.add_argument("--m", dest="m_list", default=None, help="comma list of qubit counts")
    p.add_argument("--M", dest="M", type=int, default=None)
    common(p)

    p = sub.add_parser("coherent", help="coherent-state acceptance sweeps")
    p.add_argument("--alpha0", dest="alpha_list", default=None, help="comma list of amplitudes")
    p.add_argument("--M", dest="m_list", default=None, help="comma list of ring sizes")
    p.add_argument("--estimator", choices=_CHOICES["estimator"], default=None)
    common(p)

    return parser


_DEFAULTS: dict[str, dict] = {
    "detect": {
        "m_list": "4,8,16", "six_state": False, "seed": 0, "trials": 1,
        "fmt": "csv", "out": None,
    },
    "attack": {
        "strategy": "opaque", "k": 8, "m_list": "8", "seed": 0, "trials": 100_000,
        "fmt": "csv", "out": None,
    },
    "ake": {
        "k": 4, "M": 4, "eve": "none", "cecc": "hamming74", "loss": 0.0,
        "depolarize": 0.0, "transcript": False, "seed": 0, "trials": 1,
        "fmt": "json", "out": None,
    },
    "aki": {
        "m_list": "1,2,4,8", "M": 4, "seed": 0, "trials": 100_000,
        "fmt": "csv", "out": None,
    },
    "coherent": {
        "alpha_list": "5,10,20", "m_list": "4096", "estimator": "all",
        "seed": 0, "trials": 100_000, "fmt": "csv", "out": None,
    },
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults, then config file values, then explicit flags."""
    merged = dict(_DEFAULTS[args.subcommand])
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r} for subcommand {args.subcommand!r}")
            merged[key] = value
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    seed = merged["seed"]
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError(f"config key 'seed' must be an integer in [0, 2**64), got {seed!r}")
    for key, allowed in _CHOICES.items():
        if key in merged and merged[key] not in allowed:
            raise ConfigError(f"config key {key!r} must be one of {allowed}, got {merged[key]!r}")
    return merged


def _is_int(v) -> bool:
    # bool subclasses int, but {"trials": true} is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_positive(cfg: dict, key: str) -> int:
    v = cfg[key]
    if not _is_int(v) or v < 1:
        raise ConfigError(f"config key {key!r} must be a positive integer, got {v!r}")
    return v


def _validate_probability(cfg: dict, key: str) -> float:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
        raise ConfigError(f"config key {key!r} must be a number in [0, 1], got {v!r}")
    return float(v)


def _run_detect(cfg: dict) -> ResultTable:
    table = ResultTable(
        ["ensemble", "M", "p_correct", "p_accept", "p_accept_guessing", "certified_optimal"]
    )
    ensembles = [("circle", M, states.uniform_circle_ensemble(M)) for M in _ring_sizes(cfg)]
    if cfg["six_state"]:
        ensembles.append(("six-state", 6, states.six_state_ensemble()))
    for name, M, e in ensembles:
        report = detection.evaluate_detection(e)
        guess = detection.acceptance_probability(e, detection.uniform_guess_povm(M, 2))
        table.add(
            ensemble=name, M=M, p_correct=report.pc, p_accept=report.pa,
            p_accept_guessing=guess, certified_optimal=report.certified_optimal,
        )
    return table


def _run_attack(cfg: dict) -> ResultTable:
    strategy = cfg["strategy"]
    seed = cfg["seed"]
    trials = _validate_positive(cfg, "trials")
    if strategy == "impersonation":
        k = _validate_positive(cfg, "k")
        table = ResultTable(["strategy", "k", "q", "probability"])
        for q, prob in enumerate(adversary.impersonation_order_pmf(k)):
            table.add(strategy=strategy, k=k, q=q, probability=float(prob))
        return table
    if strategy == "opaque":
        table = ResultTable(
            ["strategy", "M", "bound", "sequential_estimate", "stderr", "trials", "seed"]
        )
        m_values = _ring_sizes(cfg)
        seeds = derive_seeds(seed, len(m_values))
        for M, s in zip(m_values, seeds):
            est, se = adversary.sequential_strategy_pc(M, trials, s)
            table.add(
                strategy=strategy, M=M, bound=adversary.opaque_bound(M),
                sequential_estimate=est, stderr=se, trials=trials, seed=seed,
            )
        return table
    # translucent
    k = _validate_positive(cfg, "k")
    table = ResultTable(["strategy", "k", "M", "pa", "deterministic_bits", "shannon_bits"])
    for M in _ring_sizes(cfg):
        pa = adversary.opaque_bound(M)
        det, sh = adversary.translucent_accounting(k, pa)
        table.add(strategy=strategy, k=k, M=M, pa=pa, deterministic_bits=det, shannon_bits=sh)
    return table


def _run_ake(cfg: dict) -> int:
    """Run the sessions and write their rows or transcripts; returns the exit code."""
    k = _validate_positive(cfg, "k")
    M = _ring_size("M", _validate_positive(cfg, "M"))
    trials = _validate_positive(cfg, "trials")
    channel = ChannelModel(
        _validate_probability(cfg, "loss"), _validate_probability(cfg, "depolarize")
    )
    seeds = derive_seeds(cfg["seed"], trials)
    batches = run_ake_sessions(
        SessionConfig(k=k, M=M, channel=channel, cecc=cfg["cecc"], pa_hash_seed=s ^ 0x5DEECE66D,
                      rng_seed=s, eve_strategy=cfg["eve"])
        for s in seeds
    )
    aborted = False
    if cfg["transcript"]:
        # each chunk's transcripts are written as they are built; the bytes
        # equal json.dumps(list, sort_keys=True, indent=2), as JSON strings
        # hold no raw newlines and indenting every line nests each object
        with open_output(cfg["out"]) as fh:
            sep = "[\n"
            for t in (t for batch in batches for t in batch.transcripts()):
                aborted |= t.aborted
                fh.write(sep + "  " + t.to_json().replace("\n", "\n  "))
                sep = ",\n"
            fh.write("\n]\n")
        return EXIT_ABORT if aborted else EXIT_OK
    rows = ResultTable(
        [
            "trial", "seed", "k", "M", "eve", "cecc", "aborted", "trial_check_passed",
            "key_bits", "keys_equal", "corrected_blocks", "expended_order_bits",
        ]
    )
    results = (row for batch in batches for row in batch.rows())
    for i, (seed, row) in enumerate(zip(seeds, results)):
        aborted |= row["aborted"]
        rows.add(trial=i, seed=seed, k=k, M=M, eve=cfg["eve"], cecc=cfg["cecc"], **row)
    rows.write(cfg["out"], cfg["fmt"])
    return EXIT_ABORT if aborted else EXIT_OK


def _run_aki(cfg: dict) -> ResultTable:
    trials = _validate_positive(cfg, "trials")
    seed = cfg["seed"]
    M = _ring_size("M", _validate_positive(cfg, "M"))
    table = ResultTable(["m", "M", "estimate", "stderr", "expected", "trials", "seed"])
    m_values = _number_list(cfg, "m_list", int)
    seeds = derive_seeds(seed, len(m_values))
    pa = adversary.opaque_bound(M)
    for m, s in zip(m_values, seeds):
        est, se = aki.aki_impersonation(m, M, trials, s)
        table.add(m=m, M=M, estimate=est, stderr=se, expected=pa**m, trials=trials, seed=seed)
    return table


def _run_coherent(cfg: dict) -> ResultTable:
    trials = _validate_positive(cfg, "trials")
    seed = cfg["seed"]
    names = (
        ("heterodyne", "canonical", "heterodyne-resend")
        if cfg["estimator"] == "all"
        else (cfg["estimator"],)
    )
    table = ResultTable(["alpha0", "M", "estimator", "pa", "stderr", "trials", "seed"])
    alphas = _number_list(cfg, "alpha_list", float)
    m_values = _number_list(cfg, "m_list", int)
    if any(M < 4 for M in m_values):
        raise ConfigError(f"config key 'm_list' entries must be at least 4, got {cfg['m_list']!r}")
    seeds = iter(derive_seeds(seed, len(alphas) * len(m_values) * len(names)))
    for a0 in alphas:
        for M in m_values:
            for name in names:
                s = next(seeds)
                if name == "heterodyne":
                    pa, se = coherent.heterodyne_pa(a0, M, trials, s)
                elif name == "canonical":
                    pa, se = coherent.canonical_phase_pa(a0, M, trials=trials, seed=s)
                else:
                    pa, se = coherent.heterodyne_resend_pa(a0, trials, s)
                table.add(alpha0=a0, M=M, estimator=name, pa=pa, stderr=se, trials=trials, seed=seed)
    return table


def run_cli(argv: list[str]) -> int:
    """Dispatch one experiment; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        if args.subcommand == "ake":
            return _run_ake(cfg)
        run = {"detect": _run_detect, "attack": _run_attack, "aki": _run_aki,
               "coherent": _run_coherent}[args.subcommand]
        run(cfg).write(cfg["out"], cfg["fmt"])
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run_cli(sys.argv[1:]))
