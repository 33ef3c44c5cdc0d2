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

Common flags: ``--config <json>`` (flat object of parameter names, each value
of its flag's JSON type: true/false for a switch, a comma string for a list,
a string or null for ``out``; explicit flags override), ``--out``, ``--format
csv|json``; all but ``detect`` take ``--seed`` and ``--trials``.  Every list
needs at least one entry.  The CLI checks switches, paths, list syntax and choices;
every number rule, type included, is the library's ``require_*`` function for the
value: ``harness.require_count`` for a count (``trials``, ``m``, ``k`` of ``attack``),
an integer in [1, 2**63), and ``adversary.require_order_blocks`` for ``k`` of the
``impersonation`` strategy, at most 2**18; ``states.require_ring_size`` for a ring
``M``, at most 2**20; ``harness.require_seed`` for the seed.  A value a rule refuses
exits 2 before anything runs.
Exit codes: 0 success, 1 internal error (Python prints the traceback), 2 configuration
error (also an unreadable ``--config`` or unwritable ``--out``), 3 session abort.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import lru_cache, partial

from . import adversary, aki, coding, coherent, detection, states
from .harness import ResultTable, derive_seeds, require_count, require_probability, require_seed
from .protocol import (EVE_STRATEGIES, ChannelModel, SessionConfig, require_block_count,
                       run_ake_sessions)
from .protocol import run_ake_session  # noqa: F401 - benchmarks/tracing.py patches it here

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ConfigError(Exception):
    pass


def _rule(key: str, value, rule):
    """``value``, once the library input ``rule`` accepts it; its ValueError names the key."""
    try:
        rule(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    return value


def _number(key: str, v, rule=require_count):
    """``v``, once the library ``rule(key, v)`` accepts it: by default the count rule."""
    return _rule(key, v, partial(rule, key))


_ring_size = partial(_rule, rule=states.require_ring_size)
_block_count = partial(_rule, rule=require_block_count)
_probability = partial(_number, rule=require_probability)


def _switch(key: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {v!r}")
    return v


def _path(key: str, v) -> str | None:
    if v is not None and not isinstance(v, str):
        raise ConfigError(f"config key {key!r} must be a path string or null, got {v!r}")
    return v


def _numbers(key: str, text, kind: type, rule) -> list:
    """Comma-separated numbers of ``kind``, each passing the library ``rule``."""
    try:
        values = [kind(x) for x in text.split(",") if x != ""]
    except (AttributeError, ValueError) as exc:  # AttributeError: not a string
        what = "integers" if kind is int else "numbers"
        raise ConfigError(
            f"config key {key!r} must be comma-separated {what}, got {text!r}"
        ) from exc
    if not values:
        raise ConfigError(f"config key {key!r} must list at least one entry, got {text!r}")
    return [_rule(key, v, rule) for v in values]


_counts = partial(_numbers, kind=int, rule=partial(require_count, "m"))
_ring_sizes = partial(_numbers, kind=int, rule=states.require_ring_size)
_grid_sizes = partial(_numbers, kind=int, rule=coherent.require_grid_size)
_amplitudes = partial(_numbers, kind=float, rule=coherent.require_amplitude)


def _choice(flag: str, allowed: tuple, default: str) -> tuple:
    def check(key: str, v) -> str:
        if v not in allowed:
            raise ConfigError(f"config key {key!r} must be one of {allowed}, got {v!r}")
        return v

    return flag, check, default, {"choices": allowed}


def _output(fmt: str = "csv") -> dict[str, tuple]:
    return {
        "out": ("--out", _path, None, {"help": "output path (default stdout)"}),
        "fmt": _choice("--format", ("csv", "json"), fmt),
    }


def _monte_carlo(trials: int, fmt: str = "csv") -> dict[str, tuple]:
    """The seed, trial count and output keys of a Monte Carlo subcommand."""
    return {
        "seed": ("--seed", partial(_number, rule=require_seed), 0,
                 {"type": int, "help": "master seed"}),
        "trials": ("--trials", _number, trials, {"type": int, "help": "Monte Carlo trials"}),
        **_output(fmt),
    }


_ESTIMATORS = ("heterodyne", "canonical", "heterodyne-resend")
_RING_LIST = {"help": "comma list of ring sizes"}

#: Each subcommand's help line and config keys; a key maps to its flag, its check,
#: its default and the flag's other argparse settings.  A check takes the key and
#: a flag or config-file value, and returns the typed value or raises ConfigError.
_SUBCOMMANDS: dict[str, tuple[str, dict[str, tuple]]] = {
    "detect": ("optimal detection figures over M", {
        "m_list": ("--M", _ring_sizes, "4,8,16", _RING_LIST),
        "six_state": ("--six-state", _switch, False, {"action": "store_true"}),
        **_output(),
    }),
    "attack": ("adversary reports", {
        "strategy": _choice("--strategy", ("impersonation", "opaque", "translucent"), "opaque"),
        "k": ("--k", _number, 8, {"type": int, "help": "block count"}),
        "m_list": ("--M", _ring_sizes, "8", _RING_LIST),
        **_monte_carlo(100_000),
    }),
    "ake": ("full key-distribution sessions", {
        "k": ("--k", _block_count, 4, {"type": int}),
        "M": ("--M", _ring_size, 4, {"type": int}),
        "eve": _choice("--eve", EVE_STRATEGIES, "none"),
        "cecc": _choice("--cecc", coding.CODES, "hamming74"),
        "loss": ("--loss", _probability, 0.0, {"type": float}),
        "depolarize": ("--depolarize", _probability, 0.0, {"type": float}),
        "transcript": ("--transcript", _switch, False, {
            "action": "store_true", "help": "emit the full transcript JSON of each session"}),
        **_monte_carlo(1, "json"),
    }),
    "aki": ("identification impersonation curves", {
        "m_list": ("--m", _counts, "1,2,4,8", {"help": "comma list of qubit counts"}),
        "M": ("--M", _ring_size, 4, {"type": int}),
        **_monte_carlo(100_000),
    }),
    "coherent": ("coherent-state acceptance sweeps", {
        "alpha_list": ("--alpha0", _amplitudes, "5,10,20", {"help": "comma list of amplitudes"}),
        "m_list": ("--M", _grid_sizes, "4096", _RING_LIST),
        "estimator": _choice("--estimator", (*_ESTIMATORS, "all"), "all"),
        **_monte_carlo(100_000),
    }),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="anonkey", description="anonymous-key protocol experiments"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="JSON file of parameter values")
        for key, (flag, _, _, settings) in keys.items():
            p.add_argument(flag, dest=key, default=None, **settings)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults, then config file values, then explicit flags; each key's check
    runs once on the value that wins, and the typed values are returned."""
    keys = _SUBCOMMANDS[args.subcommand][1]
    merged = {key: default for key, (_, _, default, _) in keys.items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config key 'config' names an unreadable file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r} for subcommand {args.subcommand!r}")
            merged[key] = value
    for key, (_, check, _, _) in keys.items():
        flag = getattr(args, key)
        merged[key] = check(key, merged[key] if flag is None else flag)
    # the rules that span keys: the phase estimators' amplitude budget and
    # the impersonation PMF's block budget
    if merged.get("estimator") in ("heterodyne", "canonical", "all"):
        for a0 in merged["alpha_list"]:
            _rule("alpha_list", a0, coherent.require_phase_amplitude)
    if merged.get("strategy") == "impersonation":
        _rule("k", merged["k"], adversary.require_order_blocks)
    return merged


def _run_detect(cfg: dict) -> ResultTable:
    table = ResultTable(
        ["ensemble", "M", "p_correct", "p_accept", "p_accept_guessing", "certified_optimal"]
    )
    ensembles = [("circle", M, states.uniform_circle_ensemble(M)) for M in cfg["m_list"]]
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
    strategy, k, seed, trials = cfg["strategy"], cfg["k"], cfg["seed"], cfg["trials"]
    if strategy == "impersonation":
        table = ResultTable(["strategy", "k", "q", "probability"])
        for q, prob in enumerate(adversary.impersonation_order_pmf(k)):
            table.add(strategy=strategy, k=k, q=q, probability=float(prob))
        return table
    if strategy == "opaque":
        table = ResultTable(
            ["strategy", "M", "bound", "sequential_estimate", "stderr", "trials", "seed"]
        )
        seeds = derive_seeds(seed, len(cfg["m_list"]))
        for M, s in zip(cfg["m_list"], seeds):
            est, se = adversary.sequential_strategy_pc(M, trials, s)
            table.add(
                strategy=strategy, M=M, bound=adversary.opaque_bound(M),
                sequential_estimate=est, stderr=se, trials=trials, seed=seed,
            )
        return table
    # translucent
    table = ResultTable(["strategy", "k", "M", "pa", "deterministic_bits", "shannon_bits"])
    for M in cfg["m_list"]:
        pa = adversary.opaque_bound(M)
        det, sh = adversary.translucent_accounting(k, pa)
        table.add(strategy=strategy, k=k, M=M, pa=pa, deterministic_bits=det, shannon_bits=sh)
    return table


def _open_output(path: str | None):
    """The file at ``path``, opened for writing before the run, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config key 'out' names an unwritable file: {exc}") from exc


def _run_ake(cfg: dict, fh) -> int:
    """Run the sessions and write their rows or transcripts to ``fh``; returns the exit code."""
    k, M = cfg["k"], cfg["M"]
    channel = ChannelModel(cfg["loss"], cfg["depolarize"])
    session = SessionConfig(k=k, M=M, channel=channel, cecc=cfg["cecc"], eve_strategy=cfg["eve"])
    seeds = derive_seeds(cfg["seed"], cfg["trials"])
    batches = run_ake_sessions(session, seeds)
    aborted = False
    if cfg["transcript"]:
        # each chunk's transcripts are written as they are built; the bytes
        # equal json.dumps(list, sort_keys=True, indent=2), as JSON strings
        # hold no raw newlines and indenting every line nests each object
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
    rows.write(fh, cfg["fmt"])
    return EXIT_ABORT if aborted else EXIT_OK


def _run_aki(cfg: dict) -> ResultTable:
    M, seed, trials = cfg["M"], cfg["seed"], cfg["trials"]
    table = ResultTable(["m", "M", "estimate", "stderr", "expected", "trials", "seed"])
    seeds = derive_seeds(seed, len(cfg["m_list"]))
    pa = adversary.opaque_bound(M)
    for m, s in zip(cfg["m_list"], seeds):
        est, se = aki.aki_impersonation(m, M, trials, s)
        table.add(m=m, M=M, estimate=est, stderr=se, expected=pa**m, trials=trials, seed=seed)
    return table


def _run_coherent(cfg: dict) -> ResultTable:
    seed, trials, alphas, m_values = cfg["seed"], cfg["trials"], cfg["alpha_list"], cfg["m_list"]
    names = _ESTIMATORS if cfg["estimator"] == "all" else (cfg["estimator"],)
    table = ResultTable(["alpha0", "M", "estimator", "pa", "stderr", "trials", "seed"])
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
        out = _open_output(cfg["out"])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:
        if args.subcommand == "ake":
            return _run_ake(cfg, fh)
        run = {"detect": _run_detect, "attack": _run_attack, "aki": _run_aki,
               "coherent": _run_coherent}[args.subcommand]
        run(cfg).write(fh, cfg["fmt"])
    return EXIT_OK


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run_cli(sys.argv[1:]))
