"""Seeded experiment plumbing: per-trial seeds and result tables.

Monte Carlo experiments split a master seed into per-trial seeds read from
one counter-based Philox stream, so seed ``i`` depends only on
``(master_seed, i)`` and aggregate results do not care how trials were
scheduled.  Result rows carry their parameters, estimate, standard error,
trial count and seed, and serialize to CSV or to a canonical JSON form whose
parse/re-serialize round trip is byte-identical.  :func:`canonical_json`
writes that form in one pass for large values such as session transcripts.
:func:`require_count` (the one rule for every count: an integer in ``[1, 2**63)``),
:func:`require_probability`, :func:`require_angle` and :func:`require_seed` are input
rules for every module.
Each checks the value's type as well as its range, through :func:`is_integer`
(a ``numbers.Integral`` that is not a ``bool``) or :func:`is_real` (a
``numbers.Real`` that is not a ``bool``).  :func:`seeded_rng` is
``np.random.default_rng`` behind the seed rule, and :func:`binomial_fraction` the one
draw of the ring kernels.  :func:`log_poisson` is the one log-PMF: Loader's form of the
Poisson law, read by the order-guess binomial and the coherent-state Fock amplitudes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from numbers import Integral, Real

import numpy as np

# stirlerr(n) of log_poisson for n < 16, where its series is short of double precision
_STIRLERR = np.array([0.0] + [math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
                              - 0.5 * math.log(2.0 * math.pi) for n in range(1, 16)])


def is_integer(value) -> bool:
    """Is ``value`` a ``numbers.Integral`` other than a ``bool``?  A plain int is checked first."""
    return type(value) is int or isinstance(value, Integral) and type(value) is not bool


def is_real(value) -> bool:
    """Is ``value`` a ``numbers.Real`` other than a ``bool``?  A float or int is checked first."""
    return type(value) in (float, int) or isinstance(value, Real) and type(value) is not bool


def require_count(name: str, value) -> None:
    """Raise unless the count ``name`` is an integer in ``[1, 2**63)``: an int64, as
    ``rng.binomial`` and ``rng.multinomial`` take a count of trials in one draw."""
    if not (is_integer(value) and 1 <= value < 2**63):
        raise ValueError(f"{name} must be an integer in [1, 2**63), got {value!r}")


def require_probability(name: str, value) -> None:
    """Raise unless the probability ``name`` is a real number in [0, 1]; NaN fails too."""
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def require_angle(name: str, value) -> None:
    """Raise unless the angle ``name`` is a finite real number (radians)."""
    if not (is_real(value) and -np.inf < value < np.inf):
        raise ValueError(f"{name} must be a finite angle, got {value!r}")


def require_seed(name: str, value) -> None:
    """Raise unless the seed ``name`` is an integer in [0, 2**64)."""
    if not (is_integer(value) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def seeded_rng(name: str, seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, once :func:`require_seed` accepts the seed ``name``."""
    require_seed(name, seed)
    return np.random.default_rng(seed)


def binomial_stderr(p: float, n: int) -> float:
    """Binomial standard error of a fraction ``p`` over ``n`` trials, kept above zero."""
    return float(np.sqrt(max(p * (1.0 - p), 1e-300) / n))


def binomial_fraction(p: float, trials: int, seed: int) -> tuple[float, float]:
    """The fraction of ``trials`` that succeed, each with probability ``p``, from one
    ``rng.binomial`` draw on ``seeded_rng("seed", seed)``, and its :func:`binomial_stderr`."""
    require_count("trials", trials)
    est = int(seeded_rng("seed", seed).binomial(trials, p)) / trials
    return est, binomial_stderr(est, trials)


def _bd0(x: np.ndarray, lam: float) -> np.ndarray:
    """Loader's ``bd0(x, lam) = x log(x / lam) + lam - x`` for ``x > 0``; within 10% of
    ``lam`` it is summed as a series free of cancellation."""
    out = x * (np.log(x) - math.log(lam)) + lam - x
    near = np.flatnonzero(np.abs(x - lam) < 0.1 * (x + lam))
    v = (x[near] - lam) / (x[near] + lam)
    total, term, v2 = (x[near] - lam) * v, 2.0 * x[near] * v, v * v
    for j in range(3, 21, 2):  # |v| < 0.1: the next term is under 1e-18 of the sum
        term *= v2
        total += term / j
    out[near] = total
    return out


def log_poisson(x: np.ndarray, lam: float) -> np.ndarray:
    """Loader's ``log(e^-lam lam^x / x!)`` (2000) at integers ``x >= 0`` held as floats, ``lam > 0``:
    ``-lam`` at ``x = 0``, else ``-stirlerr(x) - bd0(x, lam) - log(2 pi x) / 2`` with ``stirlerr(x) =
    log x! - log(sqrt(2 pi x) (x / e)^x)``, tabulated below 16 and past that a series whose first
    dropped term is under 2e-16.  No term cancels: the error is a few ``eps (lam + |log p|)``."""
    x = np.asarray(x, dtype=float)
    out, pos = np.full(x.shape, -float(lam)), x > 0
    n = x[pos]
    nn = n * n
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    small = n < len(_STIRLERR)
    stirlerr[small] = _STIRLERR[n[small].astype(np.intp)]
    out[pos] = -stirlerr - _bd0(n, lam) - 0.5 * np.log(2.0 * math.pi * n)
    return out


def derive_seeds(master_seed: int, n: int) -> list[int]:
    """n seeds in [0, 2**63); seed i is ``Generator(Philox(key=master_seed,
    counter=[0, 0, 0, i])).integers(0, 2**63)``, so it depends only on (master_seed, i).

    That draw never rejects and keeps the top 63 bits of the first word,
    which one stream reads at counter ``[1, 0, 0, i]``; advancing by
    ``2**192 - 1`` then moves the counter to ``[0, 0, 0, i + 1]``.
    """
    require_seed("master_seed", master_seed)
    require_count("n", n)
    bits, seeds = np.random.Philox(key=master_seed), []
    for _ in range(n):
        seeds.append(int(bits.random_raw()) >> 1)
        bits.advance(2**192 - 1)
    return seeds


def canonical_json(value, pad: str = "") -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2)``, in one pass.

    ``value`` holds dicts with string keys, lists, tuples and JSON scalars;
    ``pad`` is the indentation of the line ``value`` starts on.  A list of
    plain ints is written with a single ``str.join``, which is what makes
    per-bit transcript lists cheap.
    """
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join(
            f"{json.dumps(key)}: {canonical_json(value[key], inner)}" for key in sorted(value)
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if set(map(type, value)) == {int}:
        body = sep.join(map(str, value))
    else:
        body = sep.join(canonical_json(v, inner) for v in value)
    return "[\n" + inner + body + "\n" + pad + "]"


class ResultTable:
    """An ordered list of flat result rows with stable serialization."""

    def __init__(self, columns: list[str]) -> None:
        self.columns = list(columns)
        self.rows: list[dict] = []

    def add(self, **values) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        self.rows.append({c: values.get(c) for c in self.columns})

    def to_json(self) -> str:
        return json.dumps(
            {"columns": self.columns, "rows": self.rows}, sort_keys=True, indent=2
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def write(self, fh, fmt: str) -> None:
        """Write the table as ``csv`` or ``json`` to the open text file ``fh``."""
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}; choose csv or json")
        fh.write(self.to_json() + "\n" if fmt == "json" else self.to_csv())
