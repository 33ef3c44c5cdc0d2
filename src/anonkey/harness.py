"""Seeded experiment plumbing: per-trial seeds and result tables.

Monte Carlo experiments split a master seed into per-trial seeds read from
one counter-based Philox stream, so seed ``i`` depends only on
``(master_seed, i)`` and aggregate results do not care how trials were
scheduled.  Result rows carry their parameters, estimate, standard error,
trial count and seed, and serialize to CSV or to a canonical JSON form whose
parse/re-serialize round trip is byte-identical.  :func:`canonical_json`
writes that form in one pass for large values such as session transcripts.
:func:`require_count`, :func:`require_probability`, :func:`require_angle` and
:func:`require_seed` are input rules for every module.  Each checks the value's
type as well as its range, through :func:`is_integer` (a ``numbers.Integral``
that is not a ``bool``) or :func:`is_real` (a ``numbers.Real`` that is not a
``bool``).  :func:`seeded_rng` is ``np.random.default_rng`` behind the seed rule.
"""

from __future__ import annotations

import csv
import io
import json
from numbers import Integral, Real

import numpy as np

BLOCK = 1 << 16  # draws per block of a Monte Carlo kernel


def is_integer(value) -> bool:
    """Is ``value`` a ``numbers.Integral`` other than a ``bool``?  A plain int is checked first."""
    return type(value) is int or isinstance(value, Integral) and type(value) is not bool


def is_real(value) -> bool:
    """Is ``value`` a ``numbers.Real`` other than a ``bool``?  A float or int is checked first."""
    return type(value) in (float, int) or isinstance(value, Real) and type(value) is not bool


def require_count(name: str, value) -> None:
    """Raise unless the count ``name`` is an integer of at least 1."""
    if not (is_integer(value) and value >= 1):
        raise ValueError(f"{name} must be at least 1 (an integer), got {value!r}")


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


def draw_blocks(draw, n: int, size: int = BLOCK):
    """Yield ``(s, draws)`` per block ``s`` of at most ``size`` of ``range(n)``:
    the stream of one ``draw(n)`` call (``rng.random`` or ``rng.standard_normal``)."""
    buf = np.empty(min(n, size))
    for start in range(0, n, size):
        s = slice(start, min(start + size, n))
        yield s, draw(out=buf[: s.stop - start])


class CdfSearch:
    """Exactly ``cdf.searchsorted(u, side="right")`` for 1-d uniforms ``u`` in [0, 1):
    the ring detector's offset draws, ``detection.RingTables.draw_offset``.

    ``cdf`` is sorted within [0, 1].  ``u`` falls in bucket ``floor(u * B)``
    of ``B`` equal buckets, exactly since ``B`` is a power of two.  A bucket
    holding at most one cdf entry answers ``count(cdf <= left edge) + (u >=
    first entry above it)``; the few holding more fall back to ``searchsorted``.
    A cdf of at most 8 entries is counted directly, ``sum(u >= cdf[k])``, in bytes.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        self.cdf, n = cdf, 1 << max(10, (len(cdf) - 1).bit_length())
        self._scale = float(n)
        # with c = cdf * B, exact: cdf <= b / B iff ceil(c) <= b, and
        # cdf < (b + 1) / B iff floor(c) <= b
        c = cdf * self._scale
        below, before_next = (np.bincount(x.astype(np.intp), minlength=n + 1)[:n].cumsum()
                              for x in (np.ceil(c), c))
        self._crowded = before_next - below > 1
        self._below, self._next = below, np.append(cdf, np.inf)[below]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if len(self.cdf) <= 8:  # a few comparisons beat the table
            found = np.zeros(len(u), dtype=np.uint8)
            for c in self.cdf:
                found += u >= c
            return found
        bucket = (u * self._scale).astype(np.intp)
        found = self._below[bucket] + (u >= self._next[bucket])
        hit = np.flatnonzero(self._crowded[bucket])
        found[hit] = self.cdf.searchsorted(u[hit], side="right")
        return found


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
