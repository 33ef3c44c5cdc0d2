"""Seeded experiment plumbing: trial streams and result tables.

Monte Carlo experiments split a master seed into per-trial streams with a
counter-based generator, so trial ``i`` depends only on ``(master_seed, i)``
and aggregate results do not care how trials were scheduled.  Result rows
carry their parameters, estimate, standard error, trial count and seed, and
serialize to CSV or to a canonical JSON form whose parse/re-serialize round
trip is byte-identical.  :func:`canonical_json` writes that form in one pass
for large values such as session transcripts.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np


def binomial_stderr(p: float, n: int) -> float:
    """Binomial standard error of a fraction ``p`` over ``n`` trials, kept above zero."""
    return float(np.sqrt(max(p * (1.0 - p), 1e-300) / n))


def spawn_trial_streams(master_seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators; stream i depends only on (master_seed, i).

    Philox is counter-based: the trial index is planted in the top counter
    word, so streams never collide however much each one draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return [
        np.random.Generator(
            np.random.Philox(key=np.uint64(master_seed), counter=[0, 0, 0, np.uint64(i)])
        )
        for i in range(n)
    ]


def derive_seeds(master_seed: int, n: int) -> list[int]:
    """Per-trial integer seeds drawn from the counter-based streams."""
    return [int(g.integers(0, 2**63)) for g in spawn_trial_streams(master_seed, n)]


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

    def write(self, path: str, fmt: str) -> None:
        if fmt == "json":
            text = self.to_json() + "\n"
        elif fmt == "csv":
            text = self.to_csv()
        else:
            raise ValueError(f"unknown format {fmt!r}; choose csv or json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def json_roundtrip(text: str) -> str:
    """Parse and re-serialize canonical JSON; identity on canonical input."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2)
