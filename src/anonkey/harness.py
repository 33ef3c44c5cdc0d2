"""Seeded experiment plumbing: trial streams and result tables.

Monte Carlo experiments split a master seed into per-trial streams with a
counter-based generator, so trial ``i`` depends only on ``(master_seed, i)``
and aggregate results do not care how trials were scheduled.  Result rows
carry their parameters, estimate, standard error, trial count and seed, and
serialize to CSV or to a canonical JSON form whose parse/re-serialize round
trip is byte-identical.
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
