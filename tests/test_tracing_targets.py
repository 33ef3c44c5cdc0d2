"""The benchmark tracer's patch targets must stay bound.

``benchmarks/tracing.py`` wraps each ``(module, attr)`` of its ``TARGETS``
by looking the name up in the owner's ``__dict__``; a refactor that drops
one of those names (some are imported only so the tracer can patch them)
would break only traced benchmark runs.  This test resolves every target
the same way, without importing the benchmark package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import anonkey

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("anonkey_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, attr) for module, attr, _, _ in mod.TARGETS]


TARGETS = load_targets()


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves_through_owner_dict(module, attr):
    importlib.import_module(f"anonkey.{module}")
    owner = getattr(anonkey, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    assert attr in owner.__dict__, f"anonkey.{module} no longer binds {attr!r}"
    assert callable(owner.__dict__[attr])
