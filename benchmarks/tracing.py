"""Spans around the public functions of each ``anonkey`` module.

The benchmark patches each function at the name its caller looks up (the
CLI calls ``derive_seeds`` through its own import, ``protocol`` holds its
own copy of ``square_root_measurement``, and so on), records one span per
call, and restores the originals when the traced pass ends.  Spans are kept
in memory; the worker writes them out when the run ends.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the id of the benchmark op that
caused it.  A layer's self time is its span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter


def _pa_counts(c, a, out):
    n = len(a["bits"])
    c["coding.privacy_amplify.bits_in"] += n
    # dense Toeplitz product: an out x n int64 index matrix plus the
    # out x n uint8 matrix gathered through it
    c["coding.pa_matrix_bytes_computed"] += a["out_len"] * n * (8 + 1)


def _session_counts(c, a, t):
    c["protocol.sessions"] += 1
    c["protocol.aborted"] += int(t.aborted)
    c["protocol.qubits_sent"] += len(t.states_sent)
    c["protocol.key_bits"] += len(t.final_key_adam)


def _ensemble_counts(c, a, e):
    c["states.ensemble_states"] += e.size


# (module, attribute, span name, counter); an attribute may be "Class.method".
TARGETS = [
    ("cli", "derive_seeds", "harness.derive_seeds",
     lambda c, a, out: c.update({"harness.derive_seeds.seeds": a["n"]})),
    ("cli", "run_ake_session", "protocol.run_ake_session", _session_counts),
    ("protocol", "SessionTranscript.to_json", "protocol.to_json",
     lambda c, a, out: c.update({"protocol.transcript_bytes": len(out)})),
    ("harness", "ResultTable.to_json", "harness.table_serialize",
     lambda c, a, out: c.update({"harness.table_rows": len(a["self"].rows)})),
    ("harness", "ResultTable.to_csv", "harness.table_serialize",
     lambda c, a, out: c.update({"harness.table_rows": len(a["self"].rows)})),
    ("coding", "privacy_amplify", "coding.privacy_amplify", _pa_counts),
    ("coding", "cecc_encode", "coding.cecc_encode", None),
    ("coding", "cecc_decode", "coding.cecc_decode",
     lambda c, a, out: c.update({"coding.corrected_blocks": out[1]})),
    ("detection", "acceptance_probability", "detection.acceptance_probability",
     lambda c, a, out: c.update(
         {"detection.acceptance_probability.trace_ops_computed": 2 * a["e"].size ** 2})),
    ("detection", "square_root_measurement", "detection.square_root_measurement", None),
    ("protocol", "square_root_measurement", "detection.square_root_measurement", None),
    ("adversary", "square_root_measurement", "detection.square_root_measurement", None),
    ("aki", "square_root_measurement", "detection.square_root_measurement", None),
    ("detection", "certify_optimality", "detection.certify_optimality", None),
    ("detection", "correct_id_probability", "detection.correct_id_probability", None),
    ("states", "uniform_circle_ensemble", "states.ensemble_build", _ensemble_counts),
    ("states", "six_state_ensemble", "states.ensemble_build", _ensemble_counts),
    ("states", "sphere_grid_ensemble", "states.ensemble_build", _ensemble_counts),
    ("detection", "uniform_circle_ensemble", "states.ensemble_build", _ensemble_counts),
    ("protocol", "uniform_circle_ensemble", "states.ensemble_build", _ensemble_counts),
    ("adversary", "uniform_circle_ensemble", "states.ensemble_build", _ensemble_counts),
    ("aki", "uniform_circle_ensemble", "states.ensemble_build", _ensemble_counts),
    ("adversary", "sequential_strategy_pc", "adversary.sequential_strategy_pc",
     lambda c, a, out: c.update({"adversary.mc_trials": a["trials"]})),
    ("adversary", "opaque_bound", "adversary.opaque_bound", None),
    ("protocol", "opaque_bound", "adversary.opaque_bound", None),
    ("aki", "aki_impersonation", "aki.aki_impersonation",
     lambda c, a, out: c.update({"aki.mc_rounds": a["trials"] * a["m"]})),
    ("coherent", "heterodyne_pa", "coherent.heterodyne_pa",
     lambda c, a, out: c.update({"coherent.mc_trials": a["trials"]})),
    ("coherent", "canonical_phase_pa", "coherent.canonical_phase_pa",
     lambda c, a, out: c.update({"coherent.mc_trials": a["trials"]})),
    ("coherent", "heterodyne_resend_pa", "coherent.heterodyne_resend_pa",
     lambda c, a, out: c.update({"coherent.mc_trials": a["trials"]})),
    ("cli", "run_cli", "cli.run_cli", None),
]


class Tracer:
    """Records spans and exact counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch every target of ``package`` for the duration of the block."""
        saved = []
        try:
            for module, attr, name, count in TARGETS:
                owner = getattr(package, module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive ms, self ms and call count per span name.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself through another wrapper is not counted
        twice.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict = defaultdict(float)
        self_ms: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child_time[i]) * 1e3
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += (end - start) * 1e3
        return inclusive, self_ms, calls
