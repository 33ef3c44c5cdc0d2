import inspect
import io
import json
import math
import numbers
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anonkey
from anonkey import adversary, aki, coding, coherent, detection, protocol, states
from anonkey.harness import (
    ResultTable,
    canonical_json,
    derive_seeds,
    log_poisson,
    require_count,
    require_probability,
    require_seed,
)
from anonkey.states import circle_state, circle_state_at, rotate_circle

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner)
    | st.lists(st.integers(0, 1), min_size=1),
    max_leaves=40,
)


def reference_seeds(master_seed, n):
    """One Philox generator per trial, the trial index in the top counter word."""
    return [
        int(np.random.Generator(np.random.Philox(key=master_seed, counter=[0, 0, 0, i]))
            .integers(0, 2**63))
        for i in range(n)
    ]


class TestDeriveSeeds:
    @settings(max_examples=50)
    @given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300))
    def test_equals_one_generator_per_trial(self, master_seed, n):
        assert derive_seeds(master_seed, n) == reference_seeds(master_seed, n)

    @given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300), data=st.data())
    def test_prefix_independent_of_count(self, master_seed, n, data):
        # trial i's seed depends only on (master_seed, i)
        j = data.draw(st.integers(1, n))
        assert derive_seeds(master_seed, n)[:j] == derive_seeds(master_seed, j)

    def test_deterministic(self):
        assert derive_seeds(42, 10) == derive_seeds(42, 10)

    def test_distinct_trials_distinct_seeds(self):
        assert len(set(derive_seeds(7, 1000))) == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_seeds(0, 0)


class TestLogPoisson:
    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 4), Fraction(6), Fraction(529)])
    def test_matches_exact_poisson_values(self, lam):
        # log(e^-lam lam^x / x!) with lam^x / x! an exact Fraction, rounded once
        got = log_poisson(np.arange(61), float(lam))
        for x in range(61):
            want = math.log(lam**x / math.factorial(x)) - float(lam)
            assert abs(got[x] - want) <= 4 * np.finfo(float).eps * (float(lam) + abs(want))


class TestInputRules:
    @pytest.mark.parametrize("value", [1, 2, 2**63 - 1, np.int64(3)])
    def test_count_accepts(self, value):
        require_count("n", value)

    @pytest.mark.parametrize("value", [0, -1, 2**63, 10**30, 0.5, 2.5, 4.0, True, "3", None,
                                       -math.inf, math.nan])
    def test_count_refuses(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[1, 2\*\*63\)"):
            require_count("n", value)

    @pytest.mark.parametrize("value", [0, 0.0, 0.5, 1, 1.0, np.float64(0.25)])
    def test_probability_accepts(self, value):
        require_probability("p", value)

    @pytest.mark.parametrize("value", [-1e-300, 1.0000001, 3, math.inf, math.nan, True, "0.5",
                                       None])
    def test_probability_refuses(self, value):
        with pytest.raises(ValueError, match=r"^p must be a probability in \[0, 1\]"):
            require_probability("p", value)

    @pytest.mark.parametrize("value", [0, 1, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_accepts(self, value):
        require_seed("s", value)

    @pytest.mark.parametrize("value", [-1, 2**64, 2**70, 1.0, True, "1", None, math.nan])
    def test_seed_refuses(self, value):
        with pytest.raises(ValueError, match=r"^s must be an integer in \[0, 2\*\*64\)"):
            require_seed("s", value)


def _integral(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# what each kind of number parameter accepts, written out independently of the
# library's rules; ``length`` is privacy_amplify's out_len for 16 input bits
ACCEPTS = {
    "count": lambda v: _integral(v) and 1 <= v < 2**63,
    "ring size": lambda v: _integral(v) and 0 < v <= 2**20 and v % 4 == 0,
    "block count": lambda v: _integral(v) and 1 <= v <= 2**17,
    "order blocks": lambda v: _integral(v) and 1 <= v <= 2**18,
    "grid size": lambda v: _integral(v) and 4 <= v <= 2**20,
    "seed": lambda v: _integral(v) and 0 <= v < 2**64,
    "length": lambda v: _integral(v) and 0 <= v <= 16,
    "probability": lambda v: _real(v) and 0 <= v <= 1,
    "amplitude": lambda v: _real(v) and 0 < v < 1e150,
    "angle": lambda v: _real(v) and math.isfinite(v),
}
# valid sizes stay small (M <= 16, amplitudes <= 20); the sizes past a budget
# are refused before anything is allocated, and the canonical amplitude budget
# is checked through its rule elsewhere
DRAWS = [0, -1, 1, 4, 8, 16, 2.5, 4.0, True, math.nan, math.inf, -math.inf, "3", None,
         np.int64(4)]
EXTRA_DRAWS = {"seed": [2**64 - 1, 2**64, 2**70], "amplitude": [1e200, 20.0, 10**400],
               "count": [2**63], "ring size": [2**20 + 4],
               "block count": [2**17 + 1], "order blocks": [2**18 + 1, 2**62],
               "grid size": [2**20 + 1]}
# the largest count is drawn only where int64 draws take it: derive_seeds and
# sphere_grid_ensemble would run for ever at that value
ONE_DRAW_COUNTS = {("aki_impersonation", "trials"), ("sequential_strategy_pc", "trials"),
                   ("random_basis_strategy", "trials"), ("canonical_phase_pa", "trials"),
                   ("heterodyne_pa", "trials"), ("heterodyne_resend_pa", "trials")}

_STATE = circle_state(0, 4)
_PA_BITS = np.ones((1, 1, 16), dtype=np.uint8)
_SESSION = protocol.SessionConfig(k=1)

# (callable, parameter, kind, the call with that parameter set to v); every
# other argument is a small valid value
ENTRY_POINTS = [
    ("circle_state", "M", "ring size", lambda v: circle_state(0, v)),
    ("circle_state_at", "phase", "angle", circle_state_at),
    ("rotate_circle", "angle", "angle", lambda v: rotate_circle(_STATE, v)),
    ("sphere_grid_ensemble", "n", "count", states.sphere_grid_ensemble),
    ("uniform_circle_ensemble", "M", "ring size", states.uniform_circle_ensemble),
    ("DetectionReport", "pc", "probability",
     lambda v: detection.DetectionReport(v, 0.5, None, True)),
    ("DetectionReport", "pa", "probability",
     lambda v: detection.DetectionReport(0.5, v, None, True)),
    ("helstrom_binary", "p0", "probability",
     lambda v: detection.helstrom_binary(_STATE, circle_state(1, 4), v)),
    ("random_basis_strategy", "M", "ring size", lambda v: detection.random_basis_strategy(v, 10, 0)),
    ("random_basis_strategy", "trials", "count",
     lambda v: detection.random_basis_strategy(4, v, 0)),
    ("random_basis_strategy", "seed", "seed", lambda v: detection.random_basis_strategy(4, 10, v)),
    ("uniform_guess_povm", "n", "count", lambda v: detection.uniform_guess_povm(v, 2)),
    ("uniform_guess_povm", "dim", "count", lambda v: detection.uniform_guess_povm(2, v)),
    ("privacy_amplify", "hash_seeds", "seed", lambda v: coding.privacy_amplify(_PA_BITS, [v], 8)),
    ("privacy_amplify", "out_len", "length", lambda v: coding.privacy_amplify(_PA_BITS, [0], v)),
    ("ChannelModel", "loss_prob", "probability", protocol.ChannelModel),
    ("ChannelModel", "depolarize_prob", "probability", lambda v: protocol.ChannelModel(0.0, v)),
    ("SessionConfig", "k", "block count", lambda v: protocol.SessionConfig(k=v)),
    ("SessionConfig", "M", "ring size", lambda v: protocol.SessionConfig(k=1, M=v)),
    ("run_ake_session", "seed", "seed", lambda v: protocol.run_ake_session(_SESSION, v)),
    ("binary_entropy", "p", "probability", adversary.binary_entropy),
    ("impersonation_order_pmf", "k", "order blocks", adversary.impersonation_order_pmf),
    ("joint_attack_factorization_check", "M", "ring size",
     adversary.joint_attack_factorization_check),
    ("opaque_bound", "M", "ring size", adversary.opaque_bound),
    ("sequential_strategy_pc", "M", "ring size", lambda v: adversary.sequential_strategy_pc(v, 10, 0)),
    ("sequential_strategy_pc", "trials", "count",
     lambda v: adversary.sequential_strategy_pc(4, v, 0)),
    ("sequential_strategy_pc", "seed", "seed", lambda v: adversary.sequential_strategy_pc(4, 10, v)),
    ("translucent_accounting", "k", "count", lambda v: adversary.translucent_accounting(v, 0.75)),
    ("translucent_accounting", "pa", "probability", lambda v: adversary.translucent_accounting(4, v)),
    ("two_copy_states", "M", "ring size", adversary.two_copy_states),
    ("SecretCirclePhase", "phase", "angle", aki.SecretCirclePhase),
    ("aki_challenge", "M", "ring size",
     lambda v: aki.aki_challenge(aki.SecretCirclePhase(0.0), np.random.default_rng(0), v)),
    ("aki_impersonation", "m", "count", lambda v: aki.aki_impersonation(v, 4, 10, 0)),
    ("aki_impersonation", "M", "ring size", lambda v: aki.aki_impersonation(1, v, 10, 0)),
    ("aki_impersonation", "trials", "count", lambda v: aki.aki_impersonation(1, 4, v, 0)),
    ("aki_impersonation", "seed", "seed", lambda v: aki.aki_impersonation(1, 4, 10, v)),
    ("aki_verify", "phi_a", "angle",
     lambda v: aki.aki_verify(circle_state_at(0.0), v, np.random.default_rng(0))),
    ("run_honest_aki_round", "M", "ring size",
     lambda v: aki.run_honest_aki_round(aki.SecretCirclePhase(0.0), np.random.default_rng(0), v)),
    ("PhaseDistribution", "alpha0", "amplitude", coherent.PhaseDistribution),
    ("canonical_phase_pa", "alpha0", "amplitude", lambda v: coherent.canonical_phase_pa(v, 4, 10, 0)),
    ("canonical_phase_pa", "M", "grid size", lambda v: coherent.canonical_phase_pa(3.0, v, 10, 0)),
    ("canonical_phase_pa", "trials", "count",
     lambda v: coherent.canonical_phase_pa(3.0, 4, v, 0)),
    ("canonical_phase_pa", "seed", "seed", lambda v: coherent.canonical_phase_pa(3.0, 4, 10, v)),
    ("coherent_overlap_mag", "alpha0", "amplitude", lambda v: coherent.coherent_overlap_mag(v, 0.1)),
    ("coherent_overlap_mag", "dtheta", "angle", lambda v: coherent.coherent_overlap_mag(3.0, v)),
    ("exact_pa", "alpha0", "amplitude", lambda v: coherent.exact_pa(v, 4, "heterodyne")),
    ("exact_pa", "M", "grid size", lambda v: coherent.exact_pa(3.0, v, "canonical")),
    ("heterodyne_pa", "alpha0", "amplitude", lambda v: coherent.heterodyne_pa(v, 4, 10, 0)),
    ("heterodyne_pa", "M", "grid size", lambda v: coherent.heterodyne_pa(3.0, v, 10, 0)),
    ("heterodyne_pa", "trials", "count", lambda v: coherent.heterodyne_pa(3.0, 4, v, 0)),
    ("heterodyne_pa", "seed", "seed", lambda v: coherent.heterodyne_pa(3.0, 4, 10, v)),
    ("heterodyne_resend_pa", "alpha0", "amplitude",
     lambda v: coherent.heterodyne_resend_pa(v, 10, 0)),
    ("heterodyne_resend_pa", "trials", "count", lambda v: coherent.heterodyne_resend_pa(3.0, v, 0)),
    ("heterodyne_resend_pa", "seed", "seed", lambda v: coherent.heterodyne_resend_pa(3.0, 10, v)),
    ("derive_seeds", "master_seed", "seed", lambda v: derive_seeds(v, 2)),
    ("derive_seeds", "n", "count", lambda v: derive_seeds(0, v)),
]
# int- or float-annotated parameters that are not number inputs, and the
# unannotated parameters that are not numbers
NOT_NUMBER_INPUTS = {
    ("circle_state", "ell"): "a ring index, taken modulo M",
    ("SessionTranscript", "expended_order_bits"): "a record field, filled by a session",
    ("SessionTranscript", "corrected_blocks"): "a record field, filled by a session",
}
UNANNOTATED_NON_NUMBERS = {"matrix", "r", "bits", "data", "received"}


class TestPublicEntryPoints:
    # every number parameter of the public API, given any value, returns or
    # raises a ValueError that starts with the parameter's name, and a value
    # its kind does not accept is always refused; a TypeError, IndexError,
    # OverflowError or RuntimeWarning from deeper down fails the property
    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=[f"{f}-{p}" for f, p, _, _ in ENTRY_POINTS])
    @given(data=st.data())
    def test_number_parameters_refuse_by_name(self, entry, data):
        function, name, kind, call = entry
        largest = [2**63 - 1] if (function, name) in ONE_DRAW_COUNTS else []
        value = data.draw(st.sampled_from(DRAWS + EXTRA_DRAWS.get(kind, []) + largest))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call(value)
            except ValueError as exc:
                assert str(exc).startswith(f"{name} must"), str(exc)
            else:
                assert ACCEPTS[kind](value), f"{name}={value!r} was accepted"

    def test_every_number_parameter_has_a_row(self):
        # the public API is every callable that anonkey/__init__.py imports
        params = {(f, p.name): p.annotation for f, obj in vars(anonkey).items()
                  if not f.startswith("_") and callable(obj) and not inspect.ismodule(obj)
                  for p in inspect.signature(obj).parameters.values()}
        number_inputs = {key for key, ann in params.items()
                         if (ann in ("int", "float") if ann is not inspect.Parameter.empty
                             else key[1] not in UNANNOTATED_NON_NUMBERS)}
        assert number_inputs - NOT_NUMBER_INPUTS.keys() == {(f, p) for f, p, _, _ in ENTRY_POINTS}


class TestResultTable:
    def test_round_trip_json_identity(self):
        t = ResultTable(["a", "b"])
        t.add(a=1, b=0.5)
        t.add(a=2, b=1.0 / 3.0)
        text = t.to_json()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text

    def test_csv_shape(self):
        t = ResultTable(["x", "y"])
        t.add(x=1, y="p")
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "x,y"
        assert lines[1] == "1,p"

    def test_unknown_column_rejected(self):
        t = ResultTable(["a"])
        with pytest.raises(ValueError):
            t.add(a=1, z=2)

    def test_write_and_reload(self, tmp_path):
        t = ResultTable(["a"])
        t.add(a=3)
        p = tmp_path / "out.json"
        with open(p, "w", encoding="utf-8") as fh:
            t.write(fh, "json")
        data = json.loads(p.read_text())
        assert data["rows"] == [{"a": 3}]
        with pytest.raises(ValueError):
            t.write(io.StringIO(), "yaml")


class TestCanonicalJson:
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        # floats include NaN and infinities, strings any unicode, and lists
        # mix ints with bools, which must not take the int-list join
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @given(JSON_VALUES)
    def test_pad_is_the_indent_of_the_enclosing_line(self, value):
        nested = "[\n  " + canonical_json(value, "  ") + "\n]"
        assert nested == json.dumps([value], sort_keys=True, indent=2)

    def test_rejects_non_json_values(self):
        with pytest.raises(TypeError):
            canonical_json({"a": np.int64(1)})
