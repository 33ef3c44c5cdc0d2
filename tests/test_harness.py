import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonkey import adversary, aki, coherent, detection, protocol
from anonkey.harness import (
    ResultTable,
    canonical_json,
    derive_seeds,
    require_count,
    require_probability,
)
from anonkey.states import circle_state

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


class TestInputRules:
    @pytest.mark.parametrize("value", [1, 2, 10**30])
    def test_count_accepts(self, value):
        require_count("n", value)

    @pytest.mark.parametrize("value", [0, -1, 0.5, -math.inf, math.nan])
    def test_count_refuses(self, value):
        with pytest.raises(ValueError, match="^n must be at least 1"):
            require_count("n", value)

    @pytest.mark.parametrize("value", [0, 0.0, 0.5, 1, 1.0])
    def test_probability_accepts(self, value):
        require_probability("p", value)

    @pytest.mark.parametrize("value", [-1e-300, 1.0000001, 3, math.inf, math.nan])
    def test_probability_refuses(self, value):
        with pytest.raises(ValueError, match=r"^p must be a probability in \[0, 1\]"):
            require_probability("p", value)

    # each entry point, given nan for one parameter, refuses it by name;
    # checks written as ``x < 1`` or ``M < 4`` used to let nan into numpy
    NAN_CASES = {
        "sequential_strategy_pc-trials": ("trials",
                                          lambda v: adversary.sequential_strategy_pc(4, v, 0)),
        "aki_impersonation-trials": ("trials", lambda v: aki.aki_impersonation(1, 4, v, 0)),
        "aki_impersonation-m": ("m", lambda v: aki.aki_impersonation(v, 4, 10, 0)),
        "random_basis_strategy-trials": ("trials",
                                         lambda v: detection.random_basis_strategy(4, 0, v)),
        "heterodyne_pa-trials": ("trials", lambda v: coherent.heterodyne_pa(3.0, 4, v, 0)),
        "heterodyne_pa-M": ("M", lambda v: coherent.heterodyne_pa(3.0, v, 10, 0)),
        "heterodyne_resend_pa-trials": ("trials",
                                        lambda v: coherent.heterodyne_resend_pa(3.0, v, 0)),
        "canonical_phase_pa-trials": ("trials",
                                      lambda v: coherent.canonical_phase_pa(3.0, 4, v, 0)),
        "canonical_phase_pa-M": ("M", lambda v: coherent.canonical_phase_pa(3.0, v, 10, 0)),
        "impersonation_order_pmf-k": ("k", adversary.impersonation_order_pmf),
        "translucent_accounting-k": ("k", lambda v: adversary.translucent_accounting(v, 0.75)),
        "SessionConfig-k": ("k", lambda v: protocol.SessionConfig(k=v)),
        "derive_seeds-n": ("n", lambda v: derive_seeds(0, v)),
        "ChannelModel-loss_prob": ("loss_prob", protocol.ChannelModel),
        "ChannelModel-depolarize_prob": ("depolarize_prob",
                                         lambda v: protocol.ChannelModel(0.0, v)),
        "binary_entropy-p": ("p", adversary.binary_entropy),
        "helstrom_binary-p0": ("p0", lambda v: detection.helstrom_binary(
            circle_state(0, 4), circle_state(1, 4), v)),
    }

    @pytest.mark.parametrize("case", NAN_CASES)
    def test_entry_points_refuse_nan_by_name(self, case):
        name, call = self.NAN_CASES[case]
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(math.nan)


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
