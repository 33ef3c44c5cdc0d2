import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anonkey.harness import (
    ResultTable,
    canonical_json,
    derive_seeds,
    json_roundtrip,
    spawn_trial_streams,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner)
    | st.lists(st.integers(0, 1), min_size=1),
    max_leaves=40,
)


class TestTrialStreams:
    def test_same_index_same_stream(self):
        a = spawn_trial_streams(123, 5)[3].integers(0, 2**32, 64)
        b = spawn_trial_streams(123, 5)[3].integers(0, 2**32, 64)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        streams = spawn_trial_streams(7, 16)
        draws = [g.integers(0, 2**64, 64, dtype=np.uint64) for g in streams]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_independent_of_spawn_count(self):
        # trial i's stream depends only on (master_seed, i)
        few = spawn_trial_streams(9, 2)[1].integers(0, 2**32, 16)
        many = spawn_trial_streams(9, 50)[1].integers(0, 2**32, 16)
        assert np.array_equal(few, many)

    def test_aggregate_invariant_under_scheduling(self):
        # per-trial results merged in any order give the same aggregate
        def trial(i):
            g = spawn_trial_streams(31337, 8)[i]
            return float(g.random(100).mean())

        serial = [trial(i) for i in range(8)]
        shuffled = [trial(i) for i in (5, 2, 7, 0, 3, 6, 1, 4)]
        assert sorted(serial) == sorted(shuffled)
        assert np.mean(serial) == pytest.approx(np.mean(shuffled), abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            spawn_trial_streams(0, 0)

    def test_derive_seeds_deterministic(self):
        assert derive_seeds(42, 10) == derive_seeds(42, 10)
        assert derive_seeds(42, 10)[:5] == derive_seeds(42, 5)


class TestResultTable:
    def test_round_trip_json_identity(self):
        t = ResultTable(["a", "b"])
        t.add(a=1, b=0.5)
        t.add(a=2, b=1.0 / 3.0)
        text = t.to_json()
        assert json_roundtrip(text) == text

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
        t.write(str(p), "json")
        data = json.loads(p.read_text())
        assert data["rows"] == [{"a": 3}]
        with pytest.raises(ValueError):
            t.write(str(p), "yaml")


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
