import csv
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonkey import adversary, aki, cli, coherent, protocol, states
from anonkey.cli import run_cli
from anonkey.harness import derive_seeds, require_count, require_probability, require_seed
from anonkey.protocol import SessionConfig, run_ake_session


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDetect:
    def test_headline_table(self, tmp_path):
        out = tmp_path / "detect.csv"
        assert run_cli(["detect", "--M", "4,8,16", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["p_correct"]) for r in rows] == pytest.approx(
            [0.5, 0.25, 0.125], abs=1e-9
        )
        assert [float(r["p_accept"]) for r in rows] == pytest.approx(
            [0.75, 0.75, 0.75], abs=1e-9
        )
        assert all(r["certified_optimal"] == "True" for r in rows)

    def test_six_state_row(self, tmp_path):
        out = tmp_path / "detect.csv"
        assert run_cli(["detect", "--M", "4", "--six-state", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[-1]["ensemble"] == "six-state"
        assert float(rows[-1]["p_accept"]) == pytest.approx(2 / 3, abs=1e-9)

    def test_bad_m_exits_2(self, capsys):
        assert run_cli(["detect", "--M", "5"]) == 2
        assert "M" in capsys.readouterr().err

    def test_takes_no_seed_or_trials(self, capsys):
        # detect is exact: no Monte Carlo draw reads a seed or a trial count
        assert run_cli(["detect", "--help"]) == 0
        usage = capsys.readouterr().out
        assert "--seed" not in usage and "--trials" not in usage
        assert run_cli(["detect", "--M", "4", "--seed", "1"]) == 2


class TestAttack:
    def test_impersonation_pmf(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert run_cli(["attack", "--strategy", "impersonation", "--k", "20", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 21
        for r in rows:
            k, q = int(r["k"]), int(r["q"])
            expected = math.comb(k, q) * 0.25**q * 0.75 ** (k - q)
            assert float(r["probability"]) == pytest.approx(expected, rel=1e-9)

    def test_impersonation_pmf_past_1029_blocks(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert run_cli(["attack", "--strategy", "impersonation", "--k", "1100", "--out", str(out)]) == 0
        probs = np.array([float(r["probability"]) for r in read_csv(out)])
        assert len(probs) == 1101
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs @ np.arange(1101) == pytest.approx(1100 / 4, rel=1e-12)

    def test_opaque_report(self, tmp_path):
        out = tmp_path / "op.csv"
        assert (
            run_cli(
                ["attack", "--strategy", "opaque", "--M", "4,8", "--trials", "20000", "--out", str(out)]
            )
            == 0
        )
        rows = read_csv(out)
        for r in rows:
            assert float(r["bound"]) == pytest.approx(0.75, abs=1e-9)
            assert abs(float(r["sequential_estimate"]) - 0.75) < 4 * float(r["stderr"])
            assert int(r["trials"]) == 20000

    def test_translucent_report(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert run_cli(["attack", "--strategy", "translucent", "--k", "4", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert int(row["deterministic_bits"]) == 8
        assert float(row["shannon_bits"]) == pytest.approx(4 * 1.13233, abs=1e-3)


class TestAke:
    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["ake", "--k", "4", "--eve", "none", "--seed", "7", "--out", str(a)]) == 0
        assert run_cli(["ake", "--k", "4", "--eve", "none", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_rows(self, tmp_path):
        out = tmp_path / "ake.json"
        assert run_cli(["ake", "--k", "2", "--trials", "3", "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 3
        for r in data["rows"]:
            assert r["trial_check_passed"] is True
            assert r["key_bits"] == 8

    def test_full_transcripts(self, tmp_path):
        out = tmp_path / "tr.json"
        assert run_cli(["ake", "--k", "2", "--transcript", "--seed", "3", "--out", str(out)]) == 0
        transcripts = json.loads(out.read_text())
        assert len(transcripts) == 1
        assert transcripts[0]["trial_check_passed"] is True
        assert transcripts[0]["eve_report"]["strategy"] == "none"

    def test_emitted_json_round_trips_byte_identical(self, tmp_path):
        for args in (
            ["ake", "--k", "2", "--transcript", "--seed", "3"],
            ["ake", "--k", "2", "--trials", "2", "--seed", "3"],
            ["detect", "--M", "4", "--format", "json"],
        ):
            out = tmp_path / "rt.json"
            assert run_cli(args + ["--out", str(out)]) == 0
            text = out.read_text()
            assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text

    @pytest.mark.parametrize("eve, k", [("impersonate-order", 5), ("opaque", 64)])
    def test_transcripts_equal_json_dumps_of_the_sessions(self, tmp_path, eve, k):
        out = tmp_path / "tr.json"
        argv = ["ake", "--k", str(k), "--M", "8", "--eve", eve, "--trials", "3", "--seed", "12",
                "--transcript", "--out", str(out)]
        assert run_cli(argv) == 0
        sessions = [
            asdict(run_ake_session(SessionConfig(k=k, M=8, eve_strategy=eve), s))
            for s in derive_seeds(12, 3)
        ]
        assert out.read_text() == json.dumps(sessions, sort_keys=True, indent=2) + "\n"

    def test_many_impersonated_blocks_run(self, tmp_path):
        # k=640 gives 1120 Hamming blocks; the order-guess pmf overflowed past 1029
        out = tmp_path / "imp.json"
        assert run_cli(["ake", "--k", "640", "--eve", "impersonate-order", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["key_bits"] == 4 * 640

    def test_abort_exit_code(self, tmp_path):
        out = tmp_path / "abort.json"
        code = run_cli(["ake", "--k", "2", "--loss", "0.95", "--out", str(out)])
        assert code == 3
        data = json.loads(out.read_text())
        assert data["rows"][0]["aborted"] is True


    @pytest.mark.parametrize("mode", [["--format", "csv"], ["--format", "json"], ["--transcript"]])
    def test_chunked_run_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch, mode):
        # loss 0.2 sits at the abort threshold: 4 of these 7 sessions abort
        argv = ["ake", "--k", "7", "--M", "8", "--eve", "opaque", "--loss", "0.2",
                "--trials", "7", "--seed", "23"] + mode
        whole = run_cli(argv), capsys.readouterr().out
        assert whole[0] == 3
        out = tmp_path / "chunked.txt"
        monkeypatch.setattr(protocol, "_SLOT_BUDGET", 2 * 130)  # two k=7 sessions (130 qubits) a chunk
        assert (run_cli(argv), capsys.readouterr().out) == whole
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert out.read_text() == whole[1]


class TestAki:
    def test_curve(self, tmp_path):
        out = tmp_path / "aki.csv"
        assert run_cli(["aki", "--m", "1,2", "--trials", "20000", "--out", str(out)]) == 0
        rows = read_csv(out)
        for r in rows:
            assert abs(float(r["estimate"]) - float(r["expected"])) < 4 * float(r["stderr"])


class TestCoherent:
    def test_sweep_columns(self, tmp_path):
        out = tmp_path / "coh.csv"
        assert (
            run_cli(
                ["coherent", "--alpha0", "5", "--M", "64", "--trials", "5000", "--out", str(out)]
            )
            == 0
        )
        rows = read_csv(out)
        assert {r["estimator"] for r in rows} == {
            "heterodyne",
            "canonical",
            "heterodyne-resend",
        }
        for r in rows:
            assert 0.0 <= float(r["pa"]) <= 1.0
            assert float(r["stderr"]) > 0.0

    def test_canonical_beyond_default_grid_runs(self, tmp_path):
        # the largest amplitude the canonical budget admits: a Fock window
        # of nearly 2^17 terms
        out = tmp_path / "coh.csv"
        argv = ["coherent", "--alpha0", "5370", "--M", "4096", "--estimator", "canonical",
                "--trials", "1000", "--out", str(out)]
        assert run_cli(argv) == 0
        assert 0.0 <= float(read_csv(out)[0]["pa"]) <= 1.0


class TestSampledRunsRepeat:
    # the Monte Carlo subcommands: identical valid configs give identical
    # bytes, run after run in one process
    SUBCOMMANDS = {
        "attack": ["attack", "--strategy", "opaque", "--M", "4,12"],
        "aki": ["aki", "--m", "1,3", "--M", "8"],
        "coherent": ["coherent", "--alpha0", "0.5,3", "--M", "4,16"],
    }

    @settings(max_examples=24)
    @given(sub=st.sampled_from(sorted(SUBCOMMANDS)), seed=st.integers(0, 2**64 - 1),
           trials=st.integers(1, 400), fmt=st.sampled_from(["csv", "json"]))
    def test_identical_configs_give_identical_bytes(self, sub, seed, trials, fmt):
        argv = self.SUBCOMMANDS[sub] + ["--trials", str(trials), "--seed", str(seed),
                                        "--format", fmt]
        with tempfile.TemporaryDirectory() as tmp:
            outs = [Path(tmp) / "first", Path(tmp) / "second"]
            assert [run_cli(argv + ["--out", str(out)]) for out in outs] == [0, 0]
            assert outs[0].read_bytes() == outs[1].read_bytes()


    @settings(max_examples=24)
    @given(k=st.integers(1, 12), M=st.sampled_from([4, 8, 12]),
           eve=st.sampled_from(protocol.EVE_STRATEGIES), loss=st.floats(0.0, 0.4),
           depolarize=st.floats(0.0, 0.1), seed=st.integers(0, 2**64 - 1),
           trials=st.integers(1, 40),
           mode=st.sampled_from(["--format=csv", "--format=json", "--transcript"]))
    @example(k=3, M=8, eve="opaque", loss=0.95, depolarize=0.0, seed=5, trials=4,
             mode="--format=csv")
    @example(k=3, M=4, eve="none", loss=0.5, depolarize=0.05, seed=2**64 - 1, trials=9,
             mode="--transcript")
    def test_identical_ake_runs_give_identical_bytes(self, k, M, eve, loss, depolarize, seed,
                                                     trials, mode):
        # lossy sessions abort, so the exit code (0 or 3) must repeat too
        argv = ["ake", "--k", str(k), "--M", str(M), "--eve", eve, "--loss", str(loss),
                "--depolarize", str(depolarize), "--seed", str(seed), "--trials", str(trials),
                mode]
        with tempfile.TemporaryDirectory() as tmp:
            outs = [Path(tmp) / "first", Path(tmp) / "second"]
            codes = [run_cli(argv + ["--out", str(out)]) for out in outs]
            assert codes[0] == codes[1] and codes[0] in (0, 3)
            assert outs[0].read_bytes() == outs[1].read_bytes()


class TestUnusablePaths:
    # an unreadable --config or an unwritable --out exits 2 naming its key;
    # the output is opened before the experiment runs
    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert run_cli(["detect", "--config", str(tmp_path)]) == 2
        assert "config key 'config'" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"m_list": "8\xff"}')
        assert run_cli(["detect", "--config", str(cfg)]) == 2
        assert "config key 'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, owner, runner", [
        (["ake", "--k", "2"], cli, "run_ake_sessions"),
        (["aki", "--m", "1"], aki, "aki_impersonation"),
    ], ids=["ake", "aki"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                   sub, owner, runner, where):
        def unexpected(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(owner, runner, unexpected)
        out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        assert run_cli(sub + ["--out", str(out)]) == 2
        assert "config key 'out'" in capsys.readouterr().err


class TestConfigFiles:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_list": "8"}))
        out = tmp_path / "out.csv"
        assert run_cli(["detect", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["M"] for r in rows] == ["8"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_list": "8"}))
        out = tmp_path / "out.csv"
        assert run_cli(["detect", "--config", str(cfg), "--M", "16", "--out", str(out)]) == 0
        assert [r["M"] for r in read_csv(out)] == ["16"]

    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert run_cli(["detect", "--config", str(cfg)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli(["detect", "--config", str(cfg)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli(["detect", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_trials_exits_2(self):
        assert run_cli(["aki", "--trials", "0"]) == 2

    @pytest.mark.parametrize(
        "sub, key",
        [("aki", "trials"), ("attack", "trials"), ("ake", "trials"), ("ake", "k"),
         ("attack", "k"), ("ake", "M"), ("aki", "M"), ("ake", "seed"), ("coherent", "seed")],
    )
    def test_bool_rejected_for_int_keys(self, tmp_path, capsys, sub, key):
        # bool subclasses int; true must not run as 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        extra = ["--strategy", "impersonation"] if (sub, key) == ("attack", "k") else []
        assert run_cli([sub, "--config", str(cfg), "--out", str(tmp_path / "o")] + extra) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["loss", "depolarize"])
    @pytest.mark.parametrize("value", [True, "0.1", None, 1.5])
    def test_probability_keys_reject_non_probabilities(self, tmp_path, capsys, key, value):
        # {"loss": true} used to run as loss 1.0 and abort with exit 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(["ake", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [(["detect", "--M", "4,x"], "m_list"), (["aki", "--m", "1,x"], "m_list"),
         (["coherent", "--alpha0", "1,x"], "alpha_list"), (["aki", "--m", ","], "m_list"),
         (["attack", "--strategy", "opaque", "--M", ","], "m_list"),
         (["coherent", "--alpha0", ","], "alpha_list")],
        ids=["detect", "aki", "coherent", "aki-empty", "attack-empty", "coherent-empty"],
    )
    def test_list_keys_named_in_diagnostic(self, tmp_path, capsys, argv, key):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, key, value", [("ake", "out", 7), ("detect", "m_list", 8)])
    def test_config_values_need_the_flag_json_type(self, tmp_path, sub, key, value):
        # {"out": 7} used to open file descriptor 7, {"m_list": 8} to run as "8";
        # a fresh interpreter keeps such a write away from this one's descriptors
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        proc = subprocess.run([sys.executable, "-m", "anonkey", sub, "--config", str(cfg)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"config key '{key}'" in proc.stderr

    @pytest.mark.parametrize("sub", ["ake", "aki"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, sub, seed):
        argv = [sub, "--seed", str(seed), "--trials", "1", "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        assert "config key 'seed'" in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(["aki", "--m", "1", "--seed", str(2**64 - 1), "--trials", "10",
                        "--out", str(out)]) == 0
        assert read_csv(out)[0]["seed"] == str(2**64 - 1)


class TestEdgeValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e154"])
    def test_amplitudes_must_be_positive_and_finite(self, tmp_path, capsys, value):
        # nan used to reach the Fock truncation and report
        # "cannot convert float NaN to integer"; 1e154 printed pa=nan, as
        # 2 * alpha0**2 overflows
        argv = ["coherent", "--alpha0", value, "--M", "16", "--trials", "10",
                "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        assert "config key 'alpha_list'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["detect", "--M", "0"], ["aki", "--m", "0", "--trials", "10"],
         ["attack", "--M", "-4", "--trials", "10"], ["coherent", "--M", "0", "--trials", "10"],
         ["coherent", "--M", "2", "--trials", "10"]],
        ids=["detect", "aki", "attack", "coherent", "coherent-below-4"],
    )
    def test_list_entries_must_be_positive(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "config key 'm_list'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [(["ake", "--M", "6"], "M"), (["aki", "--M", "6"], "M"),
         (["attack", "--strategy", "opaque", "--M", "4,6"], "m_list"),
         (["attack", "--strategy", "translucent", "--M", "6"], "m_list"),
         (["attack", "--strategy", "impersonation", "--M", "6"], "m_list")],
        ids=["ake", "aki", "attack-opaque", "attack-translucent", "attack-impersonation"],
    )
    def test_ring_sizes_must_be_multiples_of_4(self, tmp_path, capsys, argv, key):
        assert run_cli(argv + ["--trials", "10", "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub, key",
        [("ake", "cecc"), ("ake", "eve"), ("attack", "strategy"), ("coherent", "estimator"),
         ("detect", "fmt"), ("ake", "transcript"), ("detect", "six_state")],
    )
    def test_choice_keys_checked_in_config_files(self, tmp_path, capsys, sub, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        assert run_cli([sub, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        from anonkey import coding

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(coding, "privacy_amplify", broken)
        # a transcript run always hashes the responder's keys
        with pytest.raises(ValueError, match="internal failure"):
            run_cli(["ake", "--k", "2", "--transcript"])

    def test_internal_error_exits_1_with_traceback(self, tmp_path):
        # break the FFT so the privacy-amplification exactness guard fires
        script = (
            "import sys, numpy as np\n"
            "irfft = np.fft.irfft\n"
            "np.fft.irfft = lambda *a, **kw: irfft(*a, **kw) + 0.3\n"
            "from anonkey.cli import main\n"
            "sys.argv = ['anonkey', 'ake', '--k', '2', '--transcript']\n"
            "main()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "RuntimeError" in proc.stderr
        assert "configuration error" not in proc.stderr


# each CLI key backed by a library rule: its argv up to the value, the value's
# type and the rule.  Integer keys take the integer boundary values, number
# keys nan, inf and a huge amplitude as well
RULE_KEYS = {
    "trials": (["aki", "--m", "1", "--trials"], int, partial(require_count, "trials")),
    "attack-trials": (["attack", "--strategy", "opaque", "--M", "4", "--trials"], int,
                      partial(require_count, "trials")),
    "ake-trials": (["ake", "--k", "1", "--trials"], int, partial(require_count, "trials")),
    "heterodyne-trials": (["coherent", "--alpha0", "3", "--M", "4", "--estimator", "heterodyne",
                           "--trials"], int, partial(require_count, "trials")),
    "attack-k": (["attack", "--strategy", "impersonation", "--k"], int,
                 adversary.require_order_blocks),
    "ake-k": (["ake", "--k"], int, protocol.require_block_count),
    "aki-m_list": (["aki", "--trials", "10", "--m"], int, partial(require_count, "m")),
    "aki-M": (["aki", "--m", "1", "--trials", "10", "--M"], int, states.require_ring_size),
    "ake-M": (["ake", "--M"], int, states.require_ring_size),
    "detect-m_list": (["detect", "--M"], int, states.require_ring_size),
    "attack-m_list": (["attack", "--strategy", "opaque", "--trials", "10", "--M"], int,
                      states.require_ring_size),
    "coherent-m_list": (["coherent", "--alpha0", "3", "--trials", "10", "--M"], int,
                        coherent.require_grid_size),
    "alpha_list": (["coherent", "--M", "4", "--estimator", "heterodyne-resend", "--trials",
                    "10", "--alpha0"], float, coherent.require_amplitude),
    "heterodyne-alpha_list": (["coherent", "--M", "4", "--estimator", "heterodyne",
                               "--trials", "10", "--alpha0"], float,
                              coherent.require_phase_amplitude),
    "canonical-alpha_list": (["coherent", "--M", "4", "--estimator", "canonical",
                              "--trials", "10", "--alpha0"], float,
                             coherent.require_phase_amplitude),
    "canonical-trials": (["coherent", "--alpha0", "3", "--M", "4", "--estimator", "canonical",
                          "--trials"], int, partial(require_count, "trials")),
    "resend-trials": (["coherent", "--alpha0", "3", "--M", "4", "--estimator",
                       "heterodyne-resend", "--trials"], int, partial(require_count, "trials")),
    "loss": (["ake", "--loss"], float, partial(require_probability, "loss")),
    "depolarize": (["ake", "--depolarize"], float, partial(require_probability, "depolarize")),
    "seed": (["aki", "--m", "1", "--trials", "10", "--seed"], int, partial(require_seed, "seed")),
}
# values just past a rule's upper end, each refused before anything is allocated or
# run, and the largest count where one int64 draw takes it; an O(trials) run (ake)
# would not end at that count
_COUNT_END = [str(2**63 - 1), str(2**63)]
_RING_END = [str(2**20 + 4)]
BUDGET_CASES = {"seed": [str(2**64)], "ake-k": [str(2**17 + 1)],
                "attack-k": [str(2**18 + 1), str(2**62)],
                "coherent-m_list": [str(2**20 + 1)], "canonical-alpha_list": ["5371"],
                "heterodyne-alpha_list": ["5371"],
                "trials": _COUNT_END, "attack-trials": _COUNT_END, "canonical-trials": _COUNT_END,
                "ake-trials": [str(2**63)], "heterodyne-trials": _COUNT_END,
                "resend-trials": _COUNT_END,
                "aki-M": _RING_END, "ake-M": _RING_END, "detect-m_list": _RING_END,
                "attack-m_list": _RING_END}
RULE_CASES = [
    (key, value) for key, (_, kind, _) in RULE_KEYS.items()
    for value in ["0", "-1", "3", "6"] + (["nan", "inf", "1e100"] if kind is float else [])
    + BUDGET_CASES.get(key, [])
]


def _same_check(a, b):
    """Do two key checks run the same code?  ``_monte_carlo`` builds a new seed partial per call."""
    if isinstance(a, partial) and isinstance(b, partial):
        return (a.func, a.args, a.keywords) == (b.func, b.args, b.keywords)
    return a is b


class TestLibraryRules:
    # a key exits 2 naming itself exactly when its library rule refuses the
    # value; otherwise the run goes ahead
    @pytest.mark.parametrize("key, value", RULE_CASES, ids=[f"{k}={v}" for k, v in RULE_CASES])
    def test_cli_refuses_what_the_rule_refuses(self, tmp_path, capsys, key, value):
        argv, kind, rule = RULE_KEYS[key]
        try:
            rule(kind(value))
            refused = False
        except ValueError:
            refused = True
        code = run_cli(argv + [value, "--out", str(tmp_path / "o")])
        named = f"config key '{key.split('-')[-1]}'" in capsys.readouterr().err
        assert (code, named) == ((2, True) if refused else (0, False))

    def test_every_rule_backed_key_has_a_row(self):
        # a key whose check runs a library rule, rather than testing a switch,
        # a path or a choice, needs a row in RULE_KEYS for its check
        tested = [cli._SUBCOMMANDS[argv[0]][1][key.split("-")[-1]][1]
                  for key, (argv, _, _) in RULE_KEYS.items()]
        missing = [(sub, key) for sub, (_, keys) in cli._SUBCOMMANDS.items()
                   for key, (_, check, _, settings) in keys.items()
                   if check not in (cli._switch, cli._path) and "choices" not in settings
                   and not any(_same_check(check, t) for t in tested)]
        assert missing == []

    @pytest.mark.parametrize("estimator, code", [("canonical", 2), ("all", 2), ("heterodyne", 2),
                                                 ("heterodyne-resend", 0)])
    def test_canonical_amplitude_budget(self, tmp_path, capsys, estimator, code):
        # the phase estimators build O(alpha0) Fourier coefficients, so they limit
        # alpha0 and resend does not; the refusal comes before the output file is opened
        out = tmp_path / "o.csv"
        argv = ["coherent", "--alpha0", "1e100", "--M", "4", "--trials", "10",
                "--estimator", estimator, "--out", str(out)]
        assert run_cli(argv) == code
        assert ("config key 'alpha_list'" in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("strategy, code", [("impersonation", 2), ("translucent", 0)])
    def test_impersonation_block_budget(self, tmp_path, capsys, strategy, code):
        # only the impersonation PMF is O(k^2) in the block count, so only it limits k
        argv = ["attack", "--strategy", strategy, "--k", str(adversary.MAX_ORDER_BLOCKS + 1),
                "--M", "4", "--out", str(tmp_path / "o.csv")]
        assert run_cli(argv) == code
        assert ("config key 'k'" in capsys.readouterr().err) == (code == 2)


def fresh_stdout(argv):
    """stdout and exit code of ``argv`` run alone in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "anonkey", *argv], capture_output=True)
    return proc.stdout.decode("utf-8"), proc.returncode


class TestSharedParser:
    # run_cli parses with one parser per process; a call must leave nothing
    # behind for the next one, whatever flags or errors it saw
    @pytest.mark.parametrize("first, second", [
        (["ake", "--k", "3", "--seed", "5", "--transcript"], ["ake", "--k", "3", "--seed", "5"]),
        (["detect", "--M", "4,8", "--six-state"], ["detect", "--M", "4,8"]),
        (["ake", "--M", "6"], ["ake", "--k", "2", "--eve", "translucent", "--seed", "1"]),
        (["ake", "--eve", "bogus"], ["ake", "--k", "2", "--seed", "1", "--format", "csv"]),
    ], ids=["transcript-then-rows", "six-state-then-circle", "config-error-then-valid",
            "parse-error-then-valid"])
    def test_sequence_matches_fresh_runs(self, capsys, first, second):
        outputs = []
        for argv in (first, second):
            code = run_cli(argv)
            outputs.append((capsys.readouterr().out, code))
        assert outputs == [fresh_stdout(first), fresh_stdout(second)]
        assert outputs[1][1] == 0


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "anonkey", "detect", "--M", "4", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert float(read_csv(out)[0]["p_accept"]) == pytest.approx(0.75, abs=1e-9)
