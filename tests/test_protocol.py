import numpy as np
import pytest

from anonkey.harness import derive_seeds
from anonkey.protocol import (
    BLOCK_SIZE,
    ORDER_STRINGS,
    ORDER_TABLE,
    ChannelModel,
    SessionConfig,
    order_permute,
    order_unpermute,
    run_ake_session,
)


class TestOrderTable:
    def test_exact_four_orders(self):
        assert ORDER_STRINGS == ("12345678", "87654321", "38462715", "41236587")

    def test_position_disjointness_exhaustive(self):
        for p in range(BLOCK_SIZE):
            values = {ORDER_TABLE[g][p] for g in range(4)}
            assert len(values) == 4

    def test_identity_order(self):
        block = tuple("abcdefgh")
        assert order_permute(block, 0) == block

    def test_reverse_order(self):
        block = tuple("abcdefgh")
        assert order_permute(block, 1) == tuple("hgfedcba")

    def test_quoted_third_order(self):
        block = tuple("abcdefgh")
        assert order_permute(block, 2) == tuple("chdfbgae")

    def test_permute_inverts(self):
        block = tuple(range(8))
        for g in range(4):
            assert order_unpermute(order_permute(block, g), g) == block

    def test_length_validation(self):
        with pytest.raises(ValueError):
            order_permute((1, 2, 3), 0)
        with pytest.raises(ValueError):
            order_permute(tuple(range(8)), 4)


class TestChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            ChannelModel(0.0, 1.5)


class TestHonestSessions:
    @pytest.mark.parametrize("M", [4, 8, 16])
    @pytest.mark.parametrize("cecc", ["none", "hamming74"])
    def test_noiseless_success_all_k(self, M, cecc):
        for k in range(1, 17):
            t = run_ake_session(
                SessionConfig(k=k, M=M, cecc=cecc, rng_seed=1000 * k + M, pa_hash_seed=k)
            )
            assert not t.aborted
            assert t.trial_check_passed
            assert t.final_key_adam == t.final_key_babe
            assert len(t.final_key_adam) == 4 * k

    def test_net_key_accounting(self):
        # ideal configuration: k order blocks cost 2k secret bits against a
        # 4k-bit key, a net expansion of 2k
        for k in (1, 3, 8, 16):
            t = run_ake_session(SessionConfig(k=k, cecc="none", rng_seed=k))
            assert t.expended_order_bits == 2 * k
            assert len(t.orders_used) == k
            assert all(0 <= g <= 3 for g in t.orders_used)
            assert len(t.final_key_adam) - t.expended_order_bits == 2 * k

    def test_coded_sessions_use_more_order_bits(self):
        t = run_ake_session(SessionConfig(k=4, cecc="hamming74", rng_seed=1))
        # 56 coded qubits fill exactly 7 blocks of 8
        assert t.expended_order_bits == 14

    def test_determinism_bit_for_bit(self):
        cfg = SessionConfig(k=4, M=8, rng_seed=99, pa_hash_seed=7, eve_strategy="opaque")
        assert run_ake_session(cfg).to_json() == run_ake_session(cfg).to_json()

    def test_seed_changes_transcript(self):
        a = run_ake_session(SessionConfig(k=4, rng_seed=1))
        b = run_ake_session(SessionConfig(k=4, rng_seed=2))
        assert a.to_json() != b.to_json()

    def test_abort_on_heavy_loss(self):
        t = run_ake_session(
            SessionConfig(k=2, rng_seed=5, channel=ChannelModel(loss_prob=0.9))
        )
        assert t.aborted
        assert "survived" in t.abort_reason
        assert not t.trial_check_passed

    def test_loss_within_margin_succeeds(self):
        t = run_ake_session(
            SessionConfig(k=4, rng_seed=6, channel=ChannelModel(loss_prob=0.1))
        )
        assert not t.aborted and t.trial_check_passed

    def test_cecc_survives_one_percent_depolarization(self):
        # 1% depolarization flips each decoded bit with probability 1/200,
        # so a 7-bit block fails only on double flips (~5.2e-4); at k=8 the
        # analytic session success rate is about 99.2%.  Fixed-seed run,
        # asserted against the 99% target minus a two-sigma sampling
        # allowance.
        n = 1000
        ok = 0
        for s in derive_seeds(424242, n):
            t = run_ake_session(
                SessionConfig(
                    k=8,
                    rng_seed=s,
                    pa_hash_seed=s ^ 0x77,
                    cecc="hamming74",
                    channel=ChannelModel(0.0, 0.01),
                )
            )
            ok += int(
                not t.aborted
                and t.trial_check_passed
                and t.final_key_adam == t.final_key_babe
            )
        target = 0.99
        allowance = 2 * np.sqrt(target * (1 - target) / n)
        assert ok / n >= target - allowance

    def test_full_depolarization_gives_coin_flip_decrypts(self):
        # a fully depolarized qubit yields a uniform measurement outcome
        errs = total = 0
        for s in derive_seeds(515, 20):
            t = run_ake_session(
                SessionConfig(
                    k=64, rng_seed=s, cecc="none", channel=ChannelModel(0.0, 1.0)
                )
            )
            a = np.array(t.raw_bits_adam)
            b = np.array(t.raw_bits_babe)
            errs += int(np.sum(a != b))
            total += len(a)
        assert errs / total == pytest.approx(0.5, abs=0.01)

    def test_trial_pass_implies_equal_keys(self):
        # at k <= 16 the tag covers every key bit, so a passing check
        # certifies byte-equal keys even on noisy runs
        passed = 0
        for s in derive_seeds(616, 200):
            t = run_ake_session(
                SessionConfig(
                    k=6, rng_seed=s, cecc="hamming74", channel=ChannelModel(0.0, 0.02)
                )
            )
            if t.trial_check_passed:
                passed += 1
                assert t.final_key_adam == t.final_key_babe
        assert passed > 150  # most sessions still succeed at 2% noise

    def test_eve_report_carries_attack_report_fields(self):
        for strategy in ("none", "opaque", "impersonate-order", "translucent"):
            t = run_ake_session(
                SessionConfig(k=2, rng_seed=9, cecc="none", eve_strategy=strategy)
            )
            for key in (
                "strategy",
                "per_qubit_success",
                "deterministic_bits",
                "shannon_bits",
                "order_guess_distribution",
            ):
                assert key in t.eve_report
            assert t.eve_report["strategy"] == strategy

    def test_uncoded_sessions_fail_under_noise(self):
        fails = 0
        for s in derive_seeds(11, 50):
            t = run_ake_session(
                SessionConfig(k=8, rng_seed=s, cecc="none", channel=ChannelModel(0.0, 0.05))
            )
            fails += int(not t.trial_check_passed)
        assert fails > 25  # without the code, 5% noise ruins most sessions

    def test_transcript_json_shape(self):
        import json

        t = run_ake_session(SessionConfig(k=2, rng_seed=3))
        data = json.loads(t.to_json())
        for key in (
            "config",
            "aborted",
            "states_sent",
            "orders_used",
            "raw_bits_babe",
            "raw_bits_adam",
            "final_key_adam",
            "final_key_babe",
            "trial_check_passed",
            "eve_report",
        ):
            assert key in data
        assert data["config"]["k"] == 2


class TestOpaqueEve:
    def test_quarter_error_rate_uncoded(self):
        # intercept-resend with the optimal ring detector leaves the
        # legitimate decoder a 3/4 success rate per qubit
        errs = 0
        total = 0
        for s in derive_seeds(303, 10):
            t = run_ake_session(
                SessionConfig(k=64, rng_seed=s, cecc="none", eve_strategy="opaque")
            )
            r = t.eve_report
            errs += r["adam_coded_bit_error_rate"] * 512
            total += 512
        assert errs / total == pytest.approx(0.25, abs=0.01)

    def test_eve_identification_rate(self):
        t = run_ake_session(
            SessionConfig(k=64, M=8, rng_seed=5, cecc="none", eve_strategy="opaque")
        )
        # optimal ring detector identifies with probability 2/M
        assert t.eve_report["per_qubit_success"] == pytest.approx(0.25, abs=0.06)


class TestImpersonationEve:
    def test_wrong_blocks_are_coin_flips(self):
        errs = qubits = 0
        for s in derive_seeds(77, 100):
            t = run_ake_session(
                SessionConfig(k=64, rng_seed=s, cecc="none", eve_strategy="impersonate-order")
            )
            errs += t.eve_report["wrong_block_errors"]
            qubits += t.eve_report["wrong_block_qubits"]
        assert errs / qubits == pytest.approx(0.5, abs=0.01)

    def test_right_guess_blocks_decode_perfectly(self):
        for s in derive_seeds(88, 20):
            t = run_ake_session(
                SessionConfig(k=16, rng_seed=s, cecc="none", eve_strategy="impersonate-order")
            )
            r = t.eve_report
            right_qubits = r["blocks_guessed_right"] * BLOCK_SIZE
            total = r["blocks_total"] * BLOCK_SIZE
            errors = round(total * (1 - r["per_qubit_success"]))
            assert errors <= total - right_qubits  # no errors on right blocks

    def test_trial_encryption_catches_it(self):
        fails = 0
        for s in derive_seeds(99, 100):
            t = run_ake_session(
                SessionConfig(k=64, rng_seed=s, cecc="none", eve_strategy="impersonate-order")
            )
            fails += int(not t.trial_check_passed)
        assert fails == 100

    def test_guess_rate_matches_binomial(self):
        rights = []
        for s in derive_seeds(111, 200):
            t = run_ake_session(
                SessionConfig(k=16, rng_seed=s, cecc="none", eve_strategy="impersonate-order")
            )
            rights.append(t.eve_report["blocks_guessed_right"])
        mean = np.mean(rights)
        # Binomial(16, 1/4): mean 4, sd 1.73; 200 sessions pin the mean well
        assert mean == pytest.approx(4.0, abs=3 * 1.732 / np.sqrt(200))


class TestTranslucentEve:
    def test_non_disturbing_and_accounted(self):
        t = run_ake_session(SessionConfig(k=8, rng_seed=12, eve_strategy="translucent"))
        assert t.trial_check_passed  # tap leaves the states alone
        r = t.eve_report
        assert r["deterministic_bits"] == r["blocks_guessed_right"] * BLOCK_SIZE
        assert r["shannon_bits"] >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(k=0)
        with pytest.raises(ValueError):
            SessionConfig(k=1, M=6)
        with pytest.raises(ValueError):
            SessionConfig(k=1, cecc="turbo")
        with pytest.raises(ValueError):
            SessionConfig(k=1, eve_strategy="quantum-memory")
