import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from anonkey import coding, protocol
from anonkey.adversary import binary_entropy, impersonation_order_pmf, opaque_bound
from anonkey.detection import ring_tables
from anonkey.harness import derive_seeds
from anonkey.protocol import (
    BLOCK_SIZE,
    EVE_STRATEGIES,
    INVERSE_ORDER_TABLE,
    ORDER_STRINGS,
    ORDER_TABLE,
    TRIAL_PLAINTEXT,
    ChannelModel,
    SessionConfig,
    SessionTranscript,
    run_ake_session,
    run_ake_sessions,
)


class TestOrderTable:
    def test_exact_four_orders(self):
        assert ORDER_STRINGS == ("12345678", "87654321", "38462715", "41236587")

    def test_position_disjointness_exhaustive(self):
        for p in range(BLOCK_SIZE):
            values = {ORDER_TABLE[g][p] for g in range(4)}
            assert len(values) == 4

    def test_identity_order(self):
        assert ORDER_TABLE[0].tolist() == list(range(BLOCK_SIZE))

    def test_reverse_order(self):
        block = np.array(list("abcdefgh"))
        assert "".join(block[ORDER_TABLE[1]]) == "hgfedcba"

    def test_quoted_third_order(self):
        block = np.array(list("abcdefgh"))
        assert "".join(block[ORDER_TABLE[2]]) == "chdfbgae"
        assert "".join(block[ORDER_TABLE[3]]) == "dabcfehg"

    def test_permute_inverts(self):
        identity = list(range(BLOCK_SIZE))
        for g in range(4):
            assert ORDER_TABLE[g][INVERSE_ORDER_TABLE[g]].tolist() == identity
            assert INVERSE_ORDER_TABLE[g][ORDER_TABLE[g]].tolist() == identity

    def test_length_validation(self):
        # four orders of one 8-slot block; an order id outside 0..3 has no row
        assert ORDER_TABLE.shape == INVERSE_ORDER_TABLE.shape == (4, BLOCK_SIZE)
        with pytest.raises(IndexError):
            ORDER_TABLE[4]
        with pytest.raises(IndexError):
            INVERSE_ORDER_TABLE[4]


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


TRANSCRIPT_CASES = [
    (eve, cecc, k) for eve in EVE_STRATEGIES for cecc in ("none", "hamming74") for k in (1, 7, 300)
] + [(eve, ("none", "hamming74")[i % 2], 2048) for i, eve in enumerate(EVE_STRATEGIES)]


class TestTranscriptJson:
    @pytest.mark.parametrize("eve, cecc, k", TRANSCRIPT_CASES)
    def test_equals_deep_copy_dump(self, eve, cecc, k):
        t = run_ake_session(
            SessionConfig(k=k, M=8, cecc=cecc, eve_strategy=eve, rng_seed=k, pa_hash_seed=3)
        )
        assert t.to_json() == json.dumps(asdict(t), sort_keys=True, indent=2)

    @pytest.mark.parametrize("eve", EVE_STRATEGIES)
    def test_aborted_equals_deep_copy_dump(self, eve):
        t = run_ake_session(
            SessionConfig(k=3, channel=ChannelModel(loss_prob=0.95), eve_strategy=eve, rng_seed=4)
        )
        assert t.aborted
        assert t.to_json() == json.dumps(asdict(t), sort_keys=True, indent=2)


def attack_report(strategy, **fields):
    """A transcript's ``eve_report``: the fields every strategy reports, then its own."""
    return {"strategy": strategy, "per_qubit_success": 0.0, "deterministic_bits": 0,
            "shannon_bits": 0.0, "order_guess_distribution": (), **fields}


def reference_session(cfg):
    """One session computed on its own, one numpy call per step: the
    reference that the batched core's transcripts must equal."""
    rng = np.random.default_rng(cfg.rng_seed)
    tables = ring_tables(cfg.M)
    M, q = cfg.M, tables.q

    n_raw = 8 * cfg.k
    n_coded = round(n_raw / coding.code_rate(cfg.cecc))
    n_blocks = math.ceil(n_coded / BLOCK_SIZE)
    n_slots = BLOCK_SIZE * n_blocks
    n_pad = n_slots - n_coded
    send_margin = 0.25  # fixed, and recorded in every transcript's config
    n_sent = math.ceil(n_slots * (1.0 + send_margin))
    config = dict(asdict(cfg), send_margin=send_margin)

    # step (i): Adam transmits random ring states
    sent = rng.integers(0, M, size=n_sent)

    # channel, one application per qubit round trip
    lost = rng.random(n_sent) < cfg.channel.loss_prob
    depolarized = rng.random(n_sent) < cfg.channel.depolarize_prob
    depolarized &= ~lost

    # opaque interception happens on the way out: Eve measures the optimal
    # ring detector and forwards her estimate
    eve_offsets = None
    if cfg.eve_strategy == "opaque":
        eve_offsets = rng.choice(M, size=n_sent, p=tables.srm)
        carried = (sent + eve_offsets) % M
    else:
        carried = sent

    arrived = np.flatnonzero(~lost)
    if len(arrived) < n_slots:
        return SessionTranscript(
            config=config,
            states_sent=sent.tolist(),
            eve_report=attack_report(cfg.eve_strategy),
            aborted=True,
            abort_reason=f"only {len(arrived)} of {n_slots} needed qubits survived the channel",
        )
    used = arrived[:n_slots]  # publicly acknowledged fill order

    # step (ii): the responder's data, coding, modulation, secret orders
    counterpart_raw = rng.integers(0, 2, size=n_raw, dtype=np.uint8)
    coded = coding.cecc_encode(counterpart_raw, cfg.cecc)
    pad = rng.integers(0, 2, size=n_pad, dtype=np.uint8)
    slot_bits = np.concatenate([coded, pad])

    src = carried[used]
    src_dep = depolarized[used]
    # bit 0 rotates +M/4 steps along the ring, bit 1 rotates -M/4
    returned = (src + q * (1 - 2 * slot_bits.astype(np.int64))) % M

    orders = rng.integers(0, 4, size=n_blocks)

    if cfg.eve_strategy == "impersonate-order":
        guesses = rng.integers(0, 4, size=n_blocks)
        # Adam restores with the true order; Eve packed with her guess.  The
        # slot he reads at position s actually holds slot sigma[s] of the
        # block, and the four orders never agree at any position, so a wrong
        # guess misplaces every qubit of the block.
        sigma = np.take_along_axis(ORDER_TABLE[guesses], INVERSE_ORDER_TABLE[orders], axis=1)
        sigma = (sigma + BLOCK_SIZE * np.arange(n_blocks)[:, None]).reshape(-1)
    else:
        sigma = np.arange(n_slots)

    # step (iii): Adam restores order and measures his quarter-turn basis
    expected = sent[used]
    actual = returned[sigma]
    actual_dep = src_dep[sigma]
    p0 = tables.decrypt_p0[(actual - expected) % M]
    p0 = np.where(actual_dep, 0.5, p0)
    adam_coded = (rng.random(n_slots) >= p0).astype(np.uint8)
    adam_raw, corrected = coding.cecc_decode(adam_coded[:n_coded], cfg.cecc)

    # privacy amplification of the 8k sifted bits down to 4k
    out_len = 4 * cfg.k
    key_adam, key_counterpart = coding.privacy_amplify(
        np.stack([adam_raw, counterpart_raw])[None], [cfg.pa_hash_seed], out_len
    )[0]

    # step (iv): trial encryption of the fixed public plaintext
    t = min(len(TRIAL_PLAINTEXT), out_len)
    tag = key_counterpart[:t] ^ TRIAL_PLAINTEXT[:t]
    trial_ok = bool(np.array_equal(key_adam[:t] ^ tag, TRIAL_PLAINTEXT[:t]))

    if cfg.eve_strategy == "opaque":
        hits = eve_offsets[used] == 0
        pre_code_err = float(np.mean(adam_coded[:n_coded] != coded))
        eve_report = attack_report("opaque", per_qubit_success=float(np.mean(hits)),
                                   adam_coded_bit_error_rate=pre_code_err, intercepted_qubits=n_sent)
    elif cfg.eve_strategy == "impersonate-order":
        right = guesses == orders
        wrong_slots = np.repeat(~right, BLOCK_SIZE)
        coded_slots_mask = np.arange(n_slots) < n_coded
        wrong_errs = int(np.sum((adam_coded != slot_bits) & wrong_slots & coded_slots_mask))
        eve_report = attack_report(
            "impersonate-order",
            per_qubit_success=float(np.mean(adam_coded[:n_coded] == coded)),
            order_guess_distribution=tuple(impersonation_order_pmf(n_blocks).tolist()),
            blocks_guessed_right=int(np.sum(right)),
            blocks_total=n_blocks,
            wrong_block_qubits=int(np.sum(wrong_slots & coded_slots_mask)),
            wrong_block_errors=wrong_errs,
        )
    elif cfg.eve_strategy == "translucent":
        # non-disturbing tap, scored by the loose bound: order-guessed
        # blocks leak their bits outright, the rest leak at the capacity of
        # a binary channel with the two-copy success rate
        pa = opaque_bound(M)
        guessed = rng.random(n_blocks) < 0.25
        det_bits = int(np.sum(guessed) * BLOCK_SIZE)
        other = int(n_slots - det_bits)
        eve_report = attack_report(
            "translucent",
            per_qubit_success=pa,
            deterministic_bits=det_bits,
            shannon_bits=float(other * (1.0 - binary_entropy(pa))),
            blocks_guessed_right=int(np.sum(guessed)),
        )
    else:
        eve_report = attack_report("none")

    return SessionTranscript(
        config=config,
        states_sent=sent.tolist(),
        eve_report=eve_report,
        orders_used=orders.tolist(),
        expended_order_bits=2 * n_blocks,
        raw_bits_babe=counterpart_raw.tolist(),
        raw_bits_adam=adam_raw.tolist(),
        final_key_adam=key_adam.tolist(),
        final_key_babe=key_counterpart.tolist(),
        trial_check_passed=trial_ok,
        corrected_blocks=corrected,
    )


def session_row(t):
    """The result columns a session's transcript implies."""
    return {
        "aborted": t.aborted,
        "trial_check_passed": t.trial_check_passed,
        "key_bits": len(t.final_key_adam),
        "keys_equal": t.final_key_adam == t.final_key_babe,
        "corrected_blocks": t.corrected_blocks,
        "expended_order_bits": t.expended_order_bits,
    }


def run_configs(eve, cecc, M, k, n, loss=0.2, depolarize=0.02):
    # loss 0.2 sits at the abort threshold of the 25% send margin, so about
    # half of the sessions abort
    return [
        SessionConfig(k=k, M=M, cecc=cecc, eve_strategy=eve, rng_seed=s, pa_hash_seed=s ^ 0x5A,
                      channel=ChannelModel(loss, depolarize))
        for s in derive_seeds(1000 * k + M, n)
    ]


class TestBatchedSessions:
    @pytest.mark.parametrize("k", [1, 7, 64])
    @pytest.mark.parametrize("M", [4, 8, 16])
    @pytest.mark.parametrize("cecc", ["none", "hamming74"])
    @pytest.mark.parametrize("eve", EVE_STRATEGIES)
    def test_batch_equals_single_sessions(self, eve, cecc, M, k):
        configs = run_configs(eve, cecc, M, k, 12)
        (batch,) = run_ake_sessions(configs)
        singles = [run_ake_session(c) for c in configs]
        aborted = [t.aborted for t in singles]
        assert any(aborted) and not all(aborted)
        assert batch.rows() == [session_row(t) for t in singles]
        for got, want, cfg in zip(batch.transcripts(), singles, configs):
            assert got.to_json() == want.to_json() == reference_session(cfg).to_json()

    def test_rows_hold_plain_python_values(self):
        (batch,) = run_ake_sessions(run_configs("opaque", "hamming74", 8, 7, 12))
        for row in batch.rows():
            assert {type(v) for v in row.values()} <= {bool, int}

    def test_all_sessions_aborted(self):
        configs = run_configs("impersonate-order", "hamming74", 4, 3, 3, loss=0.95)
        (batch,) = run_ake_sessions(configs)
        assert [r["aborted"] for r in batch.rows()] == [True] * 3
        assert [t.to_json() for t in batch.transcripts()] == [
            run_ake_session(c).to_json() for c in configs
        ]

    def test_chunks_keep_the_slot_budget_and_the_results(self, monkeypatch):
        configs = run_configs("translucent", "hamming74", 8, 7, 10)
        (whole,) = run_ake_sessions(configs)
        n_sent = whole.states_sent.shape[1]
        monkeypatch.setattr(protocol, "_SLOT_BUDGET", 3 * n_sent + 1)
        chunks = list(run_ake_sessions(configs))
        assert [len(b.configs) for b in chunks] == [3, 3, 3, 1]
        assert [r for b in chunks for r in b.rows()] == whole.rows()
        assert [t.to_json() for b in chunks for t in b.transcripts()] == [
            t.to_json() for t in whole.transcripts()
        ]
        monkeypatch.setattr(protocol, "_SLOT_BUDGET", 1)
        assert [len(b.configs) for b in run_ake_sessions(configs)] == [1] * 10

    def test_sessions_must_share_all_but_seeds(self):
        configs = [SessionConfig(k=2, rng_seed=1), SessionConfig(k=3, rng_seed=2)]
        with pytest.raises(ValueError, match="seeds"):
            list(run_ake_sessions(configs))
        assert list(run_ake_sessions([])) == []
