import math

import numpy as np
import pytest

from anonkey.aki import (
    AkiChallenge,
    SecretCirclePhase,
    aki_challenge,
    aki_impersonation,
    aki_verify,
    run_honest_aki_round,
)
from anonkey.states import circle_state, circle_state_at, overlap, rotate_circle


def operators_close(a, b, atol=1e-9):
    return a.dim == b.dim and bool(np.allclose(a.matrix, b.matrix, atol=atol, rtol=0.0))


class TestChallenge:
    def test_forced_zero_phase(self):
        ch = AkiChallenge(phi_a=0.0, phi_b=0.0, sent_state=circle_state_at(0.0))
        assert operators_close(ch.sent_state, circle_state_at(0.0))

    def test_forced_phase_addition(self):
        # the constructor accepts the state at phi_b + phi_a
        ch = AkiChallenge(phi_a=math.pi / 2, phi_b=math.pi / 2, sent_state=circle_state_at(math.pi))
        assert operators_close(ch.sent_state, circle_state_at(math.pi), atol=1e-12)

    def test_challenge_state_consistency_enforced(self):
        with pytest.raises(ValueError):
            AkiChallenge(phi_a=0.0, phi_b=0.0, sent_state=circle_state_at(math.pi / 2))

    def test_phases_drawn_from_ring(self):
        rng = np.random.default_rng(1)
        M = 8
        step = 2 * math.pi / M
        for _ in range(200):
            ch = aki_challenge(0.3, rng, M=M)
            ratio = ch.phi_a / step
            assert ratio == pytest.approx(round(ratio), abs=1e-9)

    def test_challenge_phases_replay_the_generator_stream(self):
        # phi_a is 2*pi*j/M for the generator's next integers(0, M) draw j,
        # so the uniformity check below on a vectorized draw applies to it
        M, n = 8, 2_000
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(n):
            assert aki_challenge(0.0, rng, M=M).phi_a == 2 * math.pi * int(ref.integers(0, M)) / M

    def test_challenge_phase_uniformity_chi2(self):
        # chi-squared goodness of fit at the 0.01 level, df = 7
        M, n = 8, 100_000
        phases = 2 * math.pi * np.random.default_rng(2).integers(0, M, size=n) / M
        counts = np.bincount(np.rint(phases / (2 * math.pi / M)).astype(int) % M, minlength=M)
        chi2 = float(np.sum((counts - n / M) ** 2 / (n / M)))
        assert chi2 < 18.475  # critical value, df=7, alpha=0.01

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            aki_challenge(0.0, np.random.default_rng(0), M=6)


class TestRespond:
    def test_inverse_rotation(self):
        rng = np.random.default_rng(3)
        for phi_b in (0.0, 0.7, 2.0, 5.5):
            ch = aki_challenge(phi_b, rng, M=8)
            returned = SecretCirclePhase(phi_b).remove_phase(ch.sent_state)
            assert operators_close(returned, circle_state_at(ch.phi_a), atol=1e-9)

    def test_zero_phase_is_identity(self):
        rho = circle_state(3, 8)
        assert operators_close(SecretCirclePhase(0.0).remove_phase(rho), rho)

    def test_round_trip_unitarity(self):
        rho = circle_state(1, 8)
        out = SecretCirclePhase(1.234).remove_phase(rotate_circle(rho, 1.234))
        assert operators_close(out, rho, atol=1e-9)


class TestVerify:
    def test_exact_state_always_accepts(self):
        rng = np.random.default_rng(4)
        assert all(
            aki_verify(circle_state_at(0.9), 0.9, rng) for _ in range(10_000)
        )

    def test_orthogonal_state_never_accepts(self):
        rng = np.random.default_rng(5)
        assert not any(
            aki_verify(circle_state_at(0.9 + math.pi), 0.9, rng) for _ in range(10_000)
        )

    def test_fixed_reference_replay_accepted_half_the_time(self):
        # without a fresh challenge phase a cheat could always return the
        # reference state; with it, the average ring overlap is one half.
        # Exact: average the acceptance over the M = 8 challenge phases.
        M = 8
        challenges = [AkiChallenge(phi_a=2 * math.pi * j / M, phi_b=1.3,
                                   sent_state=circle_state_at(1.3 + 2 * math.pi * j / M))
                      for j in range(M)]
        accept = [overlap(circle_state_at(0.0), circle_state_at(ch.phi_a)) for ch in challenges]
        assert sum(accept) / M == pytest.approx(0.5, abs=1e-12)

    def test_fixed_reference_replay_sampled(self):
        # the same through the sampled challenge and verifier, held to 4
        # standard deviations (the exact mean is checked above)
        rng = np.random.default_rng(6)
        n = 10_000
        hits = 0
        for _ in range(n):
            ch = aki_challenge(float(rng.uniform(0, 2 * math.pi)), rng, M=8)
            hits += aki_verify(circle_state_at(0.0), ch.phi_a, rng)
        assert abs(hits / n - 0.5) <= 4 * math.sqrt(0.25 / n)


class TestHonestProtocol:
    def test_noiseless_acceptance_is_exact(self):
        rng = np.random.default_rng(7)
        key = SecretCirclePhase(2 * math.pi * 5 / 8)
        assert all(run_honest_aki_round(key, rng, M=8) for _ in range(10_000))

    def test_verifier_never_reads_the_phase(self):
        rng = np.random.default_rng(8)
        key = SecretCirclePhase(1.1)
        for _ in range(100):
            run_honest_aki_round(key, rng, M=4)
        kinds = {kind for kind, _ in key.audit_log}
        assert kinds == {"modulate", "remove"}

    def test_reveal_is_audited(self):
        key = SecretCirclePhase(0.4)
        value = key.reveal("test probe")
        assert value == pytest.approx(0.4)
        assert ("reveal", "test probe") in key.audit_log


class TestImpersonation:
    @pytest.mark.parametrize("m,expected", [(1, 0.75), (2, 0.5625), (8, 0.75**8)])
    def test_acceptance_matches_power_law(self, m, expected):
        est, se = aki_impersonation(m, 4, trials=100_000, seed=40 + m)
        assert abs(est - expected) <= 3 * max(se, 1e-4)

    def test_geometric_decay_slope(self):
        ms = np.arange(1, 9)
        logs = []
        for m in ms:
            est, _ = aki_impersonation(int(m), 4, trials=100_000, seed=900 + int(m))
            logs.append(math.log(est))
        slope = np.polyfit(ms, logs, 1)[0]
        assert slope == pytest.approx(math.log(0.75), abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            aki_impersonation(0, 4, 10, 0)
        with pytest.raises(ValueError):
            aki_impersonation(1, 4, 0, 0)
        with pytest.raises(ValueError):
            aki_impersonation(1, 5, 10, 0)

    def test_deterministic(self):
        assert aki_impersonation(2, 4, 5000, 1) == aki_impersonation(2, 4, 5000, 1)
