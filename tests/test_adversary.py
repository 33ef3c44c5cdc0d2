import math

import numpy as np
import pytest

from anonkey import coding, protocol
from anonkey.adversary import (
    MAX_ORDER_BLOCKS,
    binary_entropy,
    impersonation_order_pmf,
    joint_attack_factorization_check,
    opaque_bound,
    sequential_strategy_pc,
    translucent_accounting,
    two_copy_states,
)
from anonkey.detection import acceptance_probability, square_root_measurement
from anonkey.states import uniform_circle_ensemble


def integer_order_pmf(k):
    """Binomial(k, 1/4) exactly in integers, ``p_q = C(k, q) 3^(k-q) / 4^k``, each entry
    correctly rounded: ``t_0 = 3^k``, ``t_(q+1) = t_q (k - q) / (3 (q + 1))``, in O(k^2)."""
    denom, t, pmf = 4**k, 3**k, []
    for q in range(k + 1):
        pmf.append(t / denom)
        t = t * (k - q) // (3 * (q + 1))
    return np.array(pmf)


class TestImpersonationPmf:
    def test_single_block(self):
        assert np.allclose(impersonation_order_pmf(1), [0.75, 0.25], rtol=0, atol=1e-15)

    def test_two_blocks_middle_term(self):
        # binomial formula: 2 * (1/4) * (3/4)
        assert impersonation_order_pmf(2)[1] == pytest.approx(0.375, abs=1e-12)

    def test_all_blocks_right_is_exponentially_small(self):
        pmf = impersonation_order_pmf(20)
        assert pmf[20] == pytest.approx(0.25**20, rel=1e-9)
        assert pmf[20] < 1e-12

    def test_matches_comb_oracle(self):
        for k in (1, 5, 17):
            pmf = impersonation_order_pmf(k)
            for q in range(k + 1):
                expected = math.comb(k, q) * 0.25**q * 0.75 ** (k - q)
                assert pmf[q] == pytest.approx(expected, rel=1e-12)

    def test_sums_to_one(self):
        for k in (1, 8, 32, 64):
            assert impersonation_order_pmf(k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_k(self):
        for k in (0, MAX_ORDER_BLOCKS + 1, 2**62):
            with pytest.raises(ValueError, match="k must be an integer in"):
                impersonation_order_pmf(k)

    def test_budget_holds_the_largest_session(self):
        # a session under --eve impersonate-order computes the PMF of its block count
        largest = max(protocol._layout(protocol.SessionConfig(k=protocol.MAX_K, cecc=code))[2]
                      for code in coding.CODES)
        assert largest == 229376 <= MAX_ORDER_BLOCKS

    # the Loader form's worst case over these k was 3.6 eps (k + |log p_q|)
    @pytest.mark.parametrize("k", [*range(1, 401), *range(401, 2001, 37), 2000])
    def test_matches_the_integer_recurrence(self, k):
        """Each normal entry is within ``8 eps (k + |log p_q|)`` relative of the exact
        ``C(k, q) 3^(k-q) / 4^k``, and each subnormal one (or zero) within 1e-300."""
        pmf, exact = impersonation_order_pmf(k), integer_order_pmf(k)
        normal = exact >= np.finfo(float).tiny
        bound = 8 * np.finfo(float).eps * (k + np.abs(np.log(exact[normal])))
        assert np.all(np.abs(pmf[normal] - exact[normal]) <= bound * exact[normal])
        assert np.all(np.abs(pmf[~normal] - exact[~normal]) <= 1e-300)

    def test_cached_pmf_is_read_only(self):
        pmf = impersonation_order_pmf(9)
        assert impersonation_order_pmf(9) is pmf
        with pytest.raises(ValueError):
            pmf[0] = 1.0

    def test_many_blocks_do_not_overflow(self):
        # C(k, q) outgrows a double past 1029 blocks; the pmf must stay a
        # Binomial(k, 1/4): nonnegative, summing to one, mean k/4
        for k in (1030, 3584):
            pmf = impersonation_order_pmf(k)
            assert np.all(pmf >= 0)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf @ np.arange(k + 1) == pytest.approx(k / 4, rel=1e-12)


class TestTwoCopyStates:
    def test_unit_traces(self):
        r0, r1 = two_copy_states(8)
        assert np.trace(r0.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(r1.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_marginals_maximally_mixed(self):
        r0, _ = two_copy_states(8)
        t = r0.matrix.reshape(2, 2, 2, 2)  # indices a, b, a', b'
        for marginal in (np.einsum("abcb->ac", t), np.einsum("abad->bd", t)):
            assert np.allclose(marginal, np.eye(2) / 2, rtol=0, atol=1e-12)

    def test_hypotheses_differ(self):
        r0, r1 = two_copy_states(8)
        gap = np.abs(np.linalg.eigvalsh(r0.matrix - r1.matrix)).sum() / 2
        assert gap > 0.4  # trace distance is 1/2 on the ring

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            two_copy_states(6)


class TestOpaqueBound:
    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_three_quarters(self, M):
        assert opaque_bound(M) == pytest.approx(0.75, abs=1e-9)

    def test_m_independent(self):
        values = [opaque_bound(M) for M in (4, 8, 12, 16, 32)]
        assert max(values) - min(values) < 1e-9

    @pytest.mark.parametrize("M", [4, 8, 16, 64])
    def test_cached_value_equals_fresh_computation(self, M):
        assert opaque_bound(M) == opaque_bound.__wrapped__(M)

    def test_bad_m_still_rejected_after_caching(self):
        opaque_bound(4)
        with pytest.raises(ValueError):
            opaque_bound(6)

    def test_equals_single_copy_acceptance(self):
        for M in (4, 8, 16):
            e = uniform_circle_ensemble(M)
            pa = acceptance_probability(e, square_root_measurement(e))
            assert opaque_bound(M) == pytest.approx(pa, abs=1e-9)


class TestSequentialStrategy:
    @pytest.mark.parametrize("M", [4, 8])
    def test_matches_bound_within_three_se(self, M):
        est, se = sequential_strategy_pc(M, trials=100_000, seed=50 + M)
        assert se < 0.005
        assert abs(est - opaque_bound(M)) <= 3 * se

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            sequential_strategy_pc(8, 0, 0)

    def test_deterministic(self):
        assert sequential_strategy_pc(8, 5000, 3) == sequential_strategy_pc(8, 5000, 3)


class TestTranslucentAccounting:
    def test_deterministic_bits_exact(self):
        for k in (1, 2, 7, 64):
            det, _ = translucent_accounting(k, 0.75)
            assert det == 2 * k

    def test_shannon_bits_at_three_quarters(self):
        # 6k partially known bits at the capacity of a BSC(0.75)
        _, sh = translucent_accounting(1, 0.75)
        expected = 6 * (1 - (-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)))
        assert sh == pytest.approx(expected, abs=1e-12)
        assert sh == pytest.approx(1.132, abs=5e-4)

    def test_chance_level_leaks_nothing(self):
        _, sh = translucent_accounting(3, 0.5)
        assert sh == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            translucent_accounting(1, 0.3)
        with pytest.raises(ValueError):
            translucent_accounting(0, 0.75)


class TestJointAttackFactorization:
    @pytest.mark.parametrize("M", [4, 8])
    def test_two_bit_blocks_factorize(self, M):
        assert joint_attack_factorization_check(M)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

