import hashlib
import math

import numpy as np
import pytest

from anonkey.adversary import two_copy_states
from anonkey.detection import (
    Povm,
    acceptance_probability,
    certify_optimality,
    correct_id_probability,
    evaluate_detection,
    helstrom_binary,
    random_basis_strategy,
    ring_tables,
    square_root_measurement,
    uniform_guess_povm,
)
from anonkey.states import (
    Ensemble,
    bloch_to_density,
    circle_state,
    rotation_unitary,
    six_state_ensemble,
    sphere_grid_ensemble,
    uniform_circle_ensemble,
)


def random_plane_bloch(rng, pure=False):
    """Bloch vector in the r2 = 0 plane (the protocol's arena)."""
    a = rng.uniform(0, 2 * math.pi)
    r = 1.0 if pure else rng.random()
    return np.array([r * math.cos(a), 0.0, r * math.sin(a)])


def orthogonal_pair():
    return circle_state(1, 4), circle_state(3, 4)


class TestPovmValidation:
    def test_rejects_incomplete(self):
        p = circle_state(1, 4).matrix
        with pytest.raises(ValueError):
            Povm((p,))

    def test_rejects_negative_element(self):
        good = np.eye(2) * 1.5
        bad = -0.5 * np.eye(2)
        with pytest.raises(ValueError):
            Povm((good, bad))

    def test_accepts_projective_basis(self):
        a, b = orthogonal_pair()
        m = Povm((a.matrix, b.matrix))
        assert m.size == 2 and m.dim == 2


class TestSquareRootMeasurement:
    def test_orthogonal_pair_gives_projectors(self):
        a, b = orthogonal_pair()
        m = square_root_measurement(Ensemble((a, b), (0.5, 0.5)))
        assert np.allclose(m.elements[0], a.matrix, rtol=0, atol=1e-9)
        assert np.allclose(m.elements[1], b.matrix, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("M", [4, 8, 64, 4096])
    def test_uniform_circle_elements(self, M):
        # direct matrix oracle: S = I/2 exactly, so S^(-1/2) = sqrt(2) I and
        # each element is (2/M) |psi><psi|
        e = uniform_circle_ensemble(M)
        m = square_root_measurement(e)
        assert m.size == M
        for el, s in zip(m.elements, e.states):
            assert np.allclose(el, (2.0 / M) * s, rtol=0, atol=1e-9)
            assert np.trace(el) == pytest.approx(2.0 / M, abs=1e-9)

    def test_completeness_on_random_pure_ensembles(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            states = tuple(
                bloch_to_density(random_plane_bloch(rng, pure=True)) for _ in range(n)
            )
            w = rng.random(n) + 0.1
            priors = tuple(w / w.sum())
            m = square_root_measurement(Ensemble(states, priors))
            total = sum(m.elements)
            assert np.allclose(total, np.eye(2), rtol=0, atol=1e-8)

    def test_rank_deficient_support_padded(self):
        rho = circle_state(1, 4)
        m = square_root_measurement(Ensemble((rho, rho), (0.5, 0.5)))
        assert m.size == 3  # complement element appended
        assert np.allclose(sum(m.elements), np.eye(2), rtol=0, atol=1e-9)


class TestCorrectId:
    @pytest.mark.parametrize("M,expected", [(4, 0.5), (8, 0.25)])
    def test_circle_srm(self, M, expected):
        e = uniform_circle_ensemble(M)
        assert correct_id_probability(e, square_root_measurement(e)) == pytest.approx(
            expected, abs=1e-9
        )

    def test_orthogonal_pair_perfect(self):
        a, b = orthogonal_pair()
        e = Ensemble((a, b), (0.5, 0.5))
        assert correct_id_probability(e, square_root_measurement(e)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_count_mismatch(self):
        e = uniform_circle_ensemble(8)
        with pytest.raises(ValueError):
            correct_id_probability(e, uniform_guess_povm(4, 2))


class TestAcceptance:
    @pytest.mark.parametrize("M", [4, 16])
    def test_circle_srm_three_quarters(self, M):
        e = uniform_circle_ensemble(M)
        assert acceptance_probability(e, square_root_measurement(e)) == pytest.approx(
            0.75, abs=1e-9
        )

    def test_guessing_is_half(self):
        e = uniform_circle_ensemble(4)
        assert acceptance_probability(e, uniform_guess_povm(4, 2)) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_six_state_two_thirds(self):
        e = six_state_ensemble()
        assert acceptance_probability(e, square_root_measurement(e)) == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_acceptance_at_least_correct_id(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            states = tuple(
                bloch_to_density(random_plane_bloch(rng, pure=True)) for _ in range(n)
            )
            w = rng.random(n) + 0.1
            e = Ensemble(states, tuple(w / w.sum()))
            m = square_root_measurement(e)
            assert acceptance_probability(e, m) >= correct_id_probability(e, m) - 1e-12

    def test_relabeling_invariance(self):
        # shifting which ring state is called "1" cannot change the score
        M = 8
        e = uniform_circle_ensemble(M)
        m = square_root_measurement(e)
        base = acceptance_probability(e, m)
        for c in (1, 3, 5):
            states = tuple(circle_state(ell + c, M) for ell in range(1, M + 1))
            e2 = Ensemble(states, tuple(1.0 / M for _ in range(M)))
            m2 = square_root_measurement(e2)
            assert acceptance_probability(e2, m2) == pytest.approx(base, abs=1e-9)

    def test_sphere_grids_approach_two_thirds(self):
        # quasi-uniform Bloch-sphere coverings: the full-sphere score
        assert acceptance_probability(
            six_state_ensemble(), square_root_measurement(six_state_ensemble())
        ) == pytest.approx(2.0 / 3.0, abs=1e-9)
        for n, tol in ((30, 1e-3), (100, 1e-4)):
            e = sphere_grid_ensemble(n)
            pa = acceptance_probability(e, square_root_measurement(e))
            assert pa == pytest.approx(2.0 / 3.0, abs=tol)


def reference_acceptance(e, m):
    """The defining double sum over (state, outcome) pairs, one trace at a time."""
    total = 0.0
    for p, s in zip(e.priors, e.states):
        for el, t in zip(m.elements, e.states):
            total += p * np.real(np.trace(el @ s)) * np.real(np.trace(s @ t))
    return total


class TestAcceptanceMatchesDoubleSum:
    def test_random_mixed_qubit_ensembles(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            states = tuple(
                bloch_to_density(v * rng.random() / np.linalg.norm(v))
                for v in rng.standard_normal((n, 3))
            )
            w = rng.random(n) + 0.1
            e = Ensemble(states, tuple(w / w.sum()))
            for m in (square_root_measurement(e), uniform_guess_povm(n, 2)):
                assert acceptance_probability(e, m) == pytest.approx(
                    reference_acceptance(e, m), abs=1e-12
                )

    def test_srm_with_appended_complement(self):
        # a rank-one ensemble leaves a complement element past the n states
        e = Ensemble((circle_state(1, 4), circle_state(1, 4)), (0.3, 0.7))
        m = square_root_measurement(e)
        assert m.size == e.size + 1
        assert acceptance_probability(e, m) == pytest.approx(
            reference_acceptance(e, m), abs=1e-12
        )

    @pytest.mark.parametrize("e", [six_state_ensemble(), sphere_grid_ensemble(200)],
                             ids=["six-state", "sphere-200"])
    def test_sphere_ensembles(self, e):
        m = square_root_measurement(e)
        assert acceptance_probability(e, m) == pytest.approx(
            reference_acceptance(e, m), abs=1e-12
        )

    @pytest.mark.parametrize("M", [4, 8])
    def test_two_copy_states(self, M):
        e = Ensemble(two_copy_states(M), (0.5, 0.5))
        m = square_root_measurement(e)
        assert e.dim == 4
        assert acceptance_probability(e, m) == pytest.approx(
            reference_acceptance(e, m), abs=1e-12
        )


# sha256 of the raw bytes of (ov, decrypt_p0, srm), recorded from the
# element-by-element implementation; ake, aki and attack sample from these
# tables, so the stacked implementation must reproduce them to the last bit
RING_TABLE_SHA256 = {
    4: (
        "9cde20aa813c91669f87770660b5c33d73e13268ba49fd70ea6cabe4c7a28edf",
        "2e123076c4a1275caa99990620d97f063e1465a994786787ed3f8adc0ec3604e",
        "a23f8121611031a7d88480a63274204c721f28660ac971894f2eebb079ad4943",
    ),
    8: (
        "55c8130c42ad2692a16e4974adbf04a385eed16349f5675c65995646861f69d5",
        "3e88209392f4be250ebea662252fa72633ca257237ad15ef262215b9922b114c",
        "e34f49600e0b25c8219b422fe298798591d860d99fb118974d05f8150bdde517",
    ),
    12: (
        "7c27f0b01a90abd423179eaa409d530dccc11ed77c06d183dd5651a17640821c",
        "52397154f4588c0e194c6911bb0def5f89d7725d718e97a5ba09b8ab13296d96",
        "3c2d56d96781776abfb03db987fc0540a0ec715781d492763793c9b2fc7a0429",
    ),
    16: (
        "e0d0d9ba823151e3be3d3dc61dcad097238424b7313a31e24769d8ff5765b0e2",
        "3de6b7aaa2e87295ce29eb19c81342d8079875cf4b3e185ea80a028bbb221d57",
        "770b65f5e725bc49294fdb86550655d305feb7abb15a33f4a28dd940ced3e35b",
    ),
    64: (
        "664c64fafcbd24f7041a3e6447d752aa6599e1700b18b3806d560959842b3158",
        "7784ad6a51ac79d1cfb41fee3086f37b73c205f3be8d9905fc4970b269d69ed1",
        "b81d40d7befa91fcb4fd961944ad1b27b83ef2b7932c6478929fd55ad960091e",
    ),
    192: (
        "bf0b92129c6ce770c61f35362ae147232c123e16efe4b342133e0276716034b8",
        "4e0e14703101e7eb8b6e91f442cd2ea631ce54910bd2fa65298dc0b655eb55f2",
        "936fc6530bc7da7306cbe24ae0addfceb3959c0eb7d26baf43f969a0eda82bef",
    ),
}


class TestRingTables:
    def test_tables_match_closed_forms(self):
        # the ring simulations sample from tables computed out of the
        # density-operator algebra; pin them against the independent
        # closed-form oracles for ring overlaps and the optimal detector, to a
        # few ulps at 1 (rtol 0: the default rtol of 1e-5 would bound nothing);
        # the worst deviation, 5.0e-16 in decrypt_p0 at M = 192, is part the
        # closed form's own rounding: against cos^2 in long double it is 4.3e-16
        for M in (4, 8, 16, 64, 192):
            t = ring_tables(M)
            q = M // 4
            d = np.arange(M)
            assert t.q == q
            assert np.abs(t.ov - np.cos(np.pi * d / M) ** 2).max() <= 1e-15
            assert np.abs(t.decrypt_p0 - np.cos(np.pi * (d - q) / M) ** 2).max() <= 1e-15
            assert np.abs(t.srm - (2.0 / M) * np.cos(np.pi * d / M) ** 2).max() <= 4e-16
            assert abs(t.srm.sum() - 1.0) <= 4e-16

    @pytest.mark.parametrize("M", sorted(RING_TABLE_SHA256))
    def test_table_bytes_pinned(self, M):
        t = ring_tables(M)
        tables = (t.ov, t.decrypt_p0, t.srm)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in tables)
        assert digests == RING_TABLE_SHA256[M]

    def test_arrays_are_read_only(self):
        t = ring_tables(8)
        for a in (t.ov, t.decrypt_p0, t.srm):
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("M", [0, -4, 6])
    def test_bad_ring_size_rejected(self, M):
        with pytest.raises(ValueError, match="multiple of 4"):
            ring_tables(M)


class TestHelstrom:
    def test_indistinguishable(self):
        rho = circle_state(1, 4)
        _, pc = helstrom_binary(rho, rho, 0.5)
        assert pc == pytest.approx(0.5, abs=1e-9)

    def test_orthogonal_perfect(self):
        a, b = orthogonal_pair()
        _, pc = helstrom_binary(a, b, 0.5)
        assert pc == pytest.approx(1.0, abs=1e-9)

    def test_never_below_guessing(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = bloch_to_density(random_plane_bloch(rng))
            b = bloch_to_density(random_plane_bloch(rng))
            p0 = rng.random()
            _, pc = helstrom_binary(a, b, p0)
            assert pc >= max(p0, 1 - p0) - 1e-9

    def test_matches_trace_norm_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = bloch_to_density(random_plane_bloch(rng))
            b = bloch_to_density(random_plane_bloch(rng))
            p0 = rng.random()
            _, pc = helstrom_binary(a, b, p0)
            gamma = p0 * a.matrix - (1 - p0) * b.matrix
            expected = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(gamma)).sum())
            assert pc == pytest.approx(expected, abs=1e-10)

    def test_brute_force_equivalence(self):
        # exhaustive search over projective measurements in the plane plus
        # all four outcome-to-hypothesis assignments (the degenerate rules
        # "always answer 0/1" are optimal when one prior dominates)
        rng = np.random.default_rng(14)
        angles = np.linspace(0.0, math.pi, 10_000, endpoint=False)
        kets = np.stack(
            [np.cos((math.pi / 2 - angles) / 2), np.sin((math.pi / 2 - angles) / 2)],
            axis=1,
        )
        for _ in range(20):
            a = bloch_to_density(random_plane_bloch(rng))
            b = bloch_to_density(random_plane_bloch(rng))
            p0 = rng.random()
            _, pc = helstrom_binary(a, b, p0)
            pa0 = np.einsum("ki,ij,kj->k", kets, a.matrix.real, kets)
            pb0 = np.einsum("ki,ij,kj->k", kets, b.matrix.real, kets)
            brute = np.maximum(
                p0 * pa0 + (1 - p0) * (1 - pb0), p0 * (1 - pa0) + (1 - p0) * pb0
            ).max()
            brute = max(brute, p0, 1 - p0)
            assert pc == pytest.approx(brute, abs=1e-4)

    def test_dimension_mismatch(self):
        from anonkey.states import tensor

        a = circle_state(1, 4)
        with pytest.raises(ValueError):
            helstrom_binary(a, tensor(a, a), 0.5)


class TestCertifyOptimality:
    def test_srm_on_circle_is_optimal(self):
        e = uniform_circle_ensemble(8)
        assert certify_optimality(e, square_root_measurement(e))

    def test_orthogonal_pair_projective_optimal(self):
        a, b = orthogonal_pair()
        e = Ensemble((a, b), (0.5, 0.5))
        assert certify_optimality(e, Povm((a.matrix, b.matrix)))

    def test_two_state_projective_padded_ties_the_optimum(self):
        # measuring only states 1 and 3 of the M=4 ring, zero-padded: this
        # degenerate detector also hits P_c = 2/M, and the optimality
        # conditions hold for it exactly (Y = I/4, Y - rho_j/4 PSD), so the
        # certificate correctly accepts it as another minimum-error optimum
        e = uniform_circle_ensemble(4)
        a, b = circle_state(1, 4), circle_state(3, 4)
        zero = np.zeros((2, 2))
        m = Povm((a.matrix, zero, b.matrix, zero))
        assert correct_id_probability(e, m) == pytest.approx(0.5, abs=1e-9)
        assert certify_optimality(e, m)

    def test_guessing_povm_fails_certificate(self):
        e = uniform_circle_ensemble(4)
        assert not certify_optimality(e, uniform_guess_povm(4, 2))

    def test_rotated_srm_fails_certificate(self):
        e = uniform_circle_ensemble(8)
        m = square_root_measurement(e)
        rng = np.random.default_rng(15)
        for _ in range(20):
            u = rotation_unitary(rng.uniform(0.05, 0.5) * rng.choice([-1, 1]))
            rotated = Povm(tuple(u @ el @ u.conj().T for el in m.elements))
            assert not certify_optimality(e, rotated)


class TestRandomBasisStrategy:
    @pytest.mark.parametrize("M", [4, 16])
    def test_three_quarters_without_knowing_m(self, M):
        est, se = random_basis_strategy(M, trials=100_000, seed=100 + M)
        assert se < 0.005
        assert est == pytest.approx(0.75, abs=max(3 * se, 0.005))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            random_basis_strategy(4, 0, 0)

    def test_deterministic(self):
        # (M, trials, seed), the order of the other Monte Carlo kernels; the
        # pinned pair fixes the draw stream
        assert random_basis_strategy(8, 1000, 7) == random_basis_strategy(8, 1000, 7)
        assert random_basis_strategy(8, 1000, 7) == (0.748, 0.013729384545565033)


class TestRotatedSrmScan:
    def test_no_rotation_improves_acceptance(self):
        # conjugate the ring's square-root measurement by a circle rotation
        # of each angle on a grid and score it: the acceptance follows
        # 1/2 + cos(angle)/4, so the unrotated measurement sits at the maximum
        e = uniform_circle_ensemble(8)
        m = square_root_measurement(e)
        angles = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        scores = np.array([
            acceptance_probability(e, Povm(u @ m.elements @ u.T))
            for u in map(rotation_unitary, angles)
        ])
        assert scores.max() <= 0.75 + 1e-9
        assert scores[0] == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(scores, 0.5 + np.cos(angles) / 4, rtol=0, atol=1e-12)


class TestDetectionReport:
    def test_evaluate_bundles_everything(self):
        r = evaluate_detection(uniform_circle_ensemble(8))
        assert r.pc == pytest.approx(0.25, abs=1e-9)
        assert r.pa == pytest.approx(0.75, abs=1e-9)
        assert r.certified_optimal
        assert r.povm.size == 8

    def test_mixed_state_acceptance_below_identification(self):
        # a mixed state's correct hit passes the check with probability
        # tr(rho^2), so P_a < P_c is a valid report
        r = evaluate_detection(Ensemble([np.eye(2) / 2], [1.0]))
        assert r.pc == pytest.approx(1.0, abs=1e-12)
        assert r.pa == pytest.approx(0.5, abs=1e-12)
