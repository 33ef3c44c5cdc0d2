import hashlib
import math

import numpy as np
import pytest

from anonkey import detection, protocol, states
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
    circle_states,
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


# sha256 of the raw bytes of (ov, srm, cdf), recorded from the closed forms
# once every golden CLI output held byte for byte; ake, aki and attack sample
# from these tables, so a change to their bytes must show here first
RING_TABLE_SHA256 = {
    4: (
        "9195086853dd18e9d9969f9c8d1cee15f87dd9f7c924a743dbe42f75c68db705",
        "8e6f09d6ad6578ce2964b6b09285e3625d3ed6cb5fc5d145ee01a26c54edc9bb",
        "6c7e752c6f5c3047513c8ee4f801ce4bc12228f3783cf166619d0880f3b5cbe4",
    ),
    8: (
        "0647a00a551a79fe9f17c59f74e18c4a355e703197310ed8bf05ebb61a1ad235",
        "5d79f824c35c0cccfaf3624eabdddeb024b9739109ea568642755872829aab9b",
        "82e1e9f64ab5ddd4df686a740867aac828f57535a5601608c48ca1a8d6c1dac1",
    ),
    12: (
        "65bad9131be27adc4ce520ddb52335afcd5cdf245d7a70619216ed21ee4c9eba",
        "9cf1eebf0419df74ef218f440506082b0e17b2d6e9fdc5961201f8e744997d23",
        "81783d8d5f3ab03a55c173bde72d556980406fa4505b86798a8d8d330152204a",
    ),
    16: (
        "9701362fc3809225b47fdb1f9283de2b2766758d295cc9086bba8252f3d9ec5e",
        "9e40b450ce3b408dde0029dabd2ecc037de90227c0409dfc552adbd3cfeabd0a",
        "5f6054cf90e2268a3d528d3797d173fc095e7d9b07cf73dd03635a9b42866b2b",
    ),
    64: (
        "4f0dd761b373ca9c1500cd4878d1570b642785b8171434ffb762f81ce3f94c17",
        "a162fdcb3b5e5ae809c5d106b5ca814d729b60e170df85b68dfc56ae4f442bf3",
        "3f37f180ec0e4de3f1384f36e3a9f3ea173d28998801385ba3b1477a7472ab2a",
    ),
    192: (
        "6c997fa6a747991ddef2b48947b233e6f285c33cfe8827dff1eee83a9c742a2f",
        "cc315b7845014cc59b8530e90640957026f6118de0194de3ab3110b53bbbd542",
        "791fa16175a7cae92ac43d2c4ca133695059ad742b7f4b0c910b4efe819a4d92",
    ),
}


def ring_algebra(M):
    """The tables from the density-operator algebra: ``ov[d] = tr(rho_0 rho_d)``,
    ``decrypt[d] = tr(rho_d rho_q)`` and the square-root measurement of the
    uniform ring at its first state, normalised."""
    rho = circle_states(np.arange(M), M)
    ov = np.trace(rho[0] @ rho, axis1=1, axis2=2).real
    decrypt = np.trace(rho @ rho[M // 4], axis1=1, axis2=2).real
    ring = uniform_circle_ensemble(M)
    srm = square_root_measurement(ring).elements[:M]
    pmf = np.clip(np.trace(srm @ ring.states[0], axis1=1, axis2=2).real, 0.0, None)
    return ov, decrypt, pmf / pmf.sum()


class TestRingTables:
    @pytest.mark.parametrize("M", [4, 8, 12, 16, 60, 64, 192])
    def test_tables_match_the_algebra(self, M):
        # the ring simulations sample from closed-form tables; pin them against
        # the traces of the circle states and the ring's square-root
        # measurement, to a few ulps at 1 (rtol 0: the default rtol of 1e-5
        # would bound nothing).  Adam's bit-0 probability at offset d is
        # ov[d - q], the overlap with his bit-0 state a quarter-turn up
        t = ring_tables(M)
        ov, decrypt, srm = ring_algebra(M)
        d = np.arange(M)
        assert t.q == M // 4
        assert np.abs(t.ov - ov).max() <= 1e-15
        assert np.abs(t.ov[(d - t.q) % M] - decrypt).max() <= 1e-15
        assert np.abs(t.srm - srm).max() <= 1e-15
        assert abs(t.srm.sum() - 1.0) <= 4e-16
        expected = t.srm.cumsum()
        assert np.array_equal(t.cdf, expected / expected[-1])

    @pytest.mark.parametrize("M", sorted(RING_TABLE_SHA256))
    def test_table_bytes_pinned(self, M):
        t = ring_tables(M)
        tables = (t.ov, t.srm, t.cdf)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in tables)
        assert digests == RING_TABLE_SHA256[M]

    def test_arrays_are_read_only(self):
        t = ring_tables(8)
        for a in (t.ov, t.srm, t.cdf):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_tables_build_no_ensemble(self, monkeypatch):
        # the tables and the sessions that read them build no M-state
        # ensemble and no square-root measurement
        def refuse(*args, **kwargs):
            raise AssertionError("ring_tables built an ensemble")

        for owner in (detection, states, protocol):
            for name in ("square_root_measurement", "uniform_circle_ensemble", "circle_states"):
                if name in vars(owner):
                    monkeypatch.setattr(owner, name, refuse)
        ring_tables.cache_clear()
        try:
            t = ring_tables(1 << 20)
            assert len(t.ov) == len(t.srm) == len(t.cdf) == 1 << 20
            cfg = protocol.SessionConfig(k=1, M=1 << 20, eve_strategy="opaque")
            assert not protocol.run_ake_session(cfg, 7).aborted
        finally:
            ring_tables.cache_clear()

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
