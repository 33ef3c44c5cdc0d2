import math

import numpy as np
import pytest

from anonkey.states import (
    ATOL,
    MAX_RING_SIZE,
    DensityOperator,
    Ensemble,
    bloch_to_density,
    circle_state,
    circle_state_at,
    ensemble_mixture,
    overlap,
    require_ring_size,
    rotate_circle,
    rotation_unitary,
    six_state_ensemble,
    tensor,
    uniform_circle_ensemble,
)


def operators_close(a, b, atol=ATOL):
    """Entrywise comparison of two density operators."""
    return a.dim == b.dim and bool(np.allclose(a.matrix, b.matrix, atol=atol, rtol=0.0))


def random_bloch(rng, pure=False):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.random() ** (1 / 3)
    return v


class TestBlochToDensity:
    def test_z_pole(self):
        rho = bloch_to_density((0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), rtol=0, atol=ATOL)

    def test_x_pole(self):
        rho = bloch_to_density((1, 0, 0))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), rtol=0, atol=ATOL)

    def test_norm_violation(self):
        # a NaN norm compares false with everything, so it must fail the test too
        for r in [(0, 0, 2), (math.nan, 0, 0), (0, math.nan, 0), (0, 0, math.inf)]:
            with pytest.raises(ValueError, match="^Bloch vector norm must be at most 1"):
                bloch_to_density(r)

    def test_pure_iff_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert bloch_to_density(random_bloch(rng, pure=True)).purity() == pytest.approx(1.0, abs=ATOL)
        mixed = bloch_to_density((0.2, 0.1, -0.3))
        assert abs(mixed.purity() - 1.0) > ATOL

    def test_bloch_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = random_bloch(rng)
            back = bloch_to_density(v).bloch()
            assert np.allclose(back, v, rtol=0, atol=1e-12)


class TestDensityOperatorInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator([[0.5, 0.5j], [0.5j, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator([[1.2, 0], [0, -0.2]])

    def test_matrix_is_readonly(self):
        rho = circle_state(1, 4)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 7.0

    def test_constructors_satisfy_invariants_in_bulk(self):
        # every constructor output is Hermitian, unit trace, PSD
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            kind = rng.integers(0, 4)
            if kind == 0:
                rho = bloch_to_density(random_bloch(rng))
            elif kind == 1:
                M = 4 * int(rng.integers(1, 9))
                rho = circle_state(int(rng.integers(-2 * M, 2 * M)), M)
            elif kind == 2:
                t, p = rng.uniform(-7, 7), rng.uniform(-7, 7)
                rho = bloch_to_density(
                    (math.sin(t) * math.cos(p), math.cos(t), math.sin(t) * math.sin(p))
                )
            else:
                rho = rotate_circle(circle_state_at(rng.uniform(0, 7)), rng.uniform(-7, 7))
            m = rho.matrix
            assert np.allclose(m, m.conj().T, rtol=0, atol=ATOL)
            assert abs(np.trace(m) - 1.0) <= ATOL
            assert np.linalg.eigvalsh(m).min() >= -ATOL


class TestCircleStates:
    def test_reference_state(self):
        assert np.allclose(
            circle_state(4, 4).bloch(), [1, 0, 0], rtol=0, atol=1e-12
        )

    def test_quarter_state(self):
        assert np.allclose(
            circle_state(1, 4).bloch(), [0, 0, 1], rtol=0, atol=1e-12
        )

    def test_direct_substitution_m8(self):
        assert np.allclose(
            circle_state(2, 8).bloch(),
            [math.cos(math.pi / 2), 0, math.sin(math.pi / 2)],
            rtol=0, atol=1e-12,
        )

    def test_m_multiple_of_four(self):
        with pytest.raises(ValueError):
            circle_state(1, 6)

    def test_index_is_modular(self):
        assert operators_close(circle_state(1, 8), circle_state(9, 8))
        assert operators_close(circle_state(0, 8), circle_state(8, 8))

    def test_ring_size_budget(self):
        # every ring entry point builds O(M) states: detecting on M = 2^20 peaks near
        # 486 MB, and a larger ring is refused before anything is allocated
        require_ring_size(MAX_RING_SIZE)
        for M in (MAX_RING_SIZE + 4, 2**70):
            with pytest.raises(ValueError, match="^M must"):
                uniform_circle_ensemble(M)


class TestRotateCircle:
    def test_identity_rotation(self):
        rho = circle_state(1, 4)
        assert operators_close(rotate_circle(rho, 0.0), rho)

    def test_quarter_turn_up(self):
        # independent oracle: explicit 2x2 conjugation
        a = math.pi / 2
        u = np.array(
            [[math.cos(a / 2), math.sin(a / 2)], [-math.sin(a / 2), math.cos(a / 2)]]
        )
        expected = u @ circle_state(1, 8).matrix @ u.conj().T
        got = rotate_circle(circle_state(1, 8), a)
        assert np.allclose(got.matrix, expected, rtol=0, atol=1e-12)
        assert operators_close(got, circle_state(3, 8), atol=1e-12)

    def test_quarter_turn_down_wraps(self):
        got = rotate_circle(circle_state(1, 8), -math.pi / 2)
        assert operators_close(got, circle_state(7, 8), atol=1e-12)

    def test_index_shift_for_integral_steps(self):
        for M in (4, 8, 16):
            for steps in (-3, -1, 1, 2, 5):
                got = rotate_circle(circle_state(2, M), 2 * math.pi * steps / M)
                assert operators_close(got, circle_state(2 + steps, M), atol=1e-12)

    def test_unitarity_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = bloch_to_density(random_bloch(rng))
            a = rng.uniform(-7, 7)
            back = rotate_circle(rotate_circle(rho, a), -a)
            assert operators_close(back, rho, atol=1e-9)

    def test_rotation_unitary_is_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rotation_unitary(rng.uniform(-7, 7))
            assert np.allclose(u @ u.conj().T, np.eye(2), rtol=0, atol=1e-12)


class TestOverlap:
    def test_identical_pure(self):
        rho = circle_state(3, 8)
        assert overlap(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert overlap(circle_state(1, 8), circle_state(5, 8)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_steps_m8(self):
        # Bloch dot-product oracle: (1 + cos(pi/2)) / 2
        assert overlap(circle_state(1, 8), circle_state(3, 8)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = bloch_to_density(random_bloch(rng))
            b = bloch_to_density(random_bloch(rng))
            assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)

    def test_pure_qubit_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            va, vb = random_bloch(rng, pure=True), random_bloch(rng, pure=True)
            got = overlap(bloch_to_density(va), bloch_to_density(vb))
            assert got == pytest.approx((1 + va @ vb) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        two = circle_state(1, 4)
        four = tensor(two, two)
        with pytest.raises(ValueError):
            overlap(two, four)


class TestTensor:
    def test_basis_product(self):
        z = bloch_to_density((0, 0, 1))
        assert np.allclose(tensor(z, z).matrix, np.diag([1.0, 0, 0, 0]), rtol=0, atol=1e-12)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        a = bloch_to_density(random_bloch(rng))
        b = bloch_to_density(random_bloch(rng))
        assert np.trace(tensor(a, b).matrix) == pytest.approx(1.0, abs=1e-12)

    def test_purity_preserved(self):
        a = circle_state(1, 8)
        b = circle_state(5, 8)
        assert tensor(a, b).purity() == pytest.approx(1.0, abs=1e-10)


class TestEnsembles:
    def test_uniform_circle_mixture_is_maximally_mixed(self):
        for M in (4, 8, 12, 16):
            mix = ensemble_mixture(uniform_circle_ensemble(M))
            assert np.allclose(mix.matrix, np.eye(2) / 2, rtol=0, atol=1e-12)

    def test_single_state_mixture(self):
        rho = circle_state(2, 8)
        e = Ensemble((rho,), (1.0,))
        assert operators_close(ensemble_mixture(e), rho)

    def test_modulated_mixtures_indistinguishable(self):
        # rotating every ring state a quarter turn either way leaves the
        # uniform mixture entrywise unchanged
        for M in (4, 8, 12, 16, 20, 24, 28, 32):
            e = uniform_circle_ensemble(M)
            priors = tuple(1.0 / M for _ in range(M))
            up_u, down_u = rotation_unitary(math.pi / 2), rotation_unitary(-math.pi / 2)
            up = ensemble_mixture(Ensemble(up_u @ e.states @ up_u.conj().T, priors))
            down = ensemble_mixture(Ensemble(down_u @ e.states @ down_u.conj().T, priors))
            assert np.allclose(up.matrix, down.matrix, rtol=0, atol=1e-9)

    def test_six_state_ensemble(self):
        e = six_state_ensemble()
        assert e.size == 6
        assert np.allclose(ensemble_mixture(e).matrix, np.eye(2) / 2, rtol=0, atol=1e-12)

    def test_validation(self):
        rho = circle_state(1, 4)
        with pytest.raises(ValueError):
            Ensemble((), ())
        with pytest.raises(ValueError):
            Ensemble((rho,), (0.7,))
        with pytest.raises(ValueError):
            Ensemble((rho, rho), (0.5, 0.6))
        with pytest.raises(ValueError):
            Ensemble((rho, tensor(rho, rho)), (0.5, 0.5))
