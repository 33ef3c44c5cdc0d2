import math

import numpy as np
import pytest

from anonkey.coherent import (
    CoherentState,
    PhaseDistribution,
    canonical_phase_pa,
    coherent_overlap_mag,
    heterodyne_pa,
    heterodyne_resend_pa,
    min_truncation,
)


class TestOverlaps:
    def test_equal_phases(self):
        a = CoherentState(2.0, 0.3)
        assert coherent_overlap_mag(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_phases_unit_amplitude(self):
        a, b = CoherentState(1.0, 0.0), CoherentState(1.0, math.pi)
        assert coherent_overlap_mag(a, b) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_opposite_phases_amplitude_three(self):
        a, b = CoherentState(3.0, 0.0), CoherentState(3.0, math.pi)
        assert coherent_overlap_mag(a, b) == pytest.approx(math.exp(-18.0), rel=1e-9)

    def test_amplitude_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coherent_overlap_mag(CoherentState(1.0, 0.0), CoherentState(2.0, 0.0))

    def test_depends_only_on_phase_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t1, t2, shift = rng.uniform(0, 2 * math.pi, 3)
            a = coherent_overlap_mag(CoherentState(1.7, t1), CoherentState(1.7, t2))
            b = coherent_overlap_mag(
                CoherentState(1.7, t1 + shift), CoherentState(1.7, t2 + shift)
            )
            assert a == pytest.approx(b, rel=1e-10)

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            CoherentState(0.0, 0.1)


def heterodyne_sample(s, rng):
    """One heterodyne outcome, drawn as ``heterodyne_pa`` draws it: the
    amplitude plus half a unit of noise variance per quadrature."""
    return s.amplitude + (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)


class TestHeterodyneSampling:
    def test_mean_and_quadrature_variance(self):
        rng = np.random.default_rng(2)
        s = CoherentState(2.0, 0.7)
        xs = np.array([heterodyne_sample(s, rng) for _ in range(200_000)])
        se = 1.0 / math.sqrt(2 * len(xs))
        assert abs(xs.mean() - s.amplitude) < 6 * se
        assert xs.real.var() == pytest.approx(0.5, abs=0.01)
        assert xs.imag.var() == pytest.approx(0.5, abs=0.01)

    def test_small_amplitude_noise_dominates(self):
        rng = np.random.default_rng(3)
        s = CoherentState(1e-9, 0.0)
        xs = np.array([heterodyne_sample(s, rng) for _ in range(50_000)])
        assert abs(xs.mean()) < 0.01


class TestHeterodynePa:
    def test_small_ring_large_amplitude_is_near_one(self):
        pa, _ = heterodyne_pa(10.0, 4, trials=50_000, seed=4)
        assert pa > 0.999

    def test_amplitude_independence_on_fine_ring(self):
        values = [heterodyne_pa(a0, 4096, trials=100_000, seed=5)[0] for a0 in (5.0, 10.0, 20.0)]
        assert max(values) - min(values) < 0.02

    def test_monotone_in_ring_size_at_large_amplitude(self):
        values = [heterodyne_pa(20.0, M, trials=200_000, seed=6)[0] for M in (4, 64, 1024, 4096)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-3

    def test_grid_dip_at_moderate_amplitude(self):
        # when the grid step is comparable to the phase error the rounding
        # itself hurts, so refining the ring from 64 raises the score again:
        # the coarse-grid penalty, a real feature of the rounded estimator
        coarse = heterodyne_pa(5.0, 64, trials=200_000, seed=7)[0]
        fine = heterodyne_pa(5.0, 1024, trials=200_000, seed=7)[0]
        assert coarse < fine

    def test_validation(self):
        with pytest.raises(ValueError):
            heterodyne_pa(5.0, 4, trials=0, seed=0)
        with pytest.raises(ValueError):
            heterodyne_pa(-1.0, 4, trials=10, seed=0)

    def test_deterministic(self):
        assert heterodyne_pa(5.0, 64, 10_000, 8) == heterodyne_pa(5.0, 64, 10_000, 8)


class TestHeterodyneResend:
    def test_exactly_one_half_any_amplitude(self):
        for a0 in (5.0, 20.0):
            pa, se = heterodyne_resend_pa(a0, trials=200_000, seed=9)
            assert abs(pa - 0.5) <= 3 * se


class TestPhaseDistribution:
    def test_normalization(self):
        for a0 in (2.0, 8.0):
            assert PhaseDistribution(a0).normalization() == pytest.approx(
                1.0, abs=1e-6
            )

    def test_grid_grows_past_truncation(self):
        # the Fock truncation at alpha0 = 260 (69181) outgrows 2^16 points
        d = PhaseDistribution(260.0)
        assert d.truncation > 2**16
        assert len(d.grid_theta) == 2**17
        assert d.normalization() == pytest.approx(1.0, abs=1e-6)
        assert len(PhaseDistribution(8.0).grid_theta) == 2**16

    def test_peak_at_zero(self):
        d = PhaseDistribution(3.0)
        assert d.density(0.0) >= d.density(0.3)
        assert d.density(0.0) >= d.density(-0.3)

    def test_density_matches_grid(self):
        d = PhaseDistribution(2.0)
        idx = np.arange(0, len(d.grid_theta), 4096)
        assert np.allclose(
            d.density(d.grid_theta[idx]), d.grid_density[idx], rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("a0", [2.0, 20.0, 260.0])  # 260 takes the 2^17 grid
    def test_grid_is_the_stable_sort_of_the_wrapped_fft_grid(self, a0):
        # reference: the series on the FFT grid, wrapped to (-pi, pi] and
        # put in order by a stable argsort
        d = PhaseDistribution(a0)
        grid = len(d.grid_theta)
        ns = np.arange(d.truncation + 1)
        log_c = -0.5 * a0**2 + ns * math.log(a0) - 0.5 * np.array(
            [math.lgamma(n + 1.0) for n in ns]
        )
        padded = np.zeros(grid, dtype=complex)
        padded[: len(ns)] = np.exp(log_c)
        density = np.abs(np.fft.ifft(padded) * grid) ** 2 / (2.0 * math.pi)
        raw = 2.0 * math.pi * np.arange(grid) / grid
        theta = np.where(raw > math.pi, raw - 2.0 * math.pi, raw)
        order = np.argsort(theta, kind="stable")
        assert np.array_equal(d.grid_theta, theta[order])
        assert np.array_equal(d.grid_density, density[order])

    def test_truncation_rule_enforced(self):
        assert min_truncation(5.0) == 75
        assert PhaseDistribution(5.0).truncation == 75

    def test_variance_ratio_asymptotic(self):
        # doubling the amplitude quarters the phase variance once the
        # distribution is effectively Gaussian
        var = {a0: PhaseDistribution(float(a0)).variance() for a0 in (4, 8, 16)}
        assert var[4] / var[8] == pytest.approx(4.0, rel=0.10)
        assert var[8] / var[16] == pytest.approx(4.0, rel=0.10)

    @pytest.mark.xfail(
        strict=True,
        reason="at amplitude 2 the distribution keeps heavy non-Gaussian "
        "tails: the measured variance ratio to amplitude 4 is ~5.04, "
        "outside the 4 +- 10% asymptotic band",
    )
    def test_variance_ratio_includes_deep_quantum_point(self):
        var2 = PhaseDistribution(2.0).variance()
        var4 = PhaseDistribution(4.0).variance()
        assert var2 / var4 == pytest.approx(4.0, rel=0.10)

    def test_sampling_deterministic_and_in_range(self):
        d = PhaseDistribution(4.0)
        rng1, rng2 = np.random.default_rng(10), np.random.default_rng(10)
        s1, s2 = d.sample(rng1, 5000), d.sample(rng2, 5000)
        assert np.array_equal(s1, s2)
        assert np.all(np.abs(s1) <= math.pi)

    def test_sample_variance_matches_density_variance(self):
        d = PhaseDistribution(4.0)
        draws = d.sample(np.random.default_rng(11), 200_000)
        assert draws.var() == pytest.approx(d.variance(), rel=0.05)


class TestCanonicalPhasePa:
    def test_sharper_than_heterodyne(self):
        for a0 in (5.0, 10.0):
            het, _ = heterodyne_pa(a0, 4096, trials=100_000, seed=12)
            can, _ = canonical_phase_pa(a0, 4096, trials=100_000, seed=12)
            assert can >= het

    def test_small_ring_large_amplitude_near_one(self):
        pa, _ = canonical_phase_pa(10.0, 4, trials=50_000, seed=13)
        assert pa > 0.999

    def test_amplitude_independence(self):
        values = [
            canonical_phase_pa(a0, 4096, trials=100_000, seed=14)[0]
            for a0 in (5.0, 10.0, 20.0)
        ]
        assert max(values) - min(values) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_phase_pa(5.0, 2, trials=10, seed=0)


class TestAmplitudeValidation:
    ENTRY_POINTS = {
        "CoherentState": lambda a0: CoherentState(a0, 0.0),
        "PhaseDistribution": PhaseDistribution,
        "heterodyne_pa": lambda a0: heterodyne_pa(a0, 4, 10, 0),
        "heterodyne_resend_pa": lambda a0: heterodyne_resend_pa(a0, 10, 0),
        "canonical_phase_pa": lambda a0: canonical_phase_pa(a0, 4, 10, 0),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("alpha0", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, name, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            self.ENTRY_POINTS[name](alpha0)
