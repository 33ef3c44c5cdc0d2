import cmath
import math
import tracemalloc

import numpy as np
import pytest

from anonkey import coherent
from anonkey.coherent import (
    MAX_GRID_SIZE,
    PhaseDistribution,
    canonical_phase_pa,
    coherent_overlap_mag,
    heterodyne_pa,
    heterodyne_resend_pa,
    require_canonical_amplitude,
    require_grid_size,
)


class TestOverlaps:
    def test_equal_phases(self):
        assert coherent_overlap_mag(2.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_phases_unit_amplitude(self):
        assert coherent_overlap_mag(1.0, math.pi) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_opposite_phases_amplitude_three(self):
        assert coherent_overlap_mag(3.0, math.pi) == pytest.approx(math.exp(-18.0), rel=1e-9)

    def test_symmetric_and_periodic_in_phase_difference(self):
        rng = np.random.default_rng(0)
        for dtheta in rng.uniform(0, 2 * math.pi, 100):
            a = coherent_overlap_mag(1.7, dtheta)
            assert coherent_overlap_mag(1.7, -dtheta) == pytest.approx(a, rel=1e-10)
            assert coherent_overlap_mag(1.7, dtheta + 2 * math.pi) == pytest.approx(a, rel=1e-10)

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            coherent_overlap_mag(0.0, 0.1)


def heterodyne_sample(amplitude, rng):
    """One heterodyne outcome, drawn as ``heterodyne_pa`` draws it: the
    amplitude plus half a unit of noise variance per quadrature."""
    return amplitude + (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)


class TestHeterodyneSampling:
    def test_mean_and_quadrature_variance(self):
        rng = np.random.default_rng(2)
        amplitude = 2.0 * cmath.exp(0.7j)
        xs = np.array([heterodyne_sample(amplitude, rng) for _ in range(200_000)])
        se = 1.0 / math.sqrt(2 * len(xs))
        assert abs(xs.mean() - amplitude) < 6 * se
        assert xs.real.var() == pytest.approx(0.5, abs=0.01)
        assert xs.imag.var() == pytest.approx(0.5, abs=0.01)

    def test_small_amplitude_noise_dominates(self):
        rng = np.random.default_rng(3)
        xs = np.array([heterodyne_sample(1e-9, rng) for _ in range(50_000)])
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
                1.0, abs=1e-12
            )

    def test_peak_at_zero(self):
        d = PhaseDistribution(3.0)
        assert d.density(0.0) >= d.density(0.3)
        assert d.density(0.0) >= d.density(-0.3)

    def test_density_stays_small_and_matches_grid(self):
        # the (phases x Fock series) matrix of 1000 phases at alpha0 = 1000
        # would hold 1000 x 1006021 complex entries, 16 GB, over the whole
        # series; over the window and a block of phases at a time it is 8 MiB.
        # reference: the window's series on a 2^18-point FFT grid, longer than
        # the window, so evaluated there without aliasing
        a0, grid = 1000.0, 2**18
        d = PhaseDistribution(a0)
        padded = np.zeros(grid, dtype=complex)
        padded[: len(d.window)] = coherent._fock_amplitudes(a0)[1]
        reference = np.abs(np.fft.ifft(padded) * grid) ** 2 / (2.0 * math.pi)
        idx = np.concatenate([np.arange(-250, 250) % grid,  # the peak: sd 5e-4, 20 points
                              np.linspace(0, grid - 1, 500).astype(int)])
        theta = 2.0 * math.pi * idx / grid
        theta = np.where(theta > math.pi, theta - 2.0 * math.pi, theta)
        tracemalloc.start()
        try:
            values = d.density(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert np.allclose(values, reference[idx], rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("a0", [0.4, 2.0, 8.0, 16.0])
    def test_variance_matches_quadrature(self, a0):
        # theta^2 times the density by Gauss-Legendre over (-pi, pi], with
        # nodes to spare for the series' highest frequency
        d = PhaseDistribution(a0)
        x, w = np.polynomial.legendre.leggauss(4 * len(d.window) + 100)
        theta = math.pi * x
        p = d.density(theta)
        assert d.variance() == pytest.approx((w @ (theta**2 * p)) / (w @ p), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a0", [1000.0, 5370.0])  # 5370: the largest admitted amplitude
    def test_variance_matches_the_asymptotic_form(self, a0):
        # 1 / (4 a^2) + 1 / (8 a^4), whose next term is far below rounding here;
        # the Fourier sum's terms of order 1 leave an absolute error near 5e-16
        assert PhaseDistribution(a0).variance() == pytest.approx(
            1 / (4 * a0**2) + 1 / (8 * a0**4), rel=0, abs=1e-15)

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

    # the exact acceptances the README and the coherent docstring quote: flat only
    # while alpha0 * 2 pi / M << 1, then rising to 1 as rounding resolves the state
    @pytest.mark.parametrize("M, a0, pa", [
        (64, 5.0, 0.8037), (64, 23.0, 0.9761), (64, 100.0, 1.0000),
        (4096, 5.0, 0.8144), (4096, 300.0, 0.8070), (4096, 2000.0, 0.9978),
    ])
    def test_flat_only_while_the_ring_step_is_fine(self, M, a0, pa):
        exact = coherent._bin_probabilities(a0, M) @ coherent._overlap_table(a0, M)
        assert exact == pytest.approx(pa, rel=0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_phase_pa(5.0, 2, trials=10, seed=0)


class TestCanonicalBudget:
    @pytest.mark.parametrize("a0", [1e100, 9e153])
    def test_refused_before_anything_is_allocated(self, a0):
        # the Fock series of 1e100 would need about 1e200 coefficients; it
        # used to fail inside np.arange with "Maximum allowed size exceeded".
        # There the window's float ends cancel to a one-term range, so the
        # rule bounds the width in closed form
        with pytest.raises(ValueError, match="alpha0"):
            PhaseDistribution(a0)
        with pytest.raises(ValueError, match="alpha0"):
            canonical_phase_pa(a0, 4, 10, 0)

    def test_budget_is_the_largest_window(self):
        # a window of 2 a sqrt(2 L) + L + 2 terms fills 2^17 at a = about 5370.27
        require_canonical_amplitude(5370.0)
        assert len(coherent._fock_window(5370.0)) <= coherent.MAX_FOCK_WINDOW
        with pytest.raises(ValueError, match="alpha0"):
            require_canonical_amplitude(5371.0)
        pa, _ = canonical_phase_pa(5370.0, 4096, 1000, 0)
        assert 0.0 <= pa <= 1.0


class TestGridSizeBudget:
    def test_budget_is_the_largest_ring(self):
        # the tables are O(M): M = 2^20 peaks near 125 MB, so 10^9 would ask for about 90 GB
        require_grid_size(MAX_GRID_SIZE)
        for M in (MAX_GRID_SIZE + 1, 10**9):
            with pytest.raises(ValueError, match="^M must"):
                heterodyne_pa(3.0, M, 10, 0)


def lgamma_log_amplitudes(a0, window):
    """log c_n by the direct form n log(a0) - a0^2 / 2 - log(n!) / 2."""
    ns = np.arange(window.start, window.stop)
    return -0.5 * a0**2 + ns * math.log(a0) - 0.5 * np.array([math.lgamma(n + 1.0) for n in ns])


def bin_integrals(d, M):
    """The density integrated over each of the M + 1 rounding bins by
    Gauss-Legendre, with enough nodes for the series' highest frequency."""
    step = 2.0 * math.pi / M
    j = np.arange(M + 1) - M // 2
    lo, hi = np.clip((j - 0.5) * step, -math.pi, math.pi), np.clip((j + 0.5) * step, -math.pi, math.pi)
    x, w = np.polynomial.legendre.leggauss(12 + math.ceil(len(d.window) * step))
    half = (hi - lo)[:, None] / 2
    return (half * w * d.density((lo + hi)[:, None] / 2 + half * x)).sum(axis=1)


def full_series_bins(a0, M):
    """The M + 1 bin probabilities over the whole Fock series from n = 0, far
    past where its terms underflow, with the antiderivative's sine sum taken
    term by term: no window and no FFT."""
    n_max = math.ceil(a0 * a0 + 20 * a0 + 100)
    c = np.exp(lgamma_log_amplitudes(a0, range(n_max + 1)))
    r = np.correlate(c, c, "full")[n_max:]  # r_d = sum_n c_n c_{n+d}
    t = np.clip((np.arange(M + 2) - M // 2 - 0.5) * (2.0 * math.pi / M), -math.pi, math.pi)
    g = t * r[0] / (2.0 * math.pi) + sum(r[d] / d * np.sin(d * t) for d in range(1, n_max + 1)) / math.pi
    return np.diff(g) / r[0]


BIN_CASES = [(a0, M) for a0 in (0.4, 2.5, 23.0) for M in (4, 5, 7, 16, 4096)]


class TestCanonicalBins:
    @pytest.mark.parametrize("a0, M", BIN_CASES)
    def test_pmf_sums_to_one_and_is_symmetric(self, a0, M):
        pmf = coherent._bin_probabilities(a0, M)
        assert len(pmf) == M + 1 and np.all(pmf >= 0.0)
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)
        # bins j and M - j (odd M: M - 1 - j, and bin M is empty) mirror each other
        inner = pmf if M % 2 == 0 else pmf[:-1]
        assert np.allclose(inner, inner[::-1], rtol=0, atol=1e-15)
        assert M % 2 == 0 or pmf[-1] == 0.0

    @pytest.mark.parametrize("a0, M", BIN_CASES)
    def test_pmf_is_the_density_over_each_bin(self, a0, M):
        integrals = bin_integrals(PhaseDistribution(a0), M)
        assert np.allclose(coherent._bin_probabilities(a0, M), integrals, rtol=0, atol=1e-9)

    # 23: the window drops terms below as well as above; a mass bound of 1e-16
    # (each bin then within 2e-8) left 1.1e-12 at M = 4096
    @pytest.mark.parametrize("a0, M", [(a0, M) for a0 in (2.5, 23.0) for M in (5, 16, 4096)])
    def test_pmf_matches_the_full_series(self, a0, M):
        full = full_series_bins(a0, M)
        assert np.allclose(coherent._bin_probabilities(a0, M), full, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("a0", [0.4, 2.5, 5.0, 23.0, 400.0, 5370.0])
    def test_window_drops_at_most_the_bound(self, a0):
        # the dropped tails, summed term by term in the direct form
        window = coherent._fock_window(a0)
        span = len(window)
        below = range(max(0, window.start - span), window.start)
        above = range(window.stop, window.stop + span)
        dropped = sum(math.fsum(np.exp(2 * lgamma_log_amplitudes(a0, r))) for r in (below, above))
        assert dropped <= coherent._DROPPED
        assert math.fsum(coherent._fock_amplitudes(a0)[1] ** 2) >= 1.0 - coherent._DROPPED - 1e-14

    def test_window_sums_to_one_at_the_largest_amplitude(self):
        # the direct form loses about 1e-8 here, to n log(a0) of order 4e8
        c = coherent._fock_amplitudes(5370.0)[1]
        assert abs(math.fsum(c * c) - 1.0) < 1e-12

    # where the direct form is exact enough: at 8.0 the window reaches n = 236,
    # where its terms of about 500 cancel to within 1.4e-13
    @pytest.mark.parametrize("a0", [0.4, 2.5, 5.0])
    def test_loader_form_matches_the_direct_form(self, a0):
        window, c = coherent._fock_amplitudes(a0)
        assert np.allclose(np.log(c), lgamma_log_amplitudes(a0, window), rtol=0, atol=1e-13)


class TestAmplitudeValidation:
    ENTRY_POINTS = {
        "coherent_overlap_mag": lambda a0: coherent_overlap_mag(a0, 0.0),
        "PhaseDistribution": PhaseDistribution,
        "heterodyne_pa": lambda a0: heterodyne_pa(a0, 4, 10, 0),
        "heterodyne_resend_pa": lambda a0: heterodyne_resend_pa(a0, 10, 0),
        "canonical_phase_pa": lambda a0: canonical_phase_pa(a0, 4, 10, 0),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    # 2 * alpha0**2 overflows from about 9.48e153: 1e154 used to give pa=nan
    # (-inf * 0 in the overlap table), 1e200 an uncaught OverflowError
    @pytest.mark.parametrize("alpha0", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e154, 1e200])
    def test_rejects_nonpositive_or_nonfinite(self, name, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            self.ENTRY_POINTS[name](alpha0)

    @pytest.mark.filterwarnings("error")
    def test_largest_amplitude_runs(self):
        # just below the limit an overlap exponent may reach -inf (overlap 0),
        # but never -inf * 0, and no overflow warning escapes
        a0 = 9.4e153
        assert coherent_overlap_mag(a0, 0.0) == 1.0
        assert heterodyne_pa(a0, 4, 10, 0) == (1.0, 0.0)
        pa, _ = heterodyne_resend_pa(a0, 10, 0)
        assert 0.0 <= pa <= 1.0
