"""Coherent-state phase encoding: overlaps, heterodyne, canonical phase.

The optical variant of the ring encoding carries the key in the phase of a
fixed-amplitude coherent state ``alpha0 * exp(i * theta_l)``.  Overlaps fall
off as ``exp(-alpha0^2 (1 - cos dtheta))``, so for large amplitude distinct
ring states are effectively orthogonal, yet a phase estimate from any single
copy keeps a floor of uncertainty scaling as ``1 / alpha0^2`` and the
interceptor's acceptance stays pinned regardless of amplitude.

Acceptance convention: the interceptor's estimate is the ring state nearest
her measured phase, and the verifier accepts with the squared overlap
between the true and estimated states.  Under this convention heterodyne
settles near 0.71 and the sharper canonical phase estimator near 0.82,
both amplitude-independent.  :func:`heterodyne_resend_pa` scores the
variant where the full complex outcome (amplitude error included) is
re-prepared, which lands at exactly one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

_MIN_GRID = 1 << 16


@dataclass(frozen=True)
class CoherentState:
    """Amplitude-phase pair alpha0 * exp(i theta), alpha0 > 0."""

    alpha0: float
    theta: float

    def __post_init__(self) -> None:
        if self.alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")

    @property
    def amplitude(self) -> complex:
        return self.alpha0 * complex(math.cos(self.theta), math.sin(self.theta))


def coherent_overlap_mag(a: CoherentState, b: CoherentState) -> float:
    """|<a|b>| = exp(-alpha0^2 (1 - cos dtheta)) for equal amplitudes."""
    if abs(a.alpha0 - b.alpha0) > 1e-12:
        raise ValueError("overlap rule requires equal amplitudes")
    return math.exp(-a.alpha0**2 * (1.0 - math.cos(a.theta - b.theta)))


def two_mode_overlap_mag(alpha0: float, theta1: float, theta2: float) -> float:
    """Overlap magnitude of the two-mode encoding |a cos t>|a sin t>.

    Algebraically identical to the single-mode magnitude: the squared
    distance between the two-mode amplitude vectors is
    ``alpha0^2 [(cos t1 - cos t2)^2 + (sin t1 - sin t2)^2]
    = 2 alpha0^2 (1 - cos dt)``.
    """
    if alpha0 <= 0.0:
        raise ValueError("alpha0 must be positive")
    d2 = (math.cos(theta1) - math.cos(theta2)) ** 2 + (math.sin(theta1) - math.sin(theta2)) ** 2
    return math.exp(-(alpha0**2) * d2 / 2.0)


def _round_to_grid(delta: np.ndarray, M: int) -> np.ndarray:
    step = 2.0 * math.pi / M
    return np.round(delta / step) * step


def heterodyne_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the heterodyne interceptor, phase rounded to M states.

    Per trial: a ring state is drawn, heterodyned, the outcome phase rounded
    to the nearest of the M ring phases, and the acceptance is the squared
    overlap between the true and estimated states.  Averaged with its
    standard error.
    """
    if alpha0 <= 0.0:
        raise ValueError("alpha0 must be positive")
    if M < 4:
        raise ValueError("M must be at least 4")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * rng.integers(0, M, size=trials) / M
    noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / math.sqrt(2.0)
    beta = alpha0 * np.exp(1j * theta) + noise
    delta = np.angle(beta * np.exp(-1j * theta))
    dhat = _round_to_grid(delta, M)
    acc = np.exp(-2.0 * alpha0**2 * (1.0 - np.cos(dhat)))
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(trials))


def heterodyne_resend_pa(alpha0: float, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance when the raw heterodyne outcome itself is re-prepared.

    The re-prepared state carries the amplitude error as well as the phase
    error; the squared overlap is ``exp(-|beta - alpha|^2)``, whose mean over
    the outcome distribution is exactly one half at every amplitude.
    """
    if alpha0 <= 0.0:
        raise ValueError("alpha0 must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / math.sqrt(2.0)
    acc = np.exp(-np.abs(noise) ** 2)
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(trials))


def min_truncation(alpha0: float) -> int:
    """Smallest Fock cutoff keeping truncated tail mass below ~1e-10."""
    return int(math.ceil(alpha0**2 + 6.0 * alpha0 + 20.0))


class PhaseDistribution:
    """Canonical phase density of a coherent state of amplitude alpha0.

    ``p(theta) = |sum_n c_n exp(i n theta)|^2 / (2 pi)`` with Poissonian
    amplitudes ``c_n = exp(-alpha0^2/2) alpha0^n / sqrt(n!)`` accumulated in
    log space.  The density is tabulated on a grid of 2^16 points over
    (-pi, pi], or of the next power of two above the truncation when that is
    larger, for normalization checks, moments, and inverse-CDF sampling
    with linear interpolation; :meth:`density` also evaluates the series at
    arbitrary phases.
    """

    def __init__(self, alpha0: float, truncation: int | None = None) -> None:
        if alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")
        needed = min_truncation(alpha0)
        if truncation is None:
            truncation = needed
        if truncation < needed:
            raise ValueError(f"truncation {truncation} below required {needed} for alpha0={alpha0}")
        self.alpha0 = float(alpha0)
        self.truncation = int(truncation)

        ns = np.arange(self.truncation + 1)
        log_c = -0.5 * alpha0**2 + ns * math.log(alpha0) - 0.5 * np.array(
            [lgamma(n + 1.0) for n in ns]
        )
        self._coeff = np.exp(log_c)

        # band-limited series: a DFT longer than the truncation evaluates it
        # exactly
        grid = max(_MIN_GRID, 1 << self.truncation.bit_length())
        padded = np.zeros(grid, dtype=complex)
        padded[: len(self._coeff)] = self._coeff
        psi = np.fft.ifft(padded) * grid
        raw_theta = 2.0 * math.pi * np.arange(grid) / grid
        density = np.abs(psi) ** 2 / (2.0 * math.pi)

        theta = np.where(raw_theta > math.pi, raw_theta - 2.0 * math.pi, raw_theta)
        order = np.argsort(theta, kind="stable")
        self.grid_theta = theta[order]
        self.grid_density = density[order]
        self._dtheta = 2.0 * math.pi / grid

        cdf = np.cumsum(self.grid_density) * self._dtheta
        self._total = float(cdf[-1])
        self._cdf = cdf / self._total

    def density(self, theta) -> np.ndarray:
        """Evaluate the density at arbitrary phases (vectorized)."""
        theta = np.asarray(theta, dtype=float)
        ns = np.arange(self.truncation + 1)
        phases = np.exp(1j * np.multiply.outer(theta, ns))
        psi = phases @ self._coeff
        return np.abs(psi) ** 2 / (2.0 * math.pi)

    def normalization(self) -> float:
        """Grid integral of the density; 1 within 1e-6 at a valid cutoff."""
        return self._total

    def variance(self) -> float:
        """Second moment of the phase around the peak, over (-pi, pi]."""
        return float(
            np.sum(self.grid_theta**2 * self.grid_density) * self._dtheta / self._total
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF draws on the grid, linearly interpolated."""
        u = rng.random(n)
        return np.interp(u, self._cdf, self.grid_theta)


def canonical_phase_density(alpha0: float, truncation: int | None = None) -> PhaseDistribution:
    """Build the canonical phase distribution (see :class:`PhaseDistribution`)."""
    return PhaseDistribution(alpha0, truncation)


def canonical_phase_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the canonical-phase interceptor, rounded to M states.

    Identical scoring to :func:`heterodyne_pa` with the phase error drawn
    from the canonical phase distribution instead of the heterodyne outcome.
    """
    if M < 4:
        raise ValueError("M must be at least 4")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    dist = PhaseDistribution(alpha0)
    rng = np.random.default_rng(seed)
    delta = dist.sample(rng, trials)
    dhat = _round_to_grid(delta, M)
    acc = np.exp(-2.0 * alpha0**2 * (1.0 - np.cos(dhat)))
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(trials))
