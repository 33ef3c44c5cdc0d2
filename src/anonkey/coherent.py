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
settles near 0.71 and the sharper canonical phase estimator, whose density
:class:`PhaseDistribution` tabulates, near 0.82, both amplitude-independent.
:func:`heterodyne_resend_pa` scores the variant where the full complex
outcome (amplitude error included) is re-prepared, which lands at exactly
one half.

Every entry point raises ``ValueError`` (the CLI exits 2) unless ``alpha0 > 0``
with ``2 * alpha0**2``, the overlap exponents' factor, finite (up to about
9.48e153) and any ``M >= 4``; the canonical phase grid also holds at most
:data:`MAX_PHASE_GRID` = 2^20 points, so there ``alpha0`` is at most about 1020.
"""

from __future__ import annotations

import math
from math import lgamma

import numpy as np

from .harness import BLOCK, CdfSearch, draw_blocks, require_count

_MIN_GRID = 1 << 16
MAX_PHASE_GRID = 1 << 20  # points of the canonical phase grid, at most


def require_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0 > 0`` and the float product ``2 * alpha0 * alpha0`` is finite."""
    if not (alpha0 > 0.0 and math.isfinite(2.0 * float(alpha0) * float(alpha0))):
        raise ValueError(f"alpha0 must be positive with 2 * alpha0**2 finite, got {alpha0}")


def require_canonical_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0`` is an amplitude whose Fock cutoff fits the phase grid."""
    require_amplitude(alpha0)
    if not min_truncation(alpha0) < MAX_PHASE_GRID:
        raise ValueError(f"alpha0 must be at most about 1020 for the canonical grid, got {alpha0}")


def require_grid_size(M: int) -> None:
    """Raise unless the rounding ring size ``M`` is at least 4; nan fails too."""
    if not M >= 4:
        raise ValueError(f"M must be at least 4, got {M}")


def coherent_overlap_mag(alpha0: float, dtheta: float) -> float:
    """|<alpha0 e^(i theta) | alpha0 e^(i (theta + dtheta))>| = exp(-alpha0^2 (1 - cos dtheta))."""
    require_amplitude(alpha0)
    return math.exp(-alpha0**2 * (1.0 - math.cos(dtheta)))


def _noise_blocks(rng: np.random.Generator, re: np.ndarray):
    """Yield ``(s, z)``, blocks of ``(re + 1j * im) / sqrt(2)`` with ``im`` the
    next ``len(re)`` normals; ``re[s]`` is free once ``s`` is yielded."""
    z = np.empty(min(len(re), BLOCK), dtype=complex)
    for s, im in draw_blocks(rng.standard_normal, len(re)):
        noise = z[: s.stop - s.start]
        # numpy divides a complex by a real as a product with its reciprocal
        np.multiply(re[s], 1.0 / math.sqrt(2.0), out=noise.real)
        np.multiply(im, 1.0 / math.sqrt(2.0), out=noise.imag)
        yield s, noise


def _mean_stderr(acc: np.ndarray) -> tuple[float, float]:
    """``np.mean(acc)`` and ``np.std(acc) / sqrt(n)`` bit for bit, overwriting ``acc``."""
    mean = np.add.reduce(acc) / len(acc)
    acc -= mean
    acc *= acc
    return float(mean), math.sqrt(np.add.reduce(acc) / len(acc)) / math.sqrt(len(acc))


def _rounded_acceptance(alpha0: float, M: int, errors, acc: np.ndarray) -> tuple[float, float]:
    """Mean acceptance and stderr of the phase errors ``(s, delta)`` rounded to M
    states, read into ``acc[s]`` from a table over the M + 1 offsets."""
    step = 2.0 * math.pi / M
    with np.errstate(over="ignore"):  # an exponent of -inf gives overlap 0
        table = np.exp(-2.0 * alpha0**2 * (1.0 - np.cos((np.arange(M + 1) - M // 2) * step)))
    for s, delta in errors:
        np.take(table, (np.round(delta / step) + M // 2).astype(np.intp), out=acc[s])
    return _mean_stderr(acc)


def heterodyne_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the heterodyne interceptor, phase rounded to M states.

    Per trial: a ring state is drawn, heterodyned, the outcome phase rounded
    to the nearest of the M ring phases, and the acceptance is the squared
    overlap between the true and estimated states.  Averaged with its
    standard error.  The noise comes in blocks after the ring states, and the
    result equals the one-shot per-trial ``np.exp(1j * theta)`` form bit for bit.
    """
    require_amplitude(alpha0)
    require_grid_size(M)
    require_count("trials", trials)
    rng = np.random.default_rng(seed)
    ring = 2.0 * math.pi * np.arange(M) / M
    sent, unwind = alpha0 * np.exp(1j * ring), np.exp(-1j * ring)
    state = rng.integers(0, M, size=trials)
    acc = rng.standard_normal(trials)  # the real noise parts, then the acceptances
    errors = ((s, np.angle((beta + sent[state[s]]) * unwind[state[s]]))
              for s, beta in _noise_blocks(rng, acc))
    return _rounded_acceptance(alpha0, M, errors, acc)


def heterodyne_resend_pa(alpha0: float, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance when the raw heterodyne outcome itself is re-prepared.

    The re-prepared state carries the amplitude error as well as the phase
    error; the squared overlap is ``exp(-|beta - alpha|^2)``, whose mean over
    the outcome distribution is exactly one half at every amplitude.  The
    noise is drawn as in :func:`heterodyne_pa`, in blocks.
    """
    require_amplitude(alpha0)
    require_count("trials", trials)
    rng = np.random.default_rng(seed)
    acc = rng.standard_normal(trials)  # the real noise parts, then the acceptances
    for s, noise in _noise_blocks(rng, acc):
        sq = np.square(np.abs(noise, out=acc[s]), out=acc[s])
        np.exp(np.negative(sq, out=sq), out=sq)
    return _mean_stderr(acc)


def min_truncation(alpha0: float) -> int:
    """Smallest Fock cutoff keeping truncated tail mass below ~1e-10."""
    return int(math.ceil(alpha0**2 + 6.0 * alpha0 + 20.0))


class PhaseDistribution:
    """Canonical phase density of a coherent state of amplitude alpha0.

    ``p(theta) = |sum_n c_n exp(i n theta)|^2 / (2 pi)`` with Poissonian
    amplitudes ``c_n = exp(-alpha0^2/2) alpha0^n / sqrt(n!)`` accumulated in
    log space up to the Fock cutoff ``truncation = min_truncation(alpha0)``.
    The density is tabulated on an ascending grid of 2^16 points over
    (-pi, pi], or of the next power of two above the truncation when that is
    larger, for normalization checks, moments, and inverse-CDF sampling with
    linear interpolation; :meth:`density` also evaluates the series at
    arbitrary phases.
    """

    def __init__(self, alpha0: float) -> None:
        require_canonical_amplitude(alpha0)
        self.alpha0 = float(alpha0)
        self.truncation = min_truncation(alpha0)

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

        # wrapped to (-pi, pi], the grid ascends from index grid/2 + 1
        theta = np.where(raw_theta > math.pi, raw_theta - 2.0 * math.pi, raw_theta)
        self.grid_theta = np.roll(theta, -(grid // 2 + 1))
        self.grid_density = np.roll(density, -(grid // 2 + 1))
        self._dtheta = 2.0 * math.pi / grid

        cdf = np.cumsum(self.grid_density) * self._dtheta
        self._total = float(cdf[-1])
        self._cdf = cdf / self._total
        # per search result i, the segment from cdf[i - 1]; i = 0 (below
        # cdf[0]) has slope 0 and phase grid_theta[0]
        with np.errstate(divide="ignore"):  # zero-width segments are never found
            slope = np.diff(self.grid_theta) / np.diff(self._cdf)
        self._segments = (CdfSearch(self._cdf), np.append(0.0, self._cdf),
                          np.concatenate([[0.0], slope, [0.0]]),
                          np.append(self.grid_theta[0], self.grid_theta))

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
        """Inverse-CDF draws on the grid, linearly interpolated: ``np.interp(
        rng.random(n), cdf, grid_theta)`` bit for bit, term for term."""
        u = rng.random(n)
        search, start, slope, phase = self._segments
        i = search(u)
        return slope[i] * (u - start[i]) + phase[i]


def canonical_phase_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the canonical-phase interceptor, rounded to M states.

    Identical scoring to :func:`heterodyne_pa` with the phase error drawn
    from the canonical phase distribution instead of the heterodyne outcome.
    The uniforms come in blocks, and the result equals the one-shot
    ``np.interp`` inverse-CDF form bit for bit.
    """
    require_grid_size(M)
    require_count("trials", trials)
    dist = PhaseDistribution(alpha0)
    rng = np.random.default_rng(seed)
    errors = ((slice(i, i + BLOCK), dist.sample(rng, min(BLOCK, trials - i)))
              for i in range(0, trials, BLOCK))
    return _rounded_acceptance(alpha0, M, errors, np.empty(trials))
