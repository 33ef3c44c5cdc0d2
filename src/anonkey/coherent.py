"""Coherent-state phase encoding: overlaps, heterodyne, canonical phase.

The optical variant of the ring encoding carries the key in the phase of a
fixed-amplitude coherent state ``alpha0 * exp(i * theta_l)``.  Overlaps fall
off as ``exp(-alpha0^2 (1 - cos dtheta))``, so for large amplitude distinct
ring states are effectively orthogonal, yet a phase estimate from any single
copy keeps a floor of uncertainty scaling as ``1 / alpha0^2``.  While the ring
step is fine against it, ``alpha0 * 2 pi / M << 1``, the interceptor's acceptance
stays pinned regardless of amplitude; past that, rounding identifies the state
and it rises to 1.  Exactly, for the canonical phase at M = 64 (4096) and alpha0
5, 23, 100 (5, 300, 2000): 0.8037, 0.9761, 1.0000 (0.8144, 0.8070, 0.9978).

Acceptance convention: the interceptor's estimate is the ring state nearest
her measured phase, and the verifier accepts with the squared overlap
between the true and estimated states.  Under this convention heterodyne
settles near 0.71 and the sharper canonical phase estimator, of density
:class:`PhaseDistribution`, near 0.82, both amplitude-independent in that window.
:func:`heterodyne_resend_pa` scores the variant where the full complex
outcome (amplitude error included) is re-prepared, which lands at exactly
one half.

Every entry point raises ``ValueError`` (the CLI exits 2) unless its inputs
pass their rules, none of which accepts a ``bool``: :func:`require_amplitude`
(a real ``alpha0 > 0`` with ``2 * alpha0**2``, the overlap exponents' factor,
finite: up to about 9.48e153), :func:`require_grid_size` (an integer ``M`` in
``[4, MAX_GRID_SIZE = 2^20]``) and the ``harness`` rules for ``trials`` (like every
count, an integer below 2^63), ``seed`` and ``dtheta``.  The canonical phase keeps at
most :data:`MAX_FOCK_WINDOW` = 2^17 Fock amplitudes, so there ``alpha0`` is at most
about 5370 (:func:`require_canonical_amplitude`).  The heterodyne kernels run their
trials in blocks of :data:`BLOCK` = 2^16.
"""

from __future__ import annotations

import math

import numpy as np

from .harness import is_integer, is_real, require_angle, require_count, seeded_rng

BLOCK = 1 << 16  # trials per block of the heterodyne Monte Carlo kernels
MAX_GRID_SIZE = 1 << 20  # rounding ring size M, at most: every entry point builds O(M) tables
MAX_FOCK_WINDOW = 1 << 17  # Fock amplitudes of the canonical phase, at most
# of sum_n c_n^2 = 1, the Fock window drops at most this much, so that a bin
# probability moves by at most _DROPPED + 2 sqrt(_DROPPED) = 2e-16 (see _fock_window)
_DROPPED = 1e-32
_LOG_TAIL = math.log(2.0 / _DROPPED)  # each tail of the window holds at most e^-L
# stirlerr(n) for n < 16, where its asymptotic series is short of double precision
_STIRLERR = np.array([0.0] + [math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
                              - 0.5 * math.log(2.0 * math.pi) for n in range(1, 16)])
_DENSITY_ENTRIES = 1 << 19  # phases x window entries of one density block's arrays


def require_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0`` is real, ``alpha0 > 0`` and the float product
    ``2 * alpha0 * alpha0`` is finite.  The exact comparison with 1e154 comes
    first, so an int too large for a float is refused rather than converted."""
    if not (is_real(alpha0) and 0 < alpha0 < 1e154
            and math.isfinite(2 * float(alpha0) * float(alpha0))):
        raise ValueError(f"alpha0 must be positive with 2 * alpha0**2 finite, got {alpha0!r}")


def require_canonical_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0`` is an amplitude whose Fock window holds at most
    :data:`MAX_FOCK_WINDOW` terms.

    The width is bounded in closed form: :func:`_fock_window` spans fewer than
    ``2 alpha0 sqrt(2 L) + L + 3`` integers, so it fits whenever ``2 alpha0 sqrt(2 L)
    + L + 2`` does.  Nothing is allocated to refuse an amplitude, and one so large
    that the window's float ends cancel (1e100) is refused all the same.
    """
    require_amplitude(alpha0)
    if not 2.0 * float(alpha0) * math.sqrt(2.0 * _LOG_TAIL) + _LOG_TAIL + 2.0 <= MAX_FOCK_WINDOW:
        raise ValueError(f"alpha0 must be at most about 5370 for the canonical phase, got {alpha0}")


def require_grid_size(M: int) -> None:
    """Raise unless the rounding ring size ``M`` is an integer in ``[4, MAX_GRID_SIZE]``."""
    if not (is_integer(M) and 4 <= M <= MAX_GRID_SIZE):
        raise ValueError(f"M must be an integer in [4, 2**20], got {M!r}")


def coherent_overlap_mag(alpha0: float, dtheta: float) -> float:
    """|<alpha0 e^(i theta) | alpha0 e^(i (theta + dtheta))>| = exp(-alpha0^2 (1 - cos dtheta))."""
    require_amplitude(alpha0)
    require_angle("dtheta", dtheta)
    return math.exp(-alpha0**2 * (1.0 - math.cos(dtheta)))


def _overlap_table(alpha0: float, M: int) -> np.ndarray:
    """Acceptance of each of the M + 1 rounding offsets ``j - M // 2`` ring steps."""
    step = 2.0 * math.pi / M
    with np.errstate(over="ignore"):  # an exponent of -inf gives overlap 0
        return np.exp(-2.0 * alpha0**2 * (1.0 - np.cos((np.arange(M + 1) - M // 2) * step)))


def _bin_score(counts: np.ndarray, alpha0: float, M: int) -> tuple[float, float]:
    """Mean acceptance and ``np.std / sqrt(trials)`` of the trials counted in the
    M + 1 rounding bins, as ``math.fsum`` sums over the bins hit: the per-trial
    scores, in bytes free of summation order."""
    trials = int(counts.sum())
    hit = np.flatnonzero(counts)
    c, t = counts[hit], _overlap_table(alpha0, M)[hit]
    pa = math.fsum(c * t) / trials
    return pa, math.sqrt(math.fsum(c * (t - pa) ** 2) / trials) / math.sqrt(trials)


def heterodyne_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the heterodyne interceptor, phase rounded to M states.

    Per trial: a ring state is drawn, heterodyned, the outcome phase rounded
    to the nearest of the M ring phases, and the acceptance is the squared
    overlap between the true and estimated states.  Trials run in blocks of
    ``BLOCK``; each block draws its ring states and then its noise, and only
    the counts of the M + 1 rounding bins are kept, scored as in
    :func:`canonical_phase_pa`: the mean acceptance and its standard error.
    """
    require_amplitude(alpha0)
    require_grid_size(M)
    require_count("trials", trials)
    rng = seeded_rng("seed", seed)
    ring = 2.0 * math.pi * np.arange(M) / M
    sent, unwind = alpha0 * np.exp(1j * ring), np.exp(-1j * ring)
    step, counts = 2.0 * math.pi / M, np.zeros(M + 1, dtype=np.int64)
    z = np.empty(min(trials, BLOCK), dtype=complex)
    for start in range(0, trials, BLOCK):
        noise = z[: min(BLOCK, trials - start)]  # a buffer the draws refill
        state = rng.integers(0, M, size=len(noise))
        # (re + 1j * im) / sqrt(2), which numpy computes as a product with 1 / sqrt(2)
        np.multiply(rng.standard_normal(len(noise)), 1.0 / math.sqrt(2.0), out=noise.real)
        np.multiply(rng.standard_normal(len(noise)), 1.0 / math.sqrt(2.0), out=noise.imag)
        delta = np.angle((noise + sent[state]) * unwind[state])
        counts += np.bincount((np.round(delta / step) + M // 2).astype(np.intp), minlength=M + 1)
    return _bin_score(counts, alpha0, M)


def heterodyne_resend_pa(alpha0: float, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance when the raw heterodyne outcome itself is re-prepared.

    The re-prepared state carries the amplitude error as well as the phase
    error; the squared overlap is ``exp(-|beta - alpha|^2)``, whose mean over
    the outcome distribution is exactly one half at every amplitude.  The noise
    is drawn as in :func:`heterodyne_pa`, and only the sums of the acceptances
    and of their squares are kept, about that mean of one half so that the
    variance does not cancel.
    """
    require_amplitude(alpha0)
    require_count("trials", trials)
    rng = seeded_rng("seed", seed)
    total = square = 0.0
    re, im = np.empty(min(trials, BLOCK)), np.empty(min(trials, BLOCK))
    for start in range(0, trials, BLOCK):
        n = min(BLOCK, trials - start)  # buffers the draws refill, then in-place arithmetic
        acc, sq = rng.standard_normal(out=re[:n]), rng.standard_normal(out=im[:n])
        acc *= acc
        acc += np.square(sq, out=sq)
        acc *= -0.5  # -|noise|^2, noise = (re + 1j * im) / sqrt(2)
        np.exp(acc, out=acc)
        acc -= 0.5
        total += acc.sum()
        square += acc @ acc
    shift = float(total) / trials
    return 0.5 + shift, math.sqrt(max(square / trials - shift * shift, 0.0)) / math.sqrt(trials)


def _fock_window(alpha0: float) -> range:
    """The Fock numbers whose amplitudes the canonical phase keeps.

    By the Chernoff bound a Poisson count N of mean ``lam = alpha0^2`` has
    ``P(N <= x) <= exp(-bd0(x, lam))`` below the mean and ``P(N >= x) <=
    exp(-bd0(x, lam))`` above it, with ``bd0(lam - t, lam) >= t^2 / (2 lam)``
    and ``bd0(lam + t, lam) >= t^2 / (2 lam + t)``.  Both reach ``L`` by
    ``t = alpha0 sqrt(2 L)`` below and ``t = alpha0 sqrt(2 L) + L`` above, so
    each dropped tail of ``sum_n c_n^2`` holds at most ``e^-L = _DROPPED / 2``.

    The probability of an arc B is ``int_B |psi|^2 dtheta / (2 pi)``; dropping
    the tail ``psi_T`` of ``psi = psi_W + psi_T`` moves it by at most ``int_B
    |psi_T|^2 + 2 |int_B psi_W conj(psi_T)|``, at most ``eps + 2 sqrt(eps)``
    with ``eps = _DROPPED`` by Cauchy-Schwarz.  A bound of 1e-16 on the mass
    would allow 2e-8 there, so the mass bound is 1e-32 and the bins are exact
    to 2e-16.
    """
    lam = float(alpha0) ** 2
    half = alpha0 * math.sqrt(2.0 * _LOG_TAIL)
    return range(max(0, math.floor(lam - half)), math.ceil(lam + half + _LOG_TAIL) + 1)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """``log n! - log(sqrt(2 pi n) (n / e)^n)`` for integers ``n >= 1`` held as floats:
    tabulated below 16, past that the series whose first dropped term is under 2e-16."""
    nn = n * n
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    small = n < len(_STIRLERR)
    out[small] = _STIRLERR[n[small].astype(np.intp)]
    return out


def _bd0(x: np.ndarray, alpha0: float) -> np.ndarray:
    """Loader's ``bd0(x, lam) = x log(x / lam) + lam - x`` at ``lam = alpha0^2``, ``x > 0``;
    within 10% of ``lam`` it is summed as a series free of cancellation."""
    lam = float(alpha0) ** 2
    out = x * (np.log(x) - 2.0 * math.log(alpha0)) + lam - x
    near = np.flatnonzero(np.abs(x - lam) < 0.1 * (x + lam))
    v = (x[near] - lam) / (x[near] + lam)
    total, term, v2 = (x[near] - lam) * v, 2.0 * x[near] * v, v * v
    for j in range(3, 100, 2):  # |v| < 0.1: each term is at most 1% of the last
        term *= v2
        grown = total + term / j
        if np.array_equal(grown, total):
            break
        total = grown
    out[near] = total
    return out


def _fock_amplitudes(alpha0: float) -> tuple[range, np.ndarray]:
    """The Fock window and its amplitudes ``c_n = sqrt(e^-lam lam^n / n!)``, ``lam =
    alpha0^2``, from Loader's form ``log c_n^2 = -stirlerr(n) - bd0(n, lam) - log(2 pi n) / 2``,
    which keeps full relative precision where ``n log lam`` and ``log n!`` would cancel."""
    window = _fock_window(alpha0)
    n = np.arange(max(window.start, 1), window.stop, dtype=float)
    log_p = -_stirlerr(n) - _bd0(n, alpha0) - 0.5 * np.log(2.0 * math.pi * n)
    if window.start == 0:
        log_p = np.append(-float(alpha0) ** 2, log_p)
    return window, np.exp(0.5 * log_p)


def _autocorrelation(c: np.ndarray) -> np.ndarray:
    """``r_d = sum_n c_n c_{n+d}`` for ``0 <= d < len(c)``: one zero-padded rfft."""
    width = len(c)
    size = 1 << (2 * width - 1).bit_length()
    spectrum = np.fft.rfft(c, size)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[:width]


class PhaseDistribution:
    """Canonical phase density of a coherent state of amplitude alpha0.

    ``p(theta) = |sum_n c_n exp(i n theta)|^2 / (2 pi) = (r_0 + 2 sum_d r_d cos(d
    theta)) / (2 pi)`` with Poissonian amplitudes ``c_n = exp(-alpha0^2/2) alpha0^n /
    sqrt(n!)`` over the Fock window ``window``, a range around ``alpha0^2`` dropping
    at most 1e-32 of ``sum_n c_n^2``, and their autocorrelation ``r_d = sum_n c_n
    c_{n+d}``; the factor ``exp(i window.start theta)`` drops out of the modulus.
    The moments are exact Fourier sums in ``r_d`` (Leonhardt, Vaccaro, Boehmer
    and Paul, PRA 51, 84 (1995)); :meth:`density` evaluates the series at
    arbitrary phases.
    """

    def __init__(self, alpha0: float) -> None:
        require_canonical_amplitude(alpha0)
        self.alpha0 = float(alpha0)
        self.window, self._coeff = _fock_amplitudes(alpha0)
        self._r = _autocorrelation(self._coeff)

    def density(self, theta) -> np.ndarray:
        """Evaluate the density at arbitrary phases (vectorized).  Phases are
        taken a block at a time, so the two (phases x window) arrays of a block
        hold at most 2^19 entries each, 8 MiB in all."""
        theta = np.asarray(theta, dtype=float)
        flat, out = theta.ravel(), np.empty(theta.size)
        ns = np.arange(len(self._coeff), dtype=float)
        rows = max(1, _DENSITY_ENTRIES // len(ns))
        for start in range(0, len(flat), rows):
            phase = np.multiply.outer(flat[start:start + rows], ns)
            re = np.cos(phase) @ self._coeff
            im = np.sin(phase, out=phase) @ self._coeff
            out[start:start + rows] = (re * re + im * im) / (2.0 * math.pi)
        return out.reshape(theta.shape)

    def normalization(self) -> float:
        """Integral of the density over a period, ``r_0 = sum_n c_n^2``: 1 but for the
        dropped 1e-32 and rounding."""
        return float(self._r[0])

    def variance(self) -> float:
        """Second moment of the phase around the peak, over (-pi, pi]: ``theta^2`` has
        the Fourier coefficients ``pi^2 / 3`` and ``4 (-1)^d / d^2``, so the moment is
        ``pi^2 r_0 / 3 + 4 sum_d (-1)^d r_d / d^2``, divided by ``r_0``.  Its terms of
        order 1 cancel to about ``1 / (4 alpha0^2)``, so they are summed exactly."""
        d = np.arange(1, len(self._r), dtype=float)
        terms = 4.0 * (-1.0) ** d / (d * d) * self._r[1:]
        return math.fsum([math.pi**2 / 3.0 * self._r[0], *terms]) / float(self._r[0])


def _bin_probabilities(alpha0: float, M: int) -> np.ndarray:
    """Probabilities of the M + 1 rounding bins ``round(delta / step) + M // 2``
    of a canonical phase error ``delta`` in (-pi, pi], ``step = 2 pi / M``, each
    within 2e-16 of its value over the full Fock series (see :func:`_fock_window`).

    The density has the antiderivative ``G(t) = t r_0 / (2 pi) + (1 / pi) sum_d
    r_d sin(d t) / d`` with ``r_d`` from :func:`_autocorrelation`.
    At the bin edges ``t = (m - 1/2) step`` the sine sum is one length-M FFT,
    since ``sin(d t)`` depends on ``d`` only through ``d mod M`` and the sign
    ``(-1)^(d // M)``.  Edges beyond +-pi are clipped there, where ``G = +-r_0 / 2``;
    for odd M that leaves bin M empty.
    """
    r = _autocorrelation(_fock_amplitudes(alpha0)[1])
    d = np.arange(1, len(r))
    folded = np.bincount(d % M, weights=r[1:] / d * (1 - 2 * (d // M % 2)), minlength=M)
    sines = (np.fft.ifft(folded * np.exp(-1j * math.pi * np.arange(M) / M)) * M).imag
    m = np.arange(M + 2) - M // 2
    t = (m - 0.5) * (2.0 * math.pi / M)
    g = t * (r[0] / (2.0 * math.pi)) + sines[m % M] / math.pi
    g[t <= -math.pi], g[t >= math.pi] = -0.5 * r[0], 0.5 * r[0]
    pmf = np.maximum(np.diff(g), 0.0)  # rounding leaves far bins near +-1e-17
    return pmf / pmf.sum()


def canonical_phase_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the canonical-phase interceptor, rounded to M states.

    Identical scoring to :func:`heterodyne_pa` with the phase error drawn
    from the canonical phase distribution instead of the heterodyne outcome.
    A trial's acceptance depends only on its rounding bin, so the bin counts
    are one draw ``rng.multinomial(trials, pmf)``, ``pmf`` from
    :func:`_bin_probabilities`, scored by :func:`_bin_score`: the per-trial law,
    in ``O(alpha0 log alpha0 + M log M)`` whatever ``trials`` is.
    """
    require_grid_size(M)
    require_count("trials", trials)
    require_canonical_amplitude(alpha0)
    rng = seeded_rng("seed", seed)
    return _bin_score(rng.multinomial(trials, _bin_probabilities(alpha0, M)), alpha0, M)
