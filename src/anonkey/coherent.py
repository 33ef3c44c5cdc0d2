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
:class:`PhaseDistribution`, near 0.82, flat in amplitude in that window: there the
error is near Gaussian of variance ``s2 = 1 / (2 alpha0^2)`` and ``1 / (4 alpha0^2)``, and
``pa -> (1 + 2 alpha0^2 s2)^(-1/2)``, which is ``1 / sqrt(2)`` and ``sqrt(2 / 3)``.
:func:`heterodyne_resend_pa` scores the variant where the full complex
outcome (amplitude error included) is re-prepared, which lands at exactly
one half.

Each kernel samples only the law its acceptance depends on.  The heterodyne
outcome is the sent state plus circular Gaussian noise, so its phase error does
not depend on which ring state was sent, and both phase estimators' errors fall
in a rounding bin with exact probabilities: :func:`heterodyne_pa` and
:func:`canonical_phase_pa` draw all their bin counts at once, and
:func:`exact_pa` gives both acceptances exactly.  The resend acceptance
``exp(-|noise|^2)`` is uniform on (0, 1): :func:`heterodyne_resend_pa` draws
how many of its ``rng.random`` uniforms set each of their 53 bits.

Every entry point raises ``ValueError`` (the CLI exits 2) unless its inputs
pass their rules, none of which accepts a ``bool``: :func:`require_amplitude`
(a real ``alpha0 > 0`` with ``2 * alpha0**2``, the overlap exponents' factor,
finite: up to about 9.48e153), :func:`require_grid_size` (an integer ``M`` in
``[4, MAX_GRID_SIZE = 2^20]``) and the ``harness`` rules for ``trials`` (like every
count, an integer below 2^63), ``seed`` and ``dtheta``.  The canonical phase keeps at
most :data:`MAX_FOCK_WINDOW` = 2^17 Fock amplitudes and the heterodyne fewer Fourier
coefficients, so for both phase estimators ``alpha0`` is at most about 5370
(:func:`require_phase_amplitude`).  Whatever ``trials`` is, the phase estimators take
O(``alpha0 + M log M``) time and resend O(1).
"""

from __future__ import annotations

import math

import numpy as np

from .harness import is_integer, is_real, log_poisson, require_angle, require_count, seeded_rng

_RESEND_BITS = 53  # rng.random returns k / 2^53, k of 53 fair bits
MAX_GRID_SIZE = 1 << 20  # rounding ring size M, at most: every entry point builds O(M) tables
MAX_FOCK_WINDOW = 1 << 17  # Fock amplitudes of the canonical phase, at most
# of sum_n c_n^2 = 1, the Fock window drops at most this much, so that a bin
# probability moves by at most _DROPPED + 2 sqrt(_DROPPED) = 2e-16 (see _fock_window)
_DROPPED = 1e-32
_LOG_TAIL = math.log(2.0 / _DROPPED)  # each tail of the window holds at most e^-L


def require_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0`` is real, ``alpha0 > 0`` and the float product
    ``2 * alpha0 * alpha0`` is finite.  The exact comparison with 1e154 comes
    first, so an int too large for a float is refused rather than converted."""
    if not (is_real(alpha0) and 0 < alpha0 < 1e154
            and math.isfinite(2 * float(alpha0) * float(alpha0))):
        raise ValueError(f"alpha0 must be positive with 2 * alpha0**2 finite, got {alpha0!r}")


def require_phase_amplitude(alpha0: float) -> None:
    """Raise unless ``alpha0`` is an amplitude whose two phase estimators each keep
    at most :data:`MAX_FOCK_WINDOW` terms, in closed form: :func:`_fock_window` spans
    fewer than ``2 alpha0 sqrt(2 L) + L + 3`` integers, so it fits whenever ``2 alpha0
    sqrt(2 L) + L + 2`` does, and :func:`_heterodyne_coefficients` keeps at most about
    half as many, ``alpha0 sqrt(2 L) + L + 4``.  Nothing is allocated to refuse an
    amplitude, and one so large that the window's float ends cancel (1e100) is refused.
    """
    require_amplitude(alpha0)
    if not 2.0 * float(alpha0) * math.sqrt(2.0 * _LOG_TAIL) + _LOG_TAIL + 2.0 <= MAX_FOCK_WINDOW:
        raise ValueError(f"alpha0 must be at most about 5370 for a phase estimator, got {alpha0}")


def require_grid_size(M: int) -> None:
    """Raise unless the rounding ring size ``M`` is an integer in ``[4, MAX_GRID_SIZE]``."""
    if not (is_integer(M) and 4 <= M <= MAX_GRID_SIZE):
        raise ValueError(f"M must be an integer in [4, 2**20], got {M!r}")


def coherent_overlap_mag(alpha0: float, dtheta: float) -> float:
    """|<alpha0 e^(i theta) | alpha0 e^(i (theta + dtheta))>| = exp(-alpha0^2 (1 - cos dtheta))."""
    require_amplitude(alpha0)
    require_angle("dtheta", dtheta)
    return math.exp(-alpha0**2 * (1.0 - math.cos(dtheta)))


def _overlap_table(alpha0: float, M: int, bins: np.ndarray) -> np.ndarray:
    """Acceptance of the rounding bins ``bins``; bin ``j`` is ``j - M // 2`` ring steps off."""
    step = 2.0 * math.pi / M
    with np.errstate(over="ignore"):  # an exponent of -inf gives overlap 0
        return np.exp(-2.0 * alpha0**2 * (1.0 - np.cos((bins - M // 2) * step)))


def _bin_moments(weights: np.ndarray, total: int, alpha0: float, M: int) -> tuple[float, float]:
    """Mean and variance of the acceptance over the M + 1 rounding bins, bin ``j``
    weighing ``weights[j] / total``, as ``math.fsum`` sums over the bins with weight,
    the only ones whose overlap it evaluates: in bytes free of summation order."""
    hit = np.flatnonzero(weights)
    w, t = weights[hit], _overlap_table(alpha0, M, hit)
    mean = math.fsum((w * t).tolist()) / total  # fsum reads a list faster than an array
    return mean, math.fsum((w * (t - mean) ** 2).tolist()) / total


def heterodyne_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the heterodyne interceptor, phase rounded to M states.

    Per trial: a ring state ``alpha0 e^(i theta)`` is heterodyned, the outcome phase
    rounded to the nearest of the M ring phases, and the acceptance is the squared
    overlap between the true and estimated states.  The outcome is ``alpha0 e^(i
    theta) + n``, ``n`` circular Gaussian with ``E|n|^2 = 1`` (the Husimi Q function),
    and ``n e^(-i theta)`` has the law of ``n``, so the phase error ``angle(alpha0 +
    n)`` does not depend on ``theta``.  Its rounding bins have exact probabilities
    (:func:`_heterodyne_coefficients`), so the bin counts are one draw ``rng.multinomial(
    trials, pmf)``, scored by :func:`_bin_moments`: O(alpha0 + M log M) whatever ``trials`` is.
    """
    return _phase_pa("heterodyne", alpha0, M, trials, seed)


def heterodyne_resend_pa(alpha0: float, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance when the raw heterodyne outcome itself is re-prepared.

    The re-prepared state carries the amplitude error as well as the phase
    error; the squared overlap is ``exp(-|n|^2)`` for the outcome noise ``n`` of
    :func:`heterodyne_pa`.  ``|n|^2`` is exponential of mean 1, so ``exp(-|n|^2)``
    is uniform on (0, 1) at every amplitude: a trial's acceptance is one draw
    of ``rng.random``, ``k / 2^53`` with 53 independent fair bits in ``k``.  The
    sum of the ``k`` is ``sum_b 2^b N_b``, where ``N_b``, the trials whose bit ``b``
    is set, are independent ``Binomial(trials, 1/2)``: 53 binomial draws, one exact
    integer and one correctly rounded division give the mean of ``trials`` uniforms
    in O(1) whatever ``trials`` is.  The stderr is the exact ``sqrt(var / trials)``
    with ``var = (1 - 4^-53) / 12``, 1/12 in double, since the sample second moment
    needs the uniforms themselves.
    """
    require_amplitude(alpha0)
    require_count("trials", trials)
    n = int(trials)  # a numpy integer would overflow at << 53
    ones = seeded_rng("seed", seed).binomial(n, 0.5, size=_RESEND_BITS)
    total = sum(c << b for b, c in enumerate(ones.tolist()))
    return total / (n << _RESEND_BITS), math.sqrt(1.0 / 12.0 / n)


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
    would allow 2e-8 there, so the mass bound is 1e-32, and the truncation moves
    a bin by at most 2e-16.
    """
    lam = float(alpha0) ** 2
    half = alpha0 * math.sqrt(2.0 * _LOG_TAIL)
    return range(max(0, math.floor(lam - half)), math.ceil(lam + half + _LOG_TAIL) + 1)


def _fock_amplitudes(alpha0: float) -> tuple[range, np.ndarray]:
    """The Fock window and its amplitudes ``c_n = sqrt(e^-lam lam^n / n!)``, ``lam = alpha0^2``,
    in Loader's form (:func:`anonkey.harness.log_poisson`), free of cancellation."""
    window = _fock_window(alpha0)
    n = np.arange(window.start, window.stop, dtype=float)
    return window, np.exp(0.5 * log_poisson(n, float(alpha0) ** 2))


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
    and Paul, PRA 51, 84 (1995)).
    """

    def __init__(self, alpha0: float) -> None:
        require_phase_amplitude(alpha0)
        self.alpha0 = float(alpha0)
        self.window, coeff = _fock_amplitudes(alpha0)
        self._r = _autocorrelation(coeff)

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


def _heterodyne_coefficients(alpha0: float) -> np.ndarray:
    """Fourier coefficients ``s_d = E cos(d delta)``, ``d < J = 2 ceil(alpha0 sqrt(L) + L)
    + 2``, of the heterodyne phase error ``delta = angle(alpha0 + n)``, ``L = _LOG_TAIL / 2``.

    The Rician phase law (the Husimi Q function's phase marginal) has ``s_d = X_((d-1)/2)
    + X_((d+1)/2)``, ``X_nu = (sqrt(pi) / 2) alpha0 e^-x I_nu(x)``, ``x = alpha0^2 / 2``.  One
    loop over ``j = 2 nu`` runs Miller's backward recurrence ``r_nu = X_nu / X_(nu-1) = x /
    (2 nu + x r_(nu+1))`` down from the fixed point ``x / (nu + hypot(nu, x))`` past ``J / 2``;
    ``X_(1/2) = -expm1(-alpha0^2) / 2`` anchors the half-integer chain (and ``s_0 = 1``
    spares ``X_(-1/2)``), ``I_0 + 2 sum_k I_k = e^x`` the integer one.  Dropped terms: Amos's
    ``I_(nu+1) / I_nu <= x / (nu + 1/2 + hypot(nu + 1/2, x))`` (Math. Comp. 28, 239 (1974))
    and ``X_(-1/2), X_0 <= 1`` give ``X_nu <= exp(-F(nu - 1/2))``, ``F(nu) = int_0^nu
    asinh(u / x) du >= nu^2 / (2 x + nu)``, which is ``L`` by ``nu = alpha0 sqrt(L) + L``.  So
    ``s_d <= 2 e^-L`` from ``J`` on, ``F`` grows at least linearly there, ``sum_(d >= J) s_d /
    d <= e^-L``, and a bin moves by at most ``(2 / pi) e^-L = 4.5e-17``.  The start's error
    shrinks by ``r^2`` a step, so it moves ``X_nu`` by about ``X_(J/2)^2 / X_nu <= e^-L``.
    """
    a, log_tail = float(alpha0), 0.5 * _LOG_TAIL
    x, top = 0.5 * a * a, 2 * math.ceil(a * math.sqrt(log_tail) + log_tail) + 2
    r = [0.0] * (top + 1) + [x / (0.5 * j + math.hypot(0.5 * j, x)) for j in (top + 1, top + 2)]
    for j in range(top, 1, -1):  # r[j] is r_(j/2)
        r[j] = x / (j + x * r[j + 2])
    ratios = np.array(r)
    whole = np.cumprod(np.append(1.0, ratios[2:top + 1:2]))  # I_k / I_0, k <= top / 2
    ladder = np.empty(top + 1)  # ladder[j] = X_(j/2), then s_d = ladder[d - 1] + ladder[d + 1]
    ladder[0::2] = 0.5 * math.sqrt(math.pi) * a * whole / (2.0 * whole.sum() - 1.0)
    ladder[1::2] = -0.5 * math.expm1(-a * a) * np.cumprod(np.append(1.0, ratios[3:top:2]))
    return np.append(1.0, ladder[:-2] + ladder[2:])


def _bins(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Probabilities of the M + 1 rounding bins ``round(delta / step) + M // 2`` of a
    phase error ``delta`` in (-pi, pi], ``step = 2 pi / M``, of density ``(c_0 + 2 sum_d c_d
    cos(d t)) / (2 pi)`` for ``c = coeffs`` (canonical ``r_d``, heterodyne ``s_d``).  Truncating
    the series moves each bin by at most 2e-16 (see where ``coeffs`` is built); the FFT's
    rounding moves each by about ``eps sum_d |c_d| / d``, ``eps = 2.2e-16``, the sum under 10
    (it grows as ``log alpha0``), so about 2e-15 at ``alpha0`` = 5370: the far heterodyne bins
    at M = 4 hold 1.3e-15 instead of 0.  Not so the peak bin, which normalising leaves short of
    the noise clipped into every far bin: ``exact_pa(5370, 4096, "canonical")`` has variance 1.4e-13.

    The antiderivative ``G(t) = t c_0 / (2 pi) + (1 / pi) sum_d c_d sin(d t) / d`` at the bin
    edges ``t = (m - 1/2) step`` is one length-M FFT: ``sin(d t) = Im[exp(2 pi i d m / M)
    exp(-i pi d / M)]``, whose first factor depends on ``d`` only through ``d mod M`` and whose
    half-bin twiddle has period ``2 M`` in ``d``.  The twiddle goes on the coefficients, ``w_d =
    c_d / d exp(-i pi (d mod 2M) / M)``, which two real ``bincount`` calls fold onto ``d mod M``,
    so nothing but the FFT is of length M.  Edges beyond +-pi are clipped there, where ``G =
    +-c_0 / 2``; for odd M that leaves bin M empty.
    """
    d = np.arange(1, len(coeffs))
    w, turn, fold = coeffs[1:] / d, (math.pi / M) * (d % (2 * M)), d % M
    folded = np.bincount(fold, w * np.cos(turn), M) - 1j * np.bincount(fold, w * np.sin(turn), M)
    sines = np.fft.ifft(folded, norm="forward").imag  # unscaled: sum_k folded_k e^(2 pi i k m / M)
    m = np.arange(M + 2) - M // 2
    t = (m - 0.5) * (2.0 * math.pi / M)
    g = t * (coeffs[0] / (2.0 * math.pi)) + sines[m % M] / math.pi
    g[t <= -math.pi], g[t >= math.pi] = -0.5 * coeffs[0], 0.5 * coeffs[0]
    pmf = np.maximum(np.diff(g), 0.0)  # rounding leaves far bins near +-eps sum |c_d| / d
    return pmf / pmf.sum()


_COEFFICIENTS = {"heterodyne": _heterodyne_coefficients,
                 "canonical": lambda alpha0: _autocorrelation(_fock_amplitudes(alpha0)[1])}


def _phase_bins(alpha0: float, M: int, estimator: str) -> np.ndarray:
    """The estimator's bin probabilities (:func:`_bins`), under its kernel's rules."""
    require_grid_size(M)
    require_phase_amplitude(alpha0)
    return _bins(_COEFFICIENTS[estimator](alpha0), M)


def exact_pa(alpha0: float, M: int, estimator: str) -> tuple[float, float]:
    """The exact mean and per-trial variance of the acceptance that :func:`heterodyne_pa`
    (``estimator="heterodyne"``) or :func:`canonical_phase_pa` (``"canonical"``) samples."""
    if estimator not in _COEFFICIENTS:
        raise ValueError(f"estimator must be 'heterodyne' or 'canonical', got {estimator!r}")
    return _bin_moments(_phase_bins(alpha0, M, estimator), 1, alpha0, M)


def _phase_pa(estimator: str, alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """The bin counts of ``trials``, one ``rng.multinomial`` draw: the mean acceptance of
    :func:`_bin_moments` and its standard error, ``np.std / sqrt(trials)`` of the trials."""
    require_count("trials", trials)
    counts = seeded_rng("seed", seed).multinomial(trials, _phase_bins(alpha0, M, estimator))
    mean, var = _bin_moments(counts, int(trials), alpha0, M)
    return mean, math.sqrt(var) / math.sqrt(trials)  # sqrt(var / trials) differs by ulps


def canonical_phase_pa(alpha0: float, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Acceptance of the canonical-phase interceptor, rounded to M states: scored as
    :func:`heterodyne_pa`, with the bins of the canonical density's ``r_d``, in
    ``O(alpha0 log alpha0 + M log M)`` whatever ``trials`` is."""
    return _phase_pa("canonical", alpha0, M, trials, seed)
