"""The Monte Carlo kernels against their plain numpy formulations.

The ring kernels (``aki``, opaque, random-basis) draw their success count in
one ``rng.binomial(trials, p)`` call.  Each must equal that draw with ``p``
computed here from the ring states and their square-root measurement alone,
by summing the per-trial law over every outcome, and must match its per-trial
form (``rng.choice`` for the ring detector, one uniform per decision) in
distribution.  The canonical phase draws its bin counts in one
``rng.multinomial`` call, so it must match its repeat form to rounding and its
per-trial form ``rng.choice(M + 1, p=pmf)`` in distribution.  The heterodyne
kernels run their trials in blocks of ``coherent.BLOCK``, draw each block's
values in a fixed order and keep only counts or sums.  Their references apply
per-trial complex exponentials, ``np.mean`` and ``np.std`` over every trial to
the same blocks, at trial counts on both sides of the block size: heterodyne
scores its rounding-bin counts with ``math.fsum``, so it must match to
rounding, and resend keeps running sums, so it must match to 1e-12.  A key
session's ring-detector offsets are ``ring_tables(M).cdf.searchsorted``, which
must equal ``rng.choice(M, p=srm)`` on the same uniforms.
"""

import math
import tracemalloc

import numpy as np
import pytest

from anonkey.adversary import sequential_strategy_pc
from anonkey.aki import aki_impersonation
from anonkey.coherent import (
    BLOCK,
    _bin_probabilities,
    _overlap_table,
    canonical_phase_pa,
    heterodyne_pa,
    heterodyne_resend_pa,
)
from anonkey.detection import random_basis_strategy, ring_tables, square_root_measurement
from anonkey.harness import binomial_stderr
from anonkey.states import Ensemble, circle_states


def blocks(trials, size=BLOCK):
    """The trial counts of the blocks that a kernel splits ``trials`` into."""
    return [min(size, trials - start) for start in range(0, trials, size)]


def fraction(successes):
    p = float(np.mean(successes))
    return p, binomial_stderr(p, len(successes))


def binomial_form(p, trials, seed):
    """The estimate and stderr of one draw ``rng.binomial(trials, p)``."""
    est = int(np.random.default_rng(seed).binomial(trials, p)) / trials
    return est, binomial_stderr(est, trials)


def ring_law(M):
    """``ov[a, b] = tr(rho_a rho_b)`` and ``detect[t, l] = tr(Pi_l rho_t)`` of the
    ring states and their square-root measurement, without the ring tables."""
    rho = circle_states(np.arange(M), M)
    povm = square_root_measurement(Ensemble(rho, np.full(M, 1.0 / M))).elements[:M]
    return np.einsum("aij,bji->ab", rho, rho).real, np.einsum("tij,lji->tl", rho, povm).real


def exact_aki(m, M):
    # the response misses the challenge as the estimate l misses the key t
    ov, detect = ring_law(M)
    return float(np.mean(np.sum(detect * ov, axis=1))) ** m


def exact_opaque(M):
    # bit j sits at t + q(1 - 2j); the test reads bit 0 with the overlap
    # between it and the state a quarter-turn up from the estimate l
    ov, detect = ring_law(M)
    t, q = np.arange(M), M // 4
    bit0 = [ov[(t + q * (1 - 2 * j)) % M][:, (t + q) % M] for j in (0, 1)]
    return float(np.sum(detect * (bit0[0] + 1.0 - bit0[1]))) / (2 * M)


def exact_random_basis(M):
    # basis k reports k with ov[k, t], else the antipodal state k + M/2
    ov, _ = ring_law(M)
    far = ov[(np.arange(M) + M // 2) % M]
    return float(np.mean(ov * ov + (1.0 - ov) * far))


def ref_aki(m, M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    delta = rng.choice(M, size=(trials, m), p=tables.srm)
    return fraction((rng.random((trials, m)) < tables.ov[delta]).all(axis=1))


def ref_opaque(M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    ell = rng.integers(0, M, size=trials)
    j = rng.integers(0, 2, size=trials)
    est = ell + rng.choice(M, size=trials, p=tables.srm)
    modulated = ell + tables.q * (1 - 2 * j)
    p_bit0 = tables.ov[(modulated - est - tables.q) % M]
    decided = (rng.random(trials) >= p_bit0).astype(np.int64)
    return fraction(decided == j)


def ref_random_basis(M, trials, seed):
    rng = np.random.default_rng(seed)
    ov = ring_tables(M).ov
    true = rng.integers(0, M, size=trials)
    k = rng.integers(0, M, size=trials)
    first = rng.random(trials) < ov[(k - true) % M]
    reported = np.where(first, k, k + M // 2)
    return fraction(rng.random(trials) < ov[(reported - true) % M])


def rounded_acceptance(alpha0, M, delta):
    step = 2.0 * math.pi / M
    dhat = np.round(delta / step) * step
    acc = np.exp(-2.0 * alpha0**2 * (1.0 - np.cos(dhat)))
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(len(acc)))


def ref_noise(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def ref_heterodyne(alpha0, M, trials, seed):
    rng = np.random.default_rng(seed)
    delta = []
    for n in blocks(trials):
        theta = 2.0 * math.pi * rng.integers(0, M, size=n) / M
        beta = alpha0 * np.exp(1j * theta) + ref_noise(rng, n)
        delta.append(np.angle(beta * np.exp(-1j * theta)))
    return rounded_acceptance(alpha0, M, np.concatenate(delta))


def ref_canonical(alpha0, M, trials, seed):
    rng = np.random.default_rng(seed)
    bins = rng.choice(M + 1, size=trials, p=_bin_probabilities(alpha0, M))
    return rounded_acceptance(alpha0, M, (bins - M // 2) * (2.0 * math.pi / M))


def ref_canonical_counts(alpha0, M, trials, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, _bin_probabilities(alpha0, M))
    bins = np.repeat(np.arange(M + 1), counts)
    return rounded_acceptance(alpha0, M, (bins - M // 2) * (2.0 * math.pi / M))


def ref_resend(trials, seed):
    rng = np.random.default_rng(seed)
    acc = np.concatenate([np.exp(-np.abs(ref_noise(rng, n)) ** 2) for n in blocks(trials)])
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(trials))


def assert_same_law(kernel, ref, exact, trials=20, seeds=range(1000)):
    """The mean and variance of 1000 estimates at 20 trials each: the kernel against
    its per-trial form ``ref``, and both against the ``exact`` mean and variance."""
    forms = [np.array([f(trials, s)[0] for s in seeds]) for f in (kernel, ref)]
    moments = [[(e.mean(), e.std() / math.sqrt(len(e))),
                (e.var(ddof=1), math.sqrt(np.var((e - e.mean()) ** 2, ddof=1) / len(e)))]
               for e in forms]
    for got, other in zip(*moments):
        assert abs(got[0] - other[0]) < 4 * math.hypot(got[1], other[1])
    for form in moments:
        for (value, sd), want in zip(form, exact):
            assert abs(value - want) < 4 * sd


def binomial_moments(p, trials=20):
    return p, p * (1.0 - p) / trials


DRAW_TRIALS = (1, 7, 20, 70_000, 10**12)


@pytest.mark.parametrize("trials", DRAW_TRIALS)
@pytest.mark.parametrize("m, M", [(1, 4), (3, 12), (8, 4), (2, 60), (5, 192), (10**9, 4)])
def test_aki_matches_binomial_form(m, M, trials):
    seed = 1000 * m + M + trials
    expected = binomial_form(exact_aki(m, M), trials, seed)
    assert aki_impersonation(m, M, trials, seed) == expected


@pytest.mark.parametrize("trials", DRAW_TRIALS)
@pytest.mark.parametrize("M", [4, 8, 12, 60, 192])
def test_opaque_matches_binomial_form(M, trials):
    seed = M + trials
    assert sequential_strategy_pc(M, trials, seed) == binomial_form(exact_opaque(M), trials, seed)


@pytest.mark.parametrize("trials", DRAW_TRIALS)
@pytest.mark.parametrize("M", [4, 8, 12, 60])
def test_random_basis_matches_binomial_form(M, trials):
    seed = M + trials
    expected = binomial_form(exact_random_basis(M), trials, seed)
    assert random_basis_strategy(M, trials, seed) == expected


@pytest.mark.parametrize("m, M", [(1, 4), (3, 12)])
def test_aki_matches_choice_form_in_distribution(m, M):
    assert_same_law(lambda t, s: aki_impersonation(m, M, t, s),
                    lambda t, s: ref_aki(m, M, t, s), binomial_moments(exact_aki(m, M)))


@pytest.mark.parametrize("M", [4, 12])
def test_opaque_matches_choice_form_in_distribution(M):
    assert_same_law(lambda t, s: sequential_strategy_pc(M, t, s),
                    lambda t, s: ref_opaque(M, t, s), binomial_moments(exact_opaque(M)))


@pytest.mark.parametrize("M", [4, 12])
def test_random_basis_matches_plain_form_in_distribution(M):
    assert_same_law(lambda t, s: random_basis_strategy(M, t, s),
                    lambda t, s: ref_random_basis(M, t, s), binomial_moments(exact_random_basis(M)))


@pytest.mark.parametrize("trials", [1, 2, BLOCK + 1])
@pytest.mark.parametrize("M", [4, 12, 4096])
@pytest.mark.parametrize("alpha0", [0.3, 2.5, 23.0])
def test_heterodyne_matches_exp_form(alpha0, M, trials):
    seed = M + trials
    expected = ref_heterodyne(alpha0, M, trials, seed)
    assert heterodyne_pa(alpha0, M, trials, seed) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("trials", [1, 2, BLOCK + 1])
@pytest.mark.parametrize("M", [4, 7, 4096])
@pytest.mark.parametrize("alpha0", [0.3, 0.4, 2.5, 23.0, 120.0])
def test_canonical_matches_repeat_form(alpha0, M, trials):
    seed = M + trials
    expected = ref_canonical_counts(alpha0, M, trials, seed)
    assert canonical_phase_pa(alpha0, M, trials, seed) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("alpha0, M", [(0.4, 7), (2.5, 16)])
def test_canonical_matches_choice_form_in_distribution(alpha0, M):
    # the exact pmf @ t and pmf @ (t - pmf @ t)^2 scaled to 20 trials
    pmf, t = _bin_probabilities(alpha0, M), _overlap_table(alpha0, M)
    mean = pmf @ t
    assert_same_law(lambda n, s: canonical_phase_pa(alpha0, M, n, s),
                    lambda n, s: ref_canonical(alpha0, M, n, s), (mean, pmf @ (t - mean) ** 2 / 20))


@pytest.mark.parametrize("trials", [1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_resend_matches_complex_form(trials):
    expected = ref_resend(trials, trials)
    assert heterodyne_resend_pa(5.0, trials, trials) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("M", [4, 8, 12, 60, 192, 1024])
def test_ring_offsets_match_choice(M):
    srm = ring_tables(M).srm
    expected = np.random.default_rng(M).choice(M, size=200_000, p=srm)
    u = np.random.default_rng(M).random(200_000)
    assert np.array_equal(ring_tables(M).cdf.searchsorted(u, side="right"), expected)


SAMPLED = {
    "aki": lambda trials: aki_impersonation(3, 12, trials, 5),
    "opaque": lambda trials: sequential_strategy_pc(64, trials, 5),
    "random-basis": lambda trials: random_basis_strategy(64, trials, 5),
    "heterodyne": lambda trials: heterodyne_pa(5.0, 4096, trials, 5),
    "canonical": lambda trials: canonical_phase_pa(5.0, 4096, trials, 5),
    "resend": lambda trials: heterodyne_resend_pa(5.0, trials, 5),
}


@pytest.mark.parametrize("trials", [1, BLOCK + 1])
@pytest.mark.parametrize("name", SAMPLED)
def test_kernels_return_python_floats(name, trials):
    assert [type(v) for v in SAMPLED[name](trials)] == [float, float]


@pytest.mark.parametrize("kernel, bound", [
    (lambda: aki_impersonation(8, 4, 300_000, 5), 16 * 2**20),
    (lambda: aki_impersonation(10**9, 4, 300_000, 5), 4 * 2**20),
    (lambda: aki_impersonation(8, 4, 2**63 - 1, 5), 4 * 2**20),
    (lambda: sequential_strategy_pc(64, 1_000_000, 5), 16 * 2**20),
    (lambda: sequential_strategy_pc(64, 2**63 - 1, 5), 4 * 2**20),
    (lambda: canonical_phase_pa(5.0, 4096, 10**12, 5), 4 * 2**20),
    (lambda: heterodyne_pa(5.0, 4096, 10**7, 5), 8 * 2**20),
    (lambda: heterodyne_resend_pa(5.0, 10**7, 5), 8 * 2**20),
    (lambda: random_basis_strategy(64, 10**7, 5), 8 * 2**20),
], ids=["aki", "aki-huge-m", "aki-max-trials", "opaque", "opaque-max-trials", "canonical",
        "heterodyne", "resend", "random-basis"])
def test_kernels_stay_small(kernel, bound):
    # the one-shot per-trial forms peak at 57.2 and 46.8 MiB for aki and opaque
    # (about 8 GB for aki at m = 10**9), at 7.3 TiB for canonical, and at 157.5,
    # 77.8 and 544.3 MiB for heterodyne, resend and random-basis
    ring_tables(64)
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
