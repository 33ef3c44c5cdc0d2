"""The Monte Carlo kernels against their plain numpy formulations, block by block.

Each kernel runs its trials in blocks of ``BLOCK`` (``BLOCK // m`` whole
trials in ``aki``), draws each block's values in a fixed order and keeps only
counts or sums.  Each reference below applies the plain form of a kernel to
the same blocks: ``rng.choice`` for the ring detector, per-trial complex
exponentials for the heterodyne noise, ``np.mean`` and ``np.std`` over every
trial.  Trial counts sit on both sides of the block size.  The counting
kernels must return the same floats; heterodyne and canonical score their
rounding-bin counts with ``math.fsum``, so they must match to rounding, and
resend keeps running sums, so it must match to 1e-12.  The canonical phase
draws its bin counts in one ``rng.multinomial`` call, so it must also match
its per-trial form ``rng.choice(M + 1, p=pmf)`` in distribution.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anonkey.adversary import sequential_strategy_pc
from anonkey.aki import aki_impersonation
from anonkey.coherent import (
    _bin_probabilities,
    _overlap_table,
    canonical_phase_pa,
    heterodyne_pa,
    heterodyne_resend_pa,
)
from anonkey.detection import random_basis_strategy, ring_tables
from anonkey.harness import BLOCK, CdfSearch, binomial_stderr


def blocks(trials, size=BLOCK):
    """The trial counts of the blocks that a kernel splits ``trials`` into."""
    return [min(size, trials - start) for start in range(0, trials, size)]


def fraction(successes, trials):
    p = float(np.mean(np.concatenate(successes)))
    return p, binomial_stderr(p, trials)


def ref_aki(m, M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    sessions = []
    for n in blocks(trials, max(1, BLOCK // m)):
        delta = rng.choice(M, size=(n, m), p=tables.srm)
        accepted = rng.random((n, m)) < tables.ov[delta]
        sessions.append(accepted.all(axis=1))
    return fraction(sessions, trials)


def ref_opaque(M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    right = []
    for n in blocks(trials):
        ell = rng.integers(0, M, size=n)
        j = rng.integers(0, 2, size=n)
        est = ell + rng.choice(M, size=n, p=tables.srm)
        modulated = ell + tables.q * (1 - 2 * j)
        p_bit0 = tables.ov[(modulated - est - tables.q) % M]
        decided = (rng.random(n) >= p_bit0).astype(np.int64)
        right.append(decided == j)
    return fraction(right, trials)


def ref_random_basis(M, trials, seed):
    rng = np.random.default_rng(seed)
    ov = ring_tables(M).ov
    accepted = []
    for n in blocks(trials):
        true = rng.integers(0, M, size=n)
        k = rng.integers(0, M, size=n)
        first = rng.random(n) < ov[(k - true) % M]
        reported = np.where(first, k, k + M // 2)
        accepted.append(rng.random(n) < ov[(reported - true) % M])
    return fraction(accepted, trials)


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


ACROSS_BLOCKS = (1, 7, BLOCK - 1, BLOCK, BLOCK + 3)


@pytest.mark.parametrize("trials", ACROSS_BLOCKS)
@pytest.mark.parametrize("m, M", [(1, 4), (3, 12), (8, 4), (2, 60), (5, 192)])
def test_aki_matches_choice_form(m, M, trials):
    seed = 1000 * m + M + trials
    assert aki_impersonation(m, M, trials, seed) == ref_aki(m, M, trials, seed)


@pytest.mark.parametrize("trials", ACROSS_BLOCKS + (2 * BLOCK + 5,))
@pytest.mark.parametrize("M", [4, 8, 12, 60, 192])
def test_opaque_matches_choice_form(M, trials):
    assert sequential_strategy_pc(M, trials, M + trials) == ref_opaque(M, trials, M + trials)


@pytest.mark.parametrize("trials", ACROSS_BLOCKS + (2 * BLOCK + 5,))
@pytest.mark.parametrize("M", [4, 8, 12, 60])
def test_random_basis_matches_plain_form(M, trials):
    assert random_basis_strategy(M, trials, M + trials) == ref_random_basis(M, trials, M + trials)


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
    # the mean and variance of 1000 estimates at 20 trials each: the multinomial
    # kernel against the per-trial rng.choice form, and both against the exact
    # pmf @ t and pmf @ (t - pmf @ t)^2 scaled to 20 trials
    trials, seeds = 20, range(1000)
    pmf, t = _bin_probabilities(alpha0, M), _overlap_table(alpha0, M)
    mean = pmf @ t
    exact = (mean, pmf @ (t - mean) ** 2 / trials)
    forms = [np.array([f(alpha0, M, trials, s)[0] for s in seeds])
             for f in (canonical_phase_pa, ref_canonical)]
    moments = [[(e.mean(), e.std() / math.sqrt(len(e))),
                (e.var(ddof=1), math.sqrt(np.var((e - e.mean()) ** 2, ddof=1) / len(e)))]
               for e in forms]
    for got, other in zip(*moments):
        assert abs(got[0] - other[0]) < 4 * math.hypot(got[1], other[1])
    for form in moments:
        for (value, sd), want in zip(form, exact):
            assert abs(value - want) < 4 * sd


@pytest.mark.parametrize("trials", [1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_resend_matches_complex_form(trials):
    expected = ref_resend(trials, trials)
    assert heterodyne_resend_pa(5.0, trials, trials) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("M", [4, 8, 12, 60, 192, 1024])
def test_ring_offsets_match_choice(M):
    srm = ring_tables(M).srm
    expected = np.random.default_rng(M).choice(M, size=200_000, p=srm)
    u = np.random.default_rng(M).random(200_000)
    assert np.array_equal(ring_tables(M).draw_offset(u), expected)


pmf_entries = st.one_of(st.just(0.0), st.floats(1e-15, 1e-9), st.floats(1e-6, 1.0))


@given(pmf=st.lists(pmf_entries, min_size=1, max_size=300).filter(lambda p: sum(p) > 0),
       seed=st.integers(0, 2**32 - 1))
def test_search_matches_searchsorted(pmf, seed):
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    search = CdfSearch(cdf)
    edges = np.arange(int(search._scale)) / search._scale
    u = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0), np.random.default_rng(seed).random(1000),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(search(u), np.searchsorted(cdf, u, side="right"))


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
    (lambda: sequential_strategy_pc(64, 1_000_000, 5), 16 * 2**20),
    (lambda: canonical_phase_pa(5.0, 4096, 10**12, 5), 4 * 2**20),
    (lambda: heterodyne_pa(5.0, 4096, 10**7, 5), 8 * 2**20),
    (lambda: heterodyne_resend_pa(5.0, 10**7, 5), 8 * 2**20),
    (lambda: random_basis_strategy(64, 10**7, 5), 8 * 2**20),
], ids=["aki", "opaque", "canonical", "heterodyne", "resend", "random-basis"])
def test_kernels_stay_small(kernel, bound):
    # the one-shot forms peak at 57.2 and 46.8 MiB, at 7.3 TiB for canonical,
    # and at 157.5, 77.8 and 544.3 MiB for heterodyne, resend and random-basis
    ring_tables(64)
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
