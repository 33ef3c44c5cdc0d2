"""The Monte Carlo kernels against their one-shot numpy formulations.

Each reference below is the plain form of a kernel: ``rng.choice`` for the
ring detector, per-trial complex exponentials for the heterodyne noise,
``np.mean`` and ``np.std`` over every trial.  The blocked kernels draw the
same streams in blocks and read small tables instead, and must return the
same floats; trial counts sit on both sides of the block size.  The
canonical phase draws its bin counts in one ``rng.multinomial`` call, so it
must match the per-trial acceptances those counts stand for, to rounding,
and its per-trial form ``rng.choice(M + 1, p=pmf)`` in distribution.
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
from anonkey.detection import ring_tables
from anonkey.harness import BLOCK, CdfSearch, binomial_stderr


def ref_aki(m, M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    delta = rng.choice(M, size=(trials, m), p=tables.srm)
    accepted = rng.random((trials, m)) < tables.ov[delta]
    p = float(np.mean(accepted.all(axis=1)))
    return p, binomial_stderr(p, trials)


def ref_opaque(M, trials, seed):
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    ell = rng.integers(0, M, size=trials)
    j = rng.integers(0, 2, size=trials)
    est = ell + rng.choice(M, size=trials, p=tables.srm)
    modulated = ell + tables.q * (1 - 2 * j)
    p_bit0 = tables.ov[(modulated - est - tables.q) % M]
    decided = (rng.random(trials) >= p_bit0).astype(np.int64)
    p = float(np.mean(decided == j))
    return p, binomial_stderr(p, trials)


def rounded_acceptance(alpha0, M, delta):
    step = 2.0 * math.pi / M
    dhat = np.round(delta / step) * step
    acc = np.exp(-2.0 * alpha0**2 * (1.0 - np.cos(dhat)))
    return float(np.mean(acc)), float(np.std(acc) / math.sqrt(len(acc)))


def ref_heterodyne(alpha0, M, trials, seed):
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * rng.integers(0, M, size=trials) / M
    noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / math.sqrt(2.0)
    beta = alpha0 * np.exp(1j * theta) + noise
    return rounded_acceptance(alpha0, M, np.angle(beta * np.exp(-1j * theta)))


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
    noise = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / math.sqrt(2.0)
    acc = np.exp(-np.abs(noise) ** 2)
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


@pytest.mark.parametrize("trials", [1, 2, BLOCK + 1])
@pytest.mark.parametrize("M", [4, 12, 4096])
@pytest.mark.parametrize("alpha0", [0.3, 2.5, 23.0])
def test_heterodyne_matches_exp_form(alpha0, M, trials):
    seed = M + trials
    assert heterodyne_pa(alpha0, M, trials, seed) == ref_heterodyne(alpha0, M, trials, seed)


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
    assert heterodyne_resend_pa(5.0, trials, trials) == ref_resend(trials, trials)


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


@pytest.mark.parametrize("kernel, bound", [
    (lambda: aki_impersonation(8, 4, 300_000, 5), 16 * 2**20),
    (lambda: sequential_strategy_pc(64, 1_000_000, 5), 16 * 2**20),
    (lambda: canonical_phase_pa(5.0, 4096, 10**12, 5), 4 * 2**20),
], ids=["aki", "opaque", "canonical"])
def test_kernels_stay_small(kernel, bound):
    # the one-shot forms peak at 57.2 and 46.8 MiB, and at 7.3 TiB for canonical
    ring_tables(64)
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
