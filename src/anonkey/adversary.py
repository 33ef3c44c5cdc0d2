"""Eve's attack families and their exact probability analyses.

Three attacks matter for the key sessions: guessing the secret block orders
outright (impersonation), intercept-resend with the optimal ring detector
(opaque), and weak tapping of both channel legs (translucent).  This module
holds the closed-form and Monte Carlo analyses; the in-session realizations
live in :mod:`anonkey.protocol`.  The order-guess PMF is O(k) and within ``8 eps (k +
|log p_q|)`` relative of exact; :data:`MAX_ORDER_BLOCKS` bounds its k + 1 rows, not its time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .detection import helstrom_binary, ring_tables
from .detection import square_root_measurement  # noqa: F401 - benchmarks/tracing.py patches it here
from .harness import (binomial_stderr, is_integer, log_poisson, require_count,
                      require_probability, seeded_rng)
from .states import DensityOperator, circle_states, require_ring_size, tensor
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here

#: Blocks of :func:`impersonation_order_pmf`, at most: k + 1 rows, 119 MiB of peak RSS in
#: ``attack``; it admits the 229376 blocks of the largest session (``protocol.MAX_K``, Hamming).
MAX_ORDER_BLOCKS = 1 << 18


def binary_entropy(p: float) -> float:
    """Binary entropy in bits."""
    require_probability("p", p)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def require_order_blocks(k: int) -> None:
    """Raise unless the block count ``k`` is an integer in ``[1, MAX_ORDER_BLOCKS]``."""
    if not (is_integer(k) and 1 <= k <= MAX_ORDER_BLOCKS):
        raise ValueError(f"k must be an integer in [1, 2**18], got {k!r}")


@lru_cache(maxsize=64, typed=True)  # typed: 4.0 and True must not hit 4 and 1
def impersonation_order_pmf(k: int) -> np.ndarray:
    """PMF of guessing q of k block orders right; success rate 1/4 each.

    Binomial(k, 1/4): each block's two secret order bits are fresh, so the
    all-or-nothing per-block success probability is 1/4 and full-session
    impersonation is exponentially unlikely in k.

    Loader's identity ``b(q; k, p) = pi(q; k p) pi(k - q; k (1 - p)) / pi(k; k)``, ``pi`` the
    Poisson PMF of :func:`anonkey.harness.log_poisson`, in O(k).  Each normal entry is within
    ``8 eps (k + |log p_q|)`` relative of the exact ``C(k, q) 3^(k-q) / 4^k``, a subnormal one
    within 1e-300.  Cached per k and returned read-only.
    """
    require_order_blocks(k)
    q = np.arange(k + 1, dtype=float)
    pmf = np.exp(log_poisson(q, k / 4) + log_poisson(k - q, 3 * k / 4) - log_poisson(k, k))
    pmf.flags.writeable = False
    return pmf


def two_copy_states(M: int) -> tuple[DensityOperator, DensityOperator]:
    """The two-qubit hypothesis states seen by an opaque interceptor.

    Granting Eve one copy of the outgoing ring state and one copy of the
    correctly modulated return, bit j presents the average over the ring of
    ``rho(l) (x) rho(l +- M/4)`` (bit 0 rotates up the circle, bit 1 down).
    """
    require_ring_size(M)
    q = M // 4
    ell = np.arange(M)
    first = circle_states(ell, M)

    def ring_average(second: np.ndarray) -> DensityOperator:
        # per-ell Kronecker products, averaged in ring order
        kron = (first[:, :, None, :, None] * second[:, None, :, None, :]).reshape(M, 4, 4)
        return DensityOperator((kron / M).sum(0))

    return ring_average(circle_states(ell + q, M)), ring_average(circle_states(ell - q, M))


@lru_cache(maxsize=None, typed=True)
def opaque_bound(M: int) -> float:
    """Optimal two-copy success probability for reading the modulated bit.

    The binary test between the two averaged product states; equals the
    single-copy acceptance probability 3/4 for every ring size.  Cached per
    ``M``, like :func:`anonkey.detection.ring_tables`.
    """
    rho0, rho1 = two_copy_states(M)
    _, pc = helstrom_binary(rho0, rho1, 0.5)
    return pc


def sequential_strategy_pc(M: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo success of the two-step interceptor.

    Step one measures the optimal ring detector on the outgoing copy; step
    two asks whether the returned copy sits a quarter-turn up or down from
    the estimate (an orthogonal-basis test).  Matches the joint two-copy
    optimum.  A trial reads its uniform bit right with a probability that
    depends only on the bit and the detector offset, so the count of bits
    read right is one draw ``rng.binomial(trials, p)`` with ``p`` summed over
    the table: the per-trial law, in O(M) whatever ``trials`` is.

    Returns
    -------
    (estimate, stderr)
    """
    require_count("trials", trials)
    rng = seeded_rng("seed", seed)
    tables = ring_tables(M)  # refuses a bad M

    # bit j sits at ell + q(1 - 2j), the estimate at ell + d and "bit 0" a
    # quarter-turn up from it, so the test reads 0 with ov[(-2qj - d) % M]
    # whatever ell: bit 0 is read right with ov[-d], bit 1 with 1 - ov[-2q - d]
    d = np.arange(M)
    right = tables.ov[-d % M] + 1.0 - tables.ov[(-2 * tables.q - d) % M]
    p = 0.5 * float(tables.srm @ right)
    est = int(rng.binomial(trials, p)) / trials
    return est, binomial_stderr(est, trials)


def translucent_accounting(k: int, pa: float) -> tuple[int, float]:
    """Loose information bound for the both-leg tap over 8k qubits.

    A quarter of the blocks are order-guessed and leak their bits outright
    (2k deterministic bits); the rest leak at the capacity of a binary
    symmetric channel whose success rate is the two-copy optimum ``pa``.
    """
    require_count("k", k)
    require_probability("pa", pa)
    if pa < 0.5:
        raise ValueError(f"pa must be at least 0.5, got {pa!r}")
    deterministic = 2 * k
    shannon = 6.0 * k * (1.0 - binary_entropy(pa))
    return deterministic, shannon


def joint_attack_factorization_check(M: int) -> bool:
    """Does the optimal joint attack on a two-bit block factorize into per-bit attacks?

    The four block hypotheses are products of the two-copy states, all
    priors equal.  The bit-error-sum optimum over joint measurements is
    bounded below by the per-bit binary tests on the joint space (each
    marginal problem carries an identical spectator factor), and that bound
    is attained by the product of single-bit optima; the check compares the
    two numerically via the four-outcome product measurement.
    """
    rho0, rho1 = two_copy_states(M)
    povm, single = helstrom_binary(rho0, rho1, 0.5)

    # marginal problems on the 16-dimensional joint space: the other bit's
    # factor averages to the same spectator state under both hypotheses
    tau = DensityOperator((rho0.matrix + rho1.matrix) / 2)
    _, joint_bit1 = helstrom_binary(tensor(rho0, tau), tensor(rho1, tau), 0.5)
    _, joint_bit2 = helstrom_binary(tensor(tau, rho0), tensor(tau, rho1), 0.5)
    best_joint_errsum = (1.0 - joint_bit1) + (1.0 - joint_bit2)

    # exhaustive enumeration of the product measurement's four outcomes
    hyp = [tensor(a, b).matrix for a in (rho0, rho1) for b in (rho0, rho1)]
    errsum = 0.0
    for h_idx, h in enumerate(hyp):
        true_bits = (h_idx >> 1, h_idx & 1)
        for o1 in range(2):
            for o2 in range(2):
                element = np.kron(povm.elements[o1], povm.elements[o2])
                p = float(np.real(np.trace(element @ h)))
                errors = (o1 != true_bits[0]) + (o2 != true_bits[1])
                errsum += 0.25 * p * errors

    return abs(errsum - best_joint_errsum) < 1e-6 and abs(
        errsum - 2.0 * (1.0 - single)
    ) < 1e-6
