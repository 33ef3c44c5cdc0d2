"""Eve's attack families and their exact probability analyses.

Three attacks matter for the key sessions: guessing the secret block orders
outright (impersonation), intercept-resend with the optimal ring detector
(opaque), and weak tapping of both channel legs (translucent).  This module
holds the closed-form and Monte Carlo analyses; the in-session realizations
live in :mod:`anonkey.protocol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import helstrom_binary, ring_tables
from .detection import square_root_measurement  # noqa: F401 - benchmarks/tracing.py patches it here
from .harness import binomial_stderr
from .states import DensityOperator, circle_state, require_ring_size, tensor
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here


@dataclass(frozen=True)
class AttackReport:
    """Attack-side statistics, embedded into session transcripts."""

    strategy: str
    per_qubit_success: float = 0.0
    deterministic_bits: int = 0
    shannon_bits: float = 0.0
    order_guess_distribution: tuple = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_qubit_success <= 1.0:
            raise ValueError("per_qubit_success must be a probability")
        if self.shannon_bits < 0.0:
            raise ValueError("shannon_bits must be nonnegative")


def binary_entropy(p: float) -> float:
    """Binary entropy in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def impersonation_order_pmf(k: int) -> np.ndarray:
    """PMF of guessing q of k block orders right; success rate 1/4 each.

    Binomial(k, 1/4): each block's two secret order bits are fresh, so the
    all-or-nothing per-block success probability is 1/4 and full-session
    impersonation is exponentially unlikely in k.

    Computed exactly in integers, ``p_q = C(k, q) 3^(k-q) / 4^k``, with the
    terms ``t_q = C(k, q) 3^(k-q)`` from the recurrence ``t_0 = 3^k``,
    ``t_(q+1) = t_q (k - q) / (3 (q + 1))``.  Integer true division rounds
    correctly, so no term overflows or loses precision at any k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    denom = 4**k
    t = 3**k
    pmf = np.empty(k + 1)
    for q in range(k + 1):
        pmf[q] = t / denom
        t = t * (k - q) // (3 * (q + 1))
    return pmf


def two_copy_states(M: int) -> tuple[DensityOperator, DensityOperator]:
    """The two-qubit hypothesis states seen by an opaque interceptor.

    Granting Eve one copy of the outgoing ring state and one copy of the
    correctly modulated return, bit j presents the average over the ring of
    ``rho(l) (x) rho(l +- M/4)`` (bit 0 rotates up the circle, bit 1 down).
    """
    require_ring_size(M)
    q = M // 4
    dim = 4
    acc0 = np.zeros((dim, dim), dtype=complex)
    acc1 = np.zeros((dim, dim), dtype=complex)
    for ell in range(M):
        first = circle_state(ell, M)
        acc0 += tensor(first, circle_state(ell + q, M)).matrix / M
        acc1 += tensor(first, circle_state(ell - q, M)).matrix / M
    return DensityOperator(acc0), DensityOperator(acc1)


def opaque_bound(M: int) -> float:
    """Optimal two-copy success probability for reading the modulated bit.

    The binary test between the two averaged product states; equals the
    single-copy acceptance probability 3/4 for every ring size.
    """
    rho0, rho1 = two_copy_states(M)
    _, pc = helstrom_binary(rho0, rho1, 0.5)
    return pc


def sequential_strategy_pc(M: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo success of the two-step interceptor.

    Step one measures the optimal ring detector on the outgoing copy; step
    two asks whether the returned copy sits a quarter-turn up or down from
    the estimate (an orthogonal-basis test).  Matches the joint two-copy
    optimum.

    Returns
    -------
    (estimate, stderr)
    """
    require_ring_size(M)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    tables = ring_tables(M)
    q, ov = tables.q, tables.ov

    ell = rng.integers(0, M, size=trials)
    j = rng.integers(0, 2, size=trials)
    est = (ell + rng.choice(M, size=trials, p=tables.srm)) % M
    modulated = (ell + q * (1 - 2 * j)) % M
    # the basis state meaning "bit 0" lies a quarter-turn up from the estimate
    p_bit0 = ov[(modulated - (est + q)) % M]
    decided = (rng.random(trials) >= p_bit0).astype(np.int64)
    success = decided == j
    p = float(np.mean(success))
    return p, binomial_stderr(p, trials)


def translucent_accounting(k: int, pa: float) -> tuple[int, float]:
    """Loose information bound for the both-leg tap over 8k qubits.

    A quarter of the blocks are order-guessed and leak their bits outright
    (2k deterministic bits); the rest leak at the capacity of a binary
    symmetric channel whose success rate is the two-copy optimum ``pa``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.5 <= pa <= 1.0:
        raise ValueError("pa must lie in [0.5, 1]")
    deterministic = 2 * k
    shannon = 6.0 * k * (1.0 - binary_entropy(pa))
    return deterministic, shannon


def joint_attack_factorization_check(M: int, n_bits: int = 2) -> bool:
    """Does the optimal joint attack on a block factorize into per-bit attacks?

    For ``n_bits = 2`` the four block hypotheses are products of the
    two-copy states, all priors equal.  The bit-error-sum optimum over joint
    measurements is bounded below by the per-bit binary tests on the joint
    space (each marginal problem carries an identical spectator factor), and
    that bound is attained by the product of single-bit optima; the check
    compares the two numerically via the four-outcome product measurement.
    """
    if n_bits == 1:
        return True
    if n_bits != 2:
        raise ValueError("only one- and two-bit blocks are supported")
    rho0, rho1 = two_copy_states(M)
    _, single = helstrom_binary(rho0, rho1, 0.5)

    # marginal problems on the 16-dimensional joint space: the other bit's
    # factor averages to the same spectator state under both hypotheses
    tau = DensityOperator((rho0.matrix + rho1.matrix) / 2)
    _, joint_bit1 = helstrom_binary(tensor(rho0, tau), tensor(rho1, tau), 0.5)
    _, joint_bit2 = helstrom_binary(tensor(tau, rho0), tensor(tau, rho1), 0.5)
    best_joint_errsum = (1.0 - joint_bit1) + (1.0 - joint_bit2)

    # exhaustive enumeration of the product measurement's four outcomes
    povm, _ = helstrom_binary(rho0, rho1, 0.5)
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
