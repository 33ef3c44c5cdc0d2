"""Optimal quantum detection for the protocol ensembles.

Implements the square-root measurement for symmetric pure-state ensembles,
the binary Helstrom test, the standard necessary-and-sufficient optimality
certificate, and the acceptance-probability figure of merit

    P_a = sum_{l,l'} p_l * tr(Pi_l' rho_l) * tr(rho_l rho_l')

which scores an interceptor who measures, re-prepares the estimated state,
and must pass the sender's verification.  For the uniform ring of M states
the square-root measurement identifies the state with probability 2/M and is
accepted with probability 3/4 for every M; pure guessing scores 1/2.

A :class:`Povm` holds its elements as one read-only ``(n, d, d)`` array,
validated once at construction.  Sums over the stack axis run in stack
order (``.sum(0)``), matching element-by-element sums to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harness import binomial_stderr, is_real, require_count, require_probability, seeded_rng
from .states import (
    ATOL,
    DensityOperator,
    Ensemble,
    checked_stack,
    circle_states,
    require_ring_size,
    uniform_circle_ensemble,
)

COMPLETENESS_ATOL = 1e-8
SUPPORT_CUTOFF = 1e-12
OPTIMALITY_ATOL = 1e-7


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure, held as one stacked read-only array.

    ``elements`` (an ``(n, d, d)`` array or a sequence of matrices) must be
    Hermitian and PSD within 1e-9 and sum to the identity within 1e-8.
    """

    elements: np.ndarray

    def __post_init__(self) -> None:
        els = checked_stack(self.elements, "POVM element {i}")
        if not np.allclose(els.sum(0), np.eye(els.shape[1]), atol=COMPLETENESS_ATOL, rtol=0.0):
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DetectionReport:
    """Summary of one detection problem: who wins, and by how much."""

    pc: float
    pa: float
    povm: Povm
    certified_optimal: bool

    def __post_init__(self) -> None:
        # computed probabilities: a real number in [0, 1] within ATOL
        for name, value in (("pc", self.pc), ("pa", self.pa)):
            if not (is_real(value) and -ATOL <= value <= 1.0 + ATOL):
                raise ValueError(f"{name} must be a probability, got {value!r}")


def _real_traces(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=1, axis2=2).real


def square_root_measurement(e: Ensemble) -> Povm:
    """Square-root measurement S^(-1/2) p_i rho_i S^(-1/2), S = sum p_i rho_i.

    For symmetric pure-state ensembles with uniform priors this is the
    minimum-error measurement.  If the ensemble does not span the space a
    trailing element covering the orthogonal complement is appended so the
    returned POVM is complete; outcome ``i < len(states)`` still means
    "state i".
    """
    weighted = e.weighted()
    w, v = np.linalg.eigh(weighted.sum(0))  # trace 1, so never rank zero
    on_support = w > SUPPORT_CUTOFF
    inv = np.where(on_support, 1.0 / np.sqrt(np.maximum(w, SUPPORT_CUTOFF)), 0.0)
    s_inv = (v * inv) @ v.conj().T
    elements = s_inv @ weighted @ s_inv
    complement = np.eye(e.dim) - (v * on_support) @ v.conj().T
    if np.linalg.norm(complement) > COMPLETENESS_ATOL:
        elements = np.concatenate((elements, complement[None]))
    return Povm(elements)


def uniform_guess_povm(n: int, dim: int) -> Povm:
    """The n-outcome POVM I/n on ``dim`` dimensions: reporting an estimate without measuring."""
    require_count("n", n)
    require_count("dim", dim)
    return Povm(np.broadcast_to(np.eye(dim, dtype=complex) / n, (n, dim, dim)))


def _check_sizes(e: Ensemble, m: Povm) -> None:
    if m.dim != e.dim:
        raise ValueError("POVM and ensemble dimensions differ")
    if m.size < e.size:
        raise ValueError(f"POVM has {m.size} elements for {e.size} states")


def correct_id_probability(e: Ensemble, m: Povm) -> float:
    """Probability sum_i p_i tr(Pi_i rho_i) that outcome i hits state i."""
    _check_sizes(e, m)
    hits = e.priors * _real_traces(m.elements[: e.size] @ e.states)
    return float(hits.cumsum()[-1])  # summed in stack order


def acceptance_probability(e: Ensemble, m: Povm) -> float:
    """Probability that the re-prepared estimate passes verification.

    Outcome ``l'`` of the POVM means the interceptor re-prepares state
    ``rho_l'`` of the ensemble; the sender's check then succeeds with
    probability ``tr(rho_l rho_l')``.  The double sum over ``(l, l')`` is
    evaluated as ``tr[(sum_l' Pi_l' (x) rho_l')(sum_l p_l rho_l (x) rho_l)]``,
    which is linear in the ensemble size.
    """
    _check_sizes(e, m)
    # index pairs (a, b) and (c, d) of the two tensor factors; the traces
    # pair Pi[a, b] with rho[b, a] and rho'[c, d] with rho[d, c]
    measured = np.einsum("jab,jcd->abcd", m.elements[: e.size], e.states)
    prepared = np.einsum("i,iba,idc->abcd", e.priors, e.states, e.states)
    return float(np.real(np.sum(measured * prepared)))


def helstrom_binary(
    rho0: DensityOperator, rho1: DensityOperator, p0: float
) -> tuple[Povm, float]:
    """Optimal two-outcome test between rho0 (prior p0) and rho1.

    Projects onto the positive/nonpositive eigenspaces of
    ``p0 rho0 - (1-p0) rho1``; zero eigenvalues are assigned to outcome 1
    (the optimal value does not depend on the tie rule).  Returns the
    projective POVM and the optimal success probability.
    """
    if rho0.dim != rho1.dim:
        raise ValueError("states must share one dimension")
    require_probability("p0", p0)
    gamma = p0 * rho0.matrix - (1.0 - p0) * rho1.matrix
    w, v = np.linalg.eigh(gamma)
    positive = w > SUPPORT_CUTOFF
    pi0 = (v * positive) @ v.conj().T
    pi1 = np.eye(rho0.dim) - pi0
    povm = Povm((pi0, pi1))
    pc = p0 * np.real(np.trace(pi0 @ rho0.matrix)) + (1.0 - p0) * np.real(
        np.trace(pi1 @ rho1.matrix)
    )
    return povm, float(pc)


def certify_optimality(e: Ensemble, m: Povm) -> bool:
    """Check the standard optimality conditions for minimum-error detection.

    ``Y = sum_j p_j rho_j Pi_j`` must be Hermitian, and ``Y - p_j rho_j``
    must be PSD for every j (one batched ``eigvalsh``), both within
    ``OPTIMALITY_ATOL``.  Together they are necessary and sufficient.
    """
    _check_sizes(e, m)
    weighted = e.weighted()
    y = (weighted @ m.elements[: e.size]).sum(0)
    if not np.allclose(y, y.conj().T, atol=OPTIMALITY_ATOL, rtol=0.0):
        return False
    y = (y + y.conj().T) / 2
    return bool(np.linalg.eigvalsh(y - weighted).min() >= -OPTIMALITY_ATOL)


def evaluate_detection(e: Ensemble) -> DetectionReport:
    """Build the square-root measurement of ``e`` and score it: ``pc``, ``pa``
    and whether it passes :func:`certify_optimality`."""
    m = square_root_measurement(e)
    return DetectionReport(
        pc=correct_id_probability(e, m),
        pa=acceptance_probability(e, m),
        povm=m,
        certified_optimal=certify_optimality(e, m),
    )


class RingTables(NamedTuple):
    """Exact per-qubit probability tables for ring size ``M`` (read-only).

    * ``ov[d]`` - overlap tr(rho_l rho_{l+d}) between ring states d apart.
    * ``decrypt_p0[d]`` - probability that the decrypt measurement for an
      expected state ``l`` yields bit 0 when the returned qubit actually sits
      at ``l + d``; the bit-0 basis state is the expected state rotated
      +M/4 steps.
    * ``srm[d]`` - probability that the optimal ring detector reports an
      offset of d steps from the true state.
    * ``q`` - the quarter-turn M/4 in ring steps.
    * ``cdf`` - ``srm.cumsum()`` normalised as ``rng.choice(M, p=srm)`` normalises
      it, so ``cdf.searchsorted(u, side="right")`` maps uniforms ``u`` to offsets
      exactly as that draw does; the in-session opaque interceptor of
      :mod:`anonkey.protocol` reads it.
    """

    ov: np.ndarray
    decrypt_p0: np.ndarray
    srm: np.ndarray
    q: int
    cdf: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 must not hit the entry for 4
def ring_tables(M: int) -> RingTables:
    """The ring tables for ``M``, derived once from the density-operator algebra.

    Closed forms: ``ov[d] = cos^2(pi d/M)``, ``decrypt_p0[d] = ov[d - M/4]``
    and ``srm[d] = (2/M) cos^2(pi d/M)``.
    """
    require_ring_size(M)
    q = M // 4
    rho = circle_states(np.arange(M), M)
    ov = _real_traces(rho[0] @ rho)
    decrypt_p0 = _real_traces(rho @ rho[q])
    ring = uniform_circle_ensemble(M)
    srm = square_root_measurement(ring)
    # uniform ring: p(report offset d) is l-independent; evaluate at the
    # ensemble's first state, whose outcome d is offset d
    srm_pmf = np.clip(_real_traces(srm.elements[:M] @ ring.states[0]), 0.0, None)
    srm_pmf = srm_pmf / srm_pmf.sum()
    cdf = srm_pmf.cumsum()
    cdf /= cdf[-1]  # normalized as rng.choice does
    for a in (ov, decrypt_p0, srm_pmf, cdf):
        a.setflags(write=False)
    return RingTables(ov=ov, decrypt_p0=decrypt_p0, srm=srm_pmf, q=q, cdf=cdf)


def random_basis_strategy(M: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo acceptance of the random-orthogonal-basis interceptor.

    The interceptor picks ``k`` uniformly, measures the orthogonal basis
    formed by ring states ``k`` and ``k + M/2`` (the antipodal pair), and
    re-prepares the outcome state.  Works without knowledge of ``M``:
    the acceptance is 3/4 on the ring for every M.  A trial accepts with a
    probability that depends only on the uniform offset ``d = k - true``, so
    the count of accepted trials is one draw ``rng.binomial(trials, p)``,
    ``p = mean(ov^2 + (1 - ov) ov[d + M/2])``: the per-trial law, in O(M)
    whatever ``trials`` is.

    Returns
    -------
    (estimate, stderr)
        Fraction of accepted trials and its binomial standard error.
    """
    require_count("trials", trials)
    rng = seeded_rng("seed", seed)
    ov = ring_tables(M).ov  # refuses a bad M
    # the basis reports k with probability ov[d], then the check accepts with
    # ov[d]; otherwise it reports k + M/2, half a turn from k
    p = float(np.mean(ov * ov + (1.0 - ov) * np.roll(ov, -(M // 2))))
    est = int(rng.binomial(trials, p)) / trials
    return est, binomial_stderr(est, trials)
