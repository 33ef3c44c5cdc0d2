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
validated once at construction.  No figure loops over the stack or multiplies
it matrix by matrix: each contracts it in one ``einsum`` or one 2-D product,
within 1e-15 of the element-by-element sums, and the PSD checks run one
Cholesky factorization per chunk of the stack (:func:`anonkey.states.psd_faults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harness import binomial_fraction, is_real, require_count, require_probability
from .states import (
    ATOL,
    DensityOperator,
    Ensemble,
    checked_stack,
    psd_faults,
    require_ring_size,
    stack_chunks,
)
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here

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
        if not np.abs(els.sum(0) - np.eye(els.shape[1])).max() <= COMPLETENESS_ATOL:  # NaN fails
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


def _sandwich(s: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``s a s`` for every ``a`` of an ``(n, d, d)`` stack, as two 2-D products:
    ``(d, d) @ (d, n d)`` gives every ``s a`` side by side, ``(n d, d) @ (d, d)``
    multiplies them by ``s``.  Each entry sums the terms of the stacked ``s @ a @ s``,
    in its order."""
    n, d, _ = stack.shape
    left = s @ stack.transpose(1, 0, 2).reshape(d, n * d)  # [a, (i, c)] = (s stack_i)[a, c]
    return (left.reshape(d, n, d).transpose(1, 0, 2).reshape(n * d, d) @ s).reshape(n, d, d)


def square_root_measurement(e: Ensemble) -> Povm:
    """Square-root measurement S^(-1/2) p_i rho_i S^(-1/2), S = sum p_i rho_i.

    For symmetric pure-state ensembles with uniform priors this is the
    minimum-error measurement.  If the ensemble does not span the space a
    trailing element covering the orthogonal complement is appended so the
    returned POVM is complete; outcome ``i < len(states)`` still means
    "state i".

    Conditioning: built from density matrices, the elements are fixed only to
    about ``eps / lambda_min`` for the smallest eigenvalue of ``S`` above the
    1e-12 support cutoff.  An eigenvalue between that cutoff and about 1e-8 (two
    pure states 1e-4 rad apart) gives elements that fail the POVM checks, and
    this raises ``ValueError``.
    """
    weighted = e.weighted()
    w, v = np.linalg.eigh(weighted.sum(0))  # trace 1, so never rank zero
    on_support = w > SUPPORT_CUTOFF
    inv = np.where(on_support, 1.0 / np.sqrt(np.maximum(w, SUPPORT_CUTOFF)), 0.0)
    elements = _sandwich((v * inv) @ v.conj().T, weighted)
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
    hits = e.priors * np.einsum("nab,nba->n", m.elements[: e.size], e.states).real
    return float(hits.cumsum()[-1])  # summed in stack order


def acceptance_probability(e: Ensemble, m: Povm) -> float:
    """Probability that the re-prepared estimate passes verification.

    Outcome ``l'`` of the POVM means the interceptor re-prepares state
    ``rho_l'`` of the ensemble; the sender's check then succeeds with
    probability ``tr(rho_l rho_l')``.  The double sum over ``(l, l')`` is
    evaluated as ``tr[(sum_l' Pi_l' (x) rho_l')(sum_l p_l rho_l (x) rho_l)]``,
    which is linear in the ensemble size: each factor is one ``(n, d^2)^T @
    (n, d^2)`` product.
    """
    _check_sizes(e, m)
    n, d = e.size, e.dim
    # index pairs (a, b) and (c, d) of the two tensor factors; the traces
    # pair Pi[a, b] with rho[b, a] and rho'[c, d] with rho[d, c]
    rows = e.states.reshape(n, d * d)
    measured = np.einsum("ix,iy->xy", m.elements[:n].reshape(n, d * d), rows)  # [ab, cd]
    mixed = np.einsum("ix,iy->xy", e.priors[:, None] * rows, rows)  # [ba, dc]
    prepared = mixed.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    return float(np.sum(measured * prepared).real)


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

    ``Y = sum_j p_j rho_j Pi_j`` (one ``(d, n d) @ (n d, d)`` product) must be
    Hermitian, and ``Y - p_j rho_j`` must be PSD for every j
    (:func:`anonkey.states.psd_faults`, chunk by chunk), both within
    ``OPTIMALITY_ATOL``.  Together they are necessary and sufficient.
    """
    _check_sizes(e, m)
    weighted = e.weighted()
    n, d = e.size, e.dim
    y = weighted.transpose(1, 0, 2).reshape(d, n * d) @ m.elements[:n].reshape(n * d, d)
    if not np.abs(y - y.conj().T).max() <= OPTIMALITY_ATOL:  # NaN fails
        return False
    y = (y + y.conj().T) / 2
    chunks = stack_chunks(n, d)
    return not any(psd_faults(y - weighted[c], OPTIMALITY_ATOL).any() for c in chunks)


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
    * ``srm[d]`` - probability that the optimal ring detector reports an
      offset of d steps from the true state.
    * ``q`` - the quarter-turn M/4 in ring steps.
    * ``cdf`` - ``srm.cumsum()`` normalised as ``rng.choice(M, p=srm)`` normalises
      it, so ``cdf.searchsorted(u, side="right")`` maps uniforms ``u`` to offsets
      exactly as that draw does; the in-session opaque interceptor of
      :mod:`anonkey.protocol` reads it.
    """

    ov: np.ndarray
    srm: np.ndarray
    q: int
    cdf: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 must not hit the entry for 4
def ring_tables(M: int) -> RingTables:
    """The ring tables for ``M``, from their closed forms in O(M).

    ``ov[d] = cos^2(pi d/M)`` and ``srm[d] = (2/M) cos^2(pi d/M)``, the square-root
    measurement being the optimal detector of the symmetric pure-state ring (Eldar
    and Forney, IEEE Trans. Inf. Theory 47, 858 (2001)); ``srm`` is ``ov`` over its
    sum.  The tests check both against the density-operator algebra.
    """
    require_ring_size(M)
    ov = np.cos(np.pi * np.arange(M) / M) ** 2
    srm = ov / ov.sum()
    cdf = srm.cumsum()
    cdf /= cdf[-1]  # normalized as rng.choice does
    for a in (ov, srm, cdf):
        a.setflags(write=False)
    return RingTables(ov=ov, srm=srm, q=M // 4, cdf=cdf)


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
    ov = ring_tables(M).ov  # refuses a bad M
    # the basis reports k with probability ov[d], then the check accepts with
    # ov[d]; otherwise it reports k + M/2, half a turn from k
    p = float(np.mean(ov * ov + (1.0 - ov) * np.roll(ov, -(M // 2))))
    return binomial_fraction(p, trials, seed)
