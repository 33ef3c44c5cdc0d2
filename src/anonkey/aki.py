"""Anonymous-key identification: challenge, response, verification.

The verifier (Adam) stores a key qubit whose preparation phase ``phi_b`` he
does not know; only the legitimate prover (Babe) knows it.  A round rotates
the audited stored key (:class:`SecretCirclePhase`) by a fresh random phase
``phi_a`` (:func:`aki_challenge`, which never reads ``phi_b``); the prover
removes ``phi_b`` (:meth:`SecretCirclePhase.remove_phase`) and returns the
bare ``phi_a`` state, which the verifier checks with a one-shot projection
(:func:`aki_verify`).  An impersonator who must fabricate the
response from a measured estimate of the key phase is accepted on one qubit
with probability equal to the acceptance bound of the ring detector (3/4 at
M = 4), so m qubits push the cheat rate to that value to the m-th power.

The random challenge phase is what blocks a replay of the fixed reference
state: returning the phase-zero state against random challenges is accepted
only half the time.
"""

from __future__ import annotations

import math

import numpy as np

from .detection import ring_tables
from .detection import square_root_measurement  # noqa: F401 - benchmarks/tracing.py patches it here
from .harness import binomial_fraction, require_angle, require_count
from .states import DensityOperator, circle_state_at, overlap, require_ring_size, rotate_circle
from .states import uniform_circle_ensemble  # noqa: F401 - benchmarks/tracing.py patches it here

_TWO_PI = 2.0 * math.pi
_EXACT_ATOL = 1e-12


class SecretCirclePhase:
    """Audited holder for a stored key state's preparation phase.

    The simulator stands in for quantum memory with the classical phase; this
    wrapper keeps honest code honest.  Physical operations on the stored
    qubit (modulating a challenge) and the prover's own use of her knowledge
    (removing the phase) are allowed and logged; any outright read of the
    phase must go through :meth:`reveal` and lands in the audit log, so tests
    can assert the verifier never peeked.
    """

    __slots__ = ("_phase", "audit_log")

    def __init__(self, phase: float) -> None:
        require_angle("phase", phase)
        self._phase = float(phase) % _TWO_PI
        self.audit_log: list[tuple[str, str]] = []

    def modulated_state(self, phi_a: float) -> DensityOperator:
        """Rotate the stored qubit by ``phi_a``; a physical operation."""
        self.audit_log.append(("modulate", ""))
        return circle_state_at(self._phase + phi_a)

    def remove_phase(self, state: DensityOperator) -> DensityOperator:
        """Prover-side unwinding of the key phase."""
        self.audit_log.append(("remove", ""))
        return rotate_circle(state, -self._phase)

    def reveal(self, purpose: str) -> float:
        """Read the phase outright; always audited."""
        self.audit_log.append(("reveal", purpose))
        return self._phase


def aki_challenge(key: SecretCirclePhase, rng: np.random.Generator,
                  M: int = 4) -> tuple[float, DensityOperator]:
    """Rotate the stored key by a phase ``phi_a`` drawn uniformly from the M-point
    ring; returns ``(phi_a, sent_state)`` without reading the key phase."""
    require_ring_size(M)
    phi_a = _TWO_PI * int(rng.integers(0, M)) / M
    return phi_a, key.modulated_state(phi_a)


def aki_verify(returned: DensityOperator, phi_a: float, rng: np.random.Generator) -> bool:
    """Sample the projection onto the expected challenge state.

    Outcome probabilities within 1e-12 of 0 or 1 are snapped exact, so the
    honest noiseless round accepts with probability one rather than
    one-minus-rounding-error.
    """
    require_angle("phi_a", phi_a)
    p = overlap(returned, circle_state_at(phi_a))
    p = min(max(p, 0.0), 1.0)
    if p >= 1.0 - _EXACT_ATOL:
        return True
    if p <= _EXACT_ATOL:
        return False
    return bool(rng.random() < p)


def run_honest_aki_round(key: SecretCirclePhase, rng: np.random.Generator, M: int = 4) -> bool:
    """One full honest round against an audited key: never reads the phase."""
    phi_a, sent = aki_challenge(key, rng, M)
    return aki_verify(key.remove_phase(sent), phi_a, rng)


def aki_impersonation(m: int, M: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo acceptance of the optimal measure-and-respond cheat.

    The impersonator measures a copy of the key state with the optimal ring
    detector and answers the challenge rotated by minus the estimate, so her
    response misses the expected state by exactly her estimation error.  A
    round accepts with probability ``srm @ ov`` and a session only if all ``m``
    independent rounds accept, so the count of accepted sessions is one draw
    ``rng.binomial(trials, (srm @ ov) ** m)``: the per-trial law, in O(M)
    whatever ``trials`` and ``m`` are.

    Returns
    -------
    (estimate, stderr)
    """
    require_count("m", m)
    tables = ring_tables(M)  # refuses a bad M
    p = float(tables.srm @ tables.ov) ** m  # all m rounds accept
    return binomial_fraction(p, trials, seed)
