"""Finite-dimensional quantum state algebra for the anonymous-key protocols.

Everything else in the package is built from the objects defined here:
density operators with validated invariants, the ring of ``M`` phase states
on the (sigma_1, sigma_3) great circle of the Bloch sphere, the modulation
rotation about the sigma_2 axis, tensor products, overlaps, and ensembles
with prior probabilities.

An :class:`Ensemble` holds its states as one read-only ``(n, d, d)`` array,
validated once at construction by one batched pass (:func:`checked_stack`);
the scalar :class:`DensityOperator` is the API-edge type for single states.

Conventions
-----------
* A qubit density operator is ``rho = (I + r1*s1 + r2*s2 + r3*s3) / 2`` with
  real Bloch vector ``(r1, r2, r3)``: :func:`bloch_to_density` takes any
  length-3 sequence and :meth:`DensityOperator.bloch` returns a float array.
* Circle state ``ell`` (out of ``M``, a multiple of 4 up to :data:`MAX_RING_SIZE`
  = 2^20) is the pure state with Bloch vector ``(cos(2*pi*ell/M), 0,
  sin(2*pi*ell/M))``.  Indices are taken modulo ``M``; ``ell = M`` and
  ``ell = 0`` are the same reference state.
* ``rotate_circle(rho, a)`` advances the circle phase by ``+a`` radians, so a
  clockwise modulation step is a negative angle (index decreases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import is_integer, require_angle, require_count

ATOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
MAX_RING_SIZE = 1 << 20  # ring size M, at most: every ring entry point builds O(M) states


def require_ring_size(M: int) -> None:
    """Raise unless ``M`` is an integer, a positive multiple of 4 and at most
    :data:`MAX_RING_SIZE` (a valid ring size)."""
    if not (is_integer(M) and 0 < M <= MAX_RING_SIZE and M % 4 == 0):
        raise ValueError(f"M must be a positive multiple of 4 up to 2**20 (an integer), got {M!r}")


def checked_stack(mats, what: str, unit_trace: bool = False) -> np.ndarray:
    """Read-only copy of ``mats`` as an ``(n, d, d)`` stack, validated in one pass.

    Every matrix must be Hermitian within 1e-9, have eigenvalues >= -1e-9
    and, with ``unit_trace``, trace 1 within 1e-9; the error names the first
    failing matrix as ``what.format(i=index)``.
    """
    try:
        a = np.array(mats, dtype=complex)
    except ValueError:
        raise ValueError("stacked operators must share one dimension") from None
    if a.ndim != 3 or a.shape[1] != a.shape[2] or len(a) == 0:
        raise ValueError(f"expected a nonempty stack of square matrices, got shape {a.shape}")
    h = a.conj().swapaxes(1, 2)
    faults = {"is not Hermitian": ~(np.abs(a - h) <= ATOL).all(axis=(1, 2))}
    if unit_trace:
        faults["must have unit trace"] = ~(np.abs(np.trace(a, axis1=1, axis2=2) - 1.0) <= ATOL)
    faults["is not positive semidefinite"] = np.linalg.eigvalsh((a + h) / 2)[:, 0] < -ATOL
    bad = np.logical_or.reduce(list(faults.values()))
    if bad.any():
        i = int(bad.argmax())
        reason = next(r for r, f in faults.items() if f[i])
        raise ValueError(f"{what.format(i=i)} {reason}")
    a.setflags(write=False)
    return a


class DensityOperator:
    """A validated d x d density operator.

    The matrix is checked on construction for Hermiticity (1e-9), unit trace
    (1e-9) and positive semidefiniteness (eigenvalues >= -1e-9), and stored
    read-only so instances can be shared freely.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        self._matrix = checked_stack([matrix], "density operator", unit_trace=True)[0]

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        # fast path for operations that preserve validity algebraically
        # (unitary conjugation, convex mixtures, tensor products); the
        # public constructor stays fully validated
        self = object.__new__(cls)
        self._matrix = np.array(matrix, dtype=complex)
        self._matrix.setflags(write=False)
        return self

    @property
    def matrix(self) -> np.ndarray:
        """Read-only complex matrix."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # lets np.array stack a sequence of states into one (n, d, d) array
        return np.array(self._matrix, dtype=dtype, copy=copy)

    def bloch(self) -> np.ndarray:
        """Bloch vector ``(r1, r2, r3)`` of a qubit operator, as a float array."""
        if self.dim != 2:
            raise ValueError("bloch() is defined for qubits only")
        return np.array([np.real(np.trace(self._matrix @ s)) for s in PAULIS])

    def purity(self) -> float:
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityOperator(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior probabilities, held as stacked read-only arrays.

    ``states`` (an ``(n, d, d)`` array, or a sequence of matrices or
    :class:`DensityOperator` objects) must be density operators, and the
    length-``n`` ``priors`` nonnegative and summing to 1 within 1e-9.
    """

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self) -> None:
        states = checked_stack(self.states, "ensemble state {i}", unit_trace=True)
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (len(states),):
            raise ValueError("states and priors must have equal length")
        if (priors < -ATOL).any():
            raise ValueError("priors must be nonnegative")
        if not abs(priors.sum() - 1.0) <= ATOL:
            raise ValueError(f"priors must sum to 1, got {priors.sum()}")
        priors.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def weighted(self) -> np.ndarray:
        """The stack ``p_i rho_i``."""
        return self.priors[:, None, None] * self.states


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _bloch_stack(r: np.ndarray) -> np.ndarray:
    """Stack of (I + r.sigma)/2, one per row of an (n, 3) Bloch array."""
    norm = np.linalg.norm(r, axis=1)
    if not (norm <= 1.0 + ATOL).all():  # a NaN norm fails too
        raise ValueError(f"Bloch vector norm must be at most 1, got {norm.max()}")
    r = r[:, :, None, None]
    paulis = r[:, 0] * PAULI_X + r[:, 1] * PAULI_Y + r[:, 2] * PAULI_Z
    return 0.5 * (np.eye(2, dtype=complex) + paulis)


def bloch_to_density(r) -> DensityOperator:
    """Build the qubit density operator (I + r.sigma)/2.

    ``r`` is a length-3 sequence; raises unless its norm is at most 1 + 1e-9.
    """
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    return DensityOperator._trusted(_bloch_stack(vec[None])[0])


def circle_state_at(phase: float) -> DensityOperator:
    """Pure state at an arbitrary finite phase on the (sigma_1, sigma_3) circle."""
    require_angle("phase", phase)
    return bloch_to_density((math.cos(phase), 0.0, math.sin(phase)))


def circle_state(ell: int, M: int) -> DensityOperator:
    """Ring state ``ell`` of the ``M`` uniformly spaced great-circle states."""
    return DensityOperator._trusted(circle_states([ell], M)[0])


def circle_states(ells, M: int) -> np.ndarray:
    """Ring states ``ells`` (integers, taken modulo ``M``) as an (n, 2, 2) stack."""
    require_ring_size(M)
    phase = 2.0 * math.pi * (np.asarray(ells) % M) / M
    return _bloch_stack(np.stack([np.cos(phase), np.zeros_like(phase), np.sin(phase)], axis=1))


def rotation_unitary(angle: float) -> np.ndarray:
    """Unitary advancing the circle phase by ``+angle``.

    This is the Bloch rotation about the sigma_2 axis: real orthogonal on the
    qubit amplitudes, mapping circle state ``ell`` to ``ell + angle*M/(2*pi)``.
    """
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def rotate_circle(state: DensityOperator, angle: float) -> DensityOperator:
    """Rotate a qubit state by ``angle`` along the great circle.

    Positive angles increase the circle phase; the modulation steps of the
    key protocols are ``angle = +pi/2`` (bit 0) and ``-pi/2`` (bit 1).
    """
    if state.dim != 2:
        raise ValueError("rotate_circle acts on qubits")
    require_angle("angle", angle)
    u = rotation_unitary(angle)
    return DensityOperator._trusted(u @ state.matrix @ u.conj().T)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr(rho sigma); for pure qubits this equals (1 + r.r')/2."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return float(np.real(np.trace(rho.matrix @ sigma.matrix)))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two states."""
    return DensityOperator._trusted(np.kron(a.matrix, b.matrix))


def ensemble_mixture(e: Ensemble) -> DensityOperator:
    """Average state sum_i p_i rho_i of an ensemble."""
    return DensityOperator._trusted(e.weighted().sum(0))


# ---------------------------------------------------------------------------
# standard ensembles
# ---------------------------------------------------------------------------


def uniform_circle_ensemble(M: int) -> Ensemble:
    """The ``M`` ring states ``ell = 1..M`` with equal priors 1/M."""
    require_ring_size(M)
    return Ensemble(circle_states(np.arange(1, M + 1), M), np.full(M, 1.0 / M))


def six_state_ensemble() -> Ensemble:
    """The six Bloch-axis pole states (+-x, +-y, +-z) with equal priors."""
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return Ensemble(_bloch_stack(np.array(axes, dtype=float)), np.full(6, 1.0 / 6))


def sphere_grid_ensemble(n: int) -> Ensemble:
    """Quasi-uniform n-point covering of the Bloch sphere, equal priors.

    ``n = 6`` returns the exact axis poles; larger ``n`` uses a Fibonacci
    lattice.  Used to probe the full-sphere (continuum) limit numerically.
    """
    require_count("n", n)
    if n == 6:
        return six_state_ensemble()
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    r = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    return Ensemble(_bloch_stack(r), np.full(n, 1.0 / n))
