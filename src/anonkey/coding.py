"""Classical coding for the key-distribution sessions.

Two independent pieces: a Hamming(7,4) code used bit-for-bit on the qubit
stream so single flips per block are repaired without reconciliation, and a
binary Toeplitz hash for privacy amplification of the sifted bits.
"""

from __future__ import annotations

import numpy as np

CODES = ("none", "hamming74")

# Hamming(7,4), 1-indexed codeword layout [p1 p2 d1 p3 d2 d3 d4]:
# parity bits sit at positions 1, 2, 4 and the syndrome is the (1-based)
# position of a single flipped bit.
_DATA_POS = np.array([2, 4, 5, 6])  # 0-based positions of d1..d4
_PARITY_POS = np.array([0, 1, 3])
# check matrix rows: positions whose 1-based index has bit 1, 2, 4 set
_CHECKS = [
    np.array([0, 2, 4, 6]),
    np.array([1, 2, 5, 6]),
    np.array([3, 4, 5, 6]),
]


def _as_bits(bits) -> np.ndarray:
    a = np.asarray(bits)
    if a.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    a = a.astype(np.uint8)
    if np.any(a > 1):
        raise ValueError("bit sequence must contain only 0 and 1")
    return a


def hamming74_encode(data) -> np.ndarray:
    """Encode data bits (length multiple of 4) into 7-bit codewords."""
    d = _as_bits(data)
    if len(d) % 4 != 0:
        raise ValueError(f"data length {len(d)} is not a multiple of 4")
    words = d.reshape(-1, 4)
    code = np.zeros((words.shape[0], 7), dtype=np.uint8)
    code[:, _DATA_POS] = words
    for row, check in zip(_PARITY_POS, _CHECKS):
        code[:, row] = np.bitwise_xor.reduce(code[:, check], axis=1)
    return code.reshape(-1)


def hamming74_decode(received) -> tuple[np.ndarray, int]:
    """Decode 7-bit blocks, correcting one flip per block.

    Returns the data bits and the number of corrected blocks.
    """
    r = _as_bits(received)
    if len(r) % 7 != 0:
        raise ValueError(f"received length {len(r)} is not a multiple of 7")
    code = r.reshape(-1, 7).copy()
    syndrome = np.zeros(code.shape[0], dtype=np.int64)
    for bit, check in enumerate(_CHECKS):
        syndrome += (np.bitwise_xor.reduce(code[:, check], axis=1).astype(np.int64)) << bit
    flagged = np.flatnonzero(syndrome)
    code[flagged, syndrome[flagged] - 1] ^= 1
    return code[:, _DATA_POS].reshape(-1), int(len(flagged))


def cecc_encode(data, code: str = "hamming74") -> np.ndarray:
    """Encode data bits with the named code ("none" passes through)."""
    if code == "none":
        return _as_bits(data).copy()
    if code == "hamming74":
        return hamming74_encode(data)
    raise ValueError(f"unknown code {code!r}; choose from {CODES}")


def cecc_decode(received, code: str = "hamming74") -> tuple[np.ndarray, int]:
    """Decode bits with the named code; returns (data, corrected_count)."""
    if code == "none":
        return _as_bits(received).copy(), 0
    if code == "hamming74":
        return hamming74_decode(received)
    raise ValueError(f"unknown code {code!r}; choose from {CODES}")


def code_rate(code: str) -> float:
    if code == "none":
        return 1.0
    if code == "hamming74":
        return 4.0 / 7.0
    raise ValueError(f"unknown code {code!r}; choose from {CODES}")


def privacy_amplify(bits, hash_seed: int, out_len: int) -> np.ndarray:
    """Compress bits with a seeded binary Toeplitz matrix over GF(2).

    The matrix is derived deterministically from ``hash_seed``: a strip of
    ``in + out - 1`` random bits defines every diagonal, and the output is
    the matrix-vector product mod 2.  Linear, so equal inputs under the same
    seed always hash identically.
    """
    x = _as_bits(bits)
    n = len(x)
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length {out_len} must be between 0 and {n}")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    strip = np.random.default_rng(hash_seed).integers(0, 2, size=n + out_len - 1, dtype=np.uint8)
    i = np.arange(out_len)[:, None]
    j = np.arange(n)[None, :]
    t = strip[i - j + n - 1]
    return (t @ x % 2).astype(np.uint8)
