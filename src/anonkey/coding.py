"""Classical coding for the key-distribution sessions.

Two independent pieces: a Hamming(7,4) code used bit-for-bit on the qubit
stream so single flips per block are repaired without reconciliation, and a
binary Toeplitz hash for privacy amplification of the sifted bits.  The code
is named by a string (:data:`CODES`): :func:`cecc_encode` encodes one row,
:func:`cecc_decode_rows` decodes a stack of rows (:func:`cecc_decode` one
row), both through small lookup tables built at import from the check
matrix.  The hash is evaluated as one FFT convolution of the seeded
strip with each input row, so it costs O(n log n) time and O(n) memory
instead of building the matrix; a run of sessions is hashed in one call,
each session's rows under its own strip.
"""

from __future__ import annotations

import numpy as np

CODES = ("none", "hamming74")

# Hamming(7,4), 1-indexed codeword layout [p1 p2 d1 p3 d2 d3 d4]: column i of
# the check matrix is the binary form of i + 1, so the syndrome of a single
# flip is its (1-based) position.  The code is perfect, so every 7-bit word
# lies within distance 1 of exactly one codeword: nearest-codeword decoding
# equals syndrome decoding, and both directions are table lookups.
_DATA_POS = np.array([2, 4, 5, 6])  # 0-based positions of d1..d4
_WEIGHTS = np.array([64, 32, 16, 8, 4, 2, 1])  # 7-bit word (first bit as MSB) -> index


def _lookup_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data word (d1 as MSB) -> codeword; received word -> data bits, corrected?"""
    words = (np.arange(128)[:, None] >> np.arange(6, -1, -1)) & 1
    check = (np.arange(1, 8) >> np.arange(3)[:, None]) & 1
    codewords = words[~np.any(words @ check.T % 2, axis=1)]
    distance = np.sum(words[:, None, :] != codewords[None, :, :], axis=2)
    nearest = np.argmin(distance, axis=1)
    encode = np.empty((16, 7), dtype=np.uint8)
    encode[codewords[:, _DATA_POS] @ _WEIGHTS[3:]] = codewords
    decode = codewords[nearest][:, _DATA_POS].astype(np.uint8)
    return encode, decode, distance[np.arange(128), nearest] == 1


_ENCODE, _DECODE, _CORRECTED = _lookup_tables()


def require_code(code: str) -> None:
    """Raise unless ``code`` names one of :data:`CODES`."""
    if code not in CODES:
        raise ValueError(f"unknown code {code!r}; choose from {CODES}")


def _as_bits(bits, ndim: int = 1) -> np.ndarray:
    a = np.asarray(bits)
    if a.ndim != ndim:
        raise ValueError(f"bit sequence must be {ndim}-D, got {a.ndim}-D")
    a = a.astype(np.uint8)
    if np.any(a > 1):
        raise ValueError("bit sequence must contain only 0 and 1")
    return a


def cecc_encode(data, code: str = "hamming74") -> np.ndarray:
    """Encode data bits with the named code: "none" passes them through,
    "hamming74" maps each 4 bits (length a multiple of 4) to a 7-bit codeword."""
    require_code(code)
    d = _as_bits(data)
    if code == "none":
        return d
    if len(d) % 4 != 0:
        raise ValueError(f"data length {len(d)} is not a multiple of 4")
    return _ENCODE[d.reshape(-1, 4) @ _WEIGHTS[3:]].reshape(-1)


def cecc_decode(received, code: str = "hamming74") -> tuple[np.ndarray, int]:
    """Decode bits with the named code; returns (data, corrected_count)."""
    data, corrected = cecc_decode_rows(_as_bits(received)[None], code)
    return data[0], int(corrected[0])


def cecc_decode_rows(received, code: str = "hamming74") -> tuple[np.ndarray, np.ndarray]:
    """Decode every row of a 2-D stack; returns the data rows and each row's corrected count."""
    require_code(code)
    r = _as_bits(received, ndim=2)
    if code == "none":
        return r.copy(), np.zeros(len(r), dtype=np.int64)
    if r.shape[1] % 7 != 0:
        raise ValueError(f"received length {r.shape[1]} is not a multiple of 7")
    blocks = r.shape[1] // 7
    words = r.reshape(len(r), blocks, 7) @ _WEIGHTS
    return _DECODE[words].reshape(len(r), 4 * blocks), _CORRECTED[words].sum(axis=1)


def code_rate(code: str) -> float:
    require_code(code)
    return 4.0 / 7.0 if code == "hamming74" else 1.0


def privacy_amplify(bits, hash_seeds, out_len: int) -> np.ndarray:
    """Hash a ``(groups, rows, n)`` stack of bits, group g under the seeded
    binary Toeplitz matrix of ``hash_seeds[g]``, to ``(groups, rows, out_len)``.

    A matrix is derived deterministically from its seed: a strip of
    ``n + out_len - 1`` random bits defines every diagonal, entry ``(i, j)``
    being ``strip[i - j + n - 1]``, and a row's hash is the matrix-vector
    product mod 2.  Linear, so equal inputs under the same seed always hash
    identically.

    The product is the slice ``[n - 1, n - 1 + out_len)`` of the linear
    convolution of the strip with each row, taken with a real FFT on the
    smallest power-of-two grid of at least ``n + out_len - 1`` points, on
    which the tail of the ``2n + out_len - 2`` convolution points wraps only
    onto indices below ``n - 1``: O(n log n) time and O(n) memory per row.
    Every convolution value is an integer at most ``n``, so rounding recovers
    it exactly; a value that lands 0.25 or more from an integer raises
    ``RuntimeError`` rather than returning a wrong key.
    """
    x = _as_bits(bits, ndim=3)
    seeds = list(hash_seeds)
    n = x.shape[-1]
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length {out_len} must be between 0 and {n}")
    if len(seeds) != len(x):
        raise ValueError(f"{len(seeds)} hash seeds for {len(x)} groups of rows")
    if out_len == 0:
        return np.zeros(x.shape[:-1] + (0,), dtype=np.uint8)
    strips = np.empty((len(seeds), n + out_len - 1), dtype=np.uint8)
    for g, seed in enumerate(seeds):
        strips[g] = np.random.default_rng(seed).integers(0, 2, size=strips.shape[1], dtype=np.uint8)
    grid = 1 << (n + out_len - 2).bit_length()
    spectrum = np.fft.rfft(x, grid)
    spectrum *= np.fft.rfft(strips, grid)[:, None, :]
    conv = np.fft.irfft(spectrum, grid)
    y = conv[..., n - 1 : n - 1 + out_len]
    counts = np.rint(y)
    drift = float(np.max(np.abs(y - counts), initial=0.0))
    if drift >= 0.25:
        raise RuntimeError(
            f"FFT privacy amplification lost exactness: a convolution value is {drift:.3g} "
            f"from an integer (n={n}, out_len={out_len})"
        )
    return (counts.astype(np.int64) & 1).astype(np.uint8)
