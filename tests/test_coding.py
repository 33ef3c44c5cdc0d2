import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anonkey.coding import (
    cecc_decode,
    cecc_encode,
    code_rate,
    hamming74_decode,
    hamming74_encode,
    privacy_amplify,
)


def all_data_words():
    return [np.array([(w >> i) & 1 for i in (3, 2, 1, 0)], dtype=np.uint8) for w in range(16)]


class TestHamming74:
    def test_zero_codeword(self):
        assert np.array_equal(hamming74_encode([0, 0, 0, 0]), np.zeros(7, dtype=np.uint8))

    def test_every_word_roundtrips_clean(self):
        for d in all_data_words():
            decoded, corrected = hamming74_decode(hamming74_encode(d))
            assert np.array_equal(decoded, d)
            assert corrected == 0

    def test_single_flip_corrected_everywhere(self):
        # exhaustive oracle: all 16 words x all 7 flip positions
        for d in all_data_words():
            code = hamming74_encode(d)
            for pos in range(7):
                corrupted = code.copy()
                corrupted[pos] ^= 1
                decoded, corrected = hamming74_decode(corrupted)
                assert np.array_equal(decoded, d), (d, pos)
                assert corrected == 1

    def test_quoted_example(self):
        code = hamming74_encode([1, 0, 1, 1])
        code[2] ^= 1  # flip bit 3
        decoded, corrected = hamming74_decode(code)
        assert np.array_equal(decoded, [1, 0, 1, 1])
        assert corrected == 1

    def test_parity_equations_hold(self):
        # independent check oracle: every coded position with 1-based index
        # having bit b set XORs to zero
        rng = np.random.default_rng(20)
        for _ in range(50):
            d = rng.integers(0, 2, size=4, dtype=np.uint8)
            c = hamming74_encode(d)
            for b in range(3):
                positions = [i for i in range(7) if ((i + 1) >> b) & 1]
                assert np.bitwise_xor.reduce(c[positions]) == 0

    def test_multiword_stream(self):
        rng = np.random.default_rng(21)
        d = rng.integers(0, 2, size=32, dtype=np.uint8)
        decoded, corrected = hamming74_decode(hamming74_encode(d))
        assert np.array_equal(decoded, d)
        assert corrected == 0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            hamming74_encode([1, 0, 1])
        with pytest.raises(ValueError):
            hamming74_decode([1, 0, 1, 0, 1])


class TestCeccDispatch:
    def test_none_passthrough(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(cecc_encode(bits, "none"), bits)
        decoded, corrected = cecc_decode(bits, "none")
        assert np.array_equal(decoded, bits) and corrected == 0

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            cecc_encode([0, 0, 0, 0], "reed-muller")

    def test_rates(self):
        assert code_rate("none") == 1.0
        assert code_rate("hamming74") == pytest.approx(4 / 7)


class TestPrivacyAmplify:
    def test_zero_input_zero_output(self):
        out = privacy_amplify(np.zeros(64, dtype=np.uint8), hash_seed=5, out_len=32)
        assert np.array_equal(out, np.zeros(32, dtype=np.uint8))

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        a = privacy_amplify(bits, hash_seed=9, out_len=32)
        b = privacy_amplify(bits, hash_seed=9, out_len=32)
        assert np.array_equal(a, b)

    def test_seed_changes_hash(self):
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        a = privacy_amplify(bits, hash_seed=1, out_len=32)
        b = privacy_amplify(bits, hash_seed=2, out_len=32)
        assert not np.array_equal(a, b)

    def test_gf2_linearity(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            x = rng.integers(0, 2, size=48, dtype=np.uint8)
            y = rng.integers(0, 2, size=48, dtype=np.uint8)
            hx = privacy_amplify(x, hash_seed=3, out_len=24)
            hy = privacy_amplify(y, hash_seed=3, out_len=24)
            hxy = privacy_amplify(x ^ y, hash_seed=3, out_len=24)
            assert np.array_equal(hxy, hx ^ hy)

    def test_toeplitz_structure(self):
        # hashing a unit vector reads one matrix column; consecutive unit
        # vectors must produce shifted copies of the same diagonal strip
        n, out = 16, 8
        cols = []
        for j in range(n):
            e = np.zeros(n, dtype=np.uint8)
            e[j] = 1
            cols.append(privacy_amplify(e, hash_seed=11, out_len=out))
        for j in range(1, n):
            assert np.array_equal(cols[j][1:], cols[j - 1][:-1])

    def test_out_len_validation(self):
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros(8, dtype=np.uint8), 0, 9)


def dense_toeplitz_pa(bits, hash_seed, out_len):
    """Reference: build the out_len x n Toeplitz matrix and multiply mod 2."""
    x = np.asarray(bits, dtype=np.int64)
    n = len(x)
    strip = np.random.default_rng(hash_seed).integers(0, 2, size=n + out_len - 1, dtype=np.uint8)
    i = np.arange(out_len)[:, None]
    j = np.arange(n)[None, :]
    return (strip[i - j + n - 1].astype(np.int64) @ x % 2).astype(np.uint8)


@st.composite
def pa_cases(draw, max_n=2048):
    """(bits, hash_seed, out_len) with any length, density and output size."""
    n = draw(st.integers(1, max_n))
    out_len = draw(st.integers(1, n))
    density = draw(st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]))
    bits_seed = draw(st.integers(0, 2**32 - 1))
    bits = (np.random.default_rng(bits_seed).random(n) < density).astype(np.uint8)
    return bits, draw(st.integers(0, 2**64 - 1)), out_len


class TestPrivacyAmplifyFFT:
    @given(pa_cases())
    def test_equals_dense_toeplitz_product(self, case):
        bits, seed, out_len = case
        assert np.array_equal(privacy_amplify(bits, seed, out_len),
                              dense_toeplitz_pa(bits, seed, out_len))

    @given(pa_cases(), st.integers(0, 2**32 - 1))
    def test_linear_over_gf2(self, case, other_seed):
        x, seed, out_len = case
        y = np.random.default_rng(other_seed).integers(0, 2, size=len(x), dtype=np.uint8)
        assert np.array_equal(privacy_amplify(x ^ y, seed, out_len),
                              privacy_amplify(x, seed, out_len) ^ privacy_amplify(y, seed, out_len))

    def test_exact_at_a_million_bits(self):
        # n = 2^20: the dense index matrix would need terabytes, so the
        # reference is the strip itself.  Column j of the matrix is
        # strip[n-1-j : n-1-j+out]; an all-ones input sums a sliding window
        # of n strip bits, which drives the convolution values to about n/2.
        n, out, seed = 1 << 20, 1 << 19, 2024
        strip = np.random.default_rng(seed).integers(0, 2, size=n + out - 1, dtype=np.uint8)

        def column(j):
            return strip[n - 1 - j : n - 1 - j + out]

        for j in (0, n // 2 + 7, n - 1):
            e = np.zeros(n, dtype=np.uint8)
            e[j] = 1
            assert np.array_equal(privacy_amplify(e, seed, out), column(j)), j

        picks = np.random.default_rng(5).choice(n, size=40, replace=False)
        sparse = np.zeros(n, dtype=np.uint8)
        sparse[picks] = 1
        expected = np.bitwise_xor.reduce([column(j) for j in picks])
        assert np.array_equal(privacy_amplify(sparse, seed, out), expected)

        window = np.concatenate([[0], np.cumsum(strip, dtype=np.int64)])
        i = np.arange(out)
        expected = ((window[i + n] - window[i]) % 2).astype(np.uint8)
        assert np.array_equal(privacy_amplify(np.ones(n, dtype=np.uint8), seed, out), expected)

    def test_inexact_convolution_raises(self, monkeypatch):
        # a result that is not near an integer must never be rounded into a key
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(RuntimeError, match="exactness"):
            privacy_amplify(np.ones(64, dtype=np.uint8), 1, 32)
