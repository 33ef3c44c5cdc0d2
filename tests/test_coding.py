import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anonkey.coding import (
    cecc_decode,
    cecc_decode_rows,
    cecc_encode,
    code_rate,
    privacy_amplify,
)


def all_data_words():
    return [np.array([(w >> i) & 1 for i in (3, 2, 1, 0)], dtype=np.uint8) for w in range(16)]


class TestHamming74:
    def test_zero_codeword(self):
        assert np.array_equal(cecc_encode([0, 0, 0, 0]), np.zeros(7, dtype=np.uint8))

    def test_every_word_roundtrips_clean(self):
        for d in all_data_words():
            decoded, corrected = cecc_decode(cecc_encode(d))
            assert np.array_equal(decoded, d)
            assert corrected == 0

    def test_single_flip_corrected_everywhere(self):
        # exhaustive oracle: all 16 words x all 7 flip positions
        for d in all_data_words():
            code = cecc_encode(d)
            for pos in range(7):
                corrupted = code.copy()
                corrupted[pos] ^= 1
                decoded, corrected = cecc_decode(corrupted)
                assert np.array_equal(decoded, d), (d, pos)
                assert corrected == 1
        # the same 112 flips as one stream of blocks
        data = np.concatenate([d for d in all_data_words() for _ in range(7)])
        code = cecc_encode(data).reshape(-1, 7)
        code[np.arange(len(code)), np.tile(np.arange(7), 16)] ^= 1
        decoded, corrected = cecc_decode(code.reshape(-1))
        assert np.array_equal(decoded, data)
        assert corrected == 16 * 7

    def test_quoted_example(self):
        code = cecc_encode([1, 0, 1, 1])
        code[2] ^= 1  # flip bit 3
        decoded, corrected = cecc_decode(code)
        assert np.array_equal(decoded, [1, 0, 1, 1])
        assert corrected == 1

    def test_parity_equations_hold(self):
        # independent check oracle: every coded position with 1-based index
        # having bit b set XORs to zero
        rng = np.random.default_rng(20)
        for _ in range(50):
            d = rng.integers(0, 2, size=4, dtype=np.uint8)
            c = cecc_encode(d)
            for b in range(3):
                positions = [i for i in range(7) if ((i + 1) >> b) & 1]
                assert np.bitwise_xor.reduce(c[positions]) == 0

    def test_multiword_stream(self):
        rng = np.random.default_rng(21)
        d = rng.integers(0, 2, size=32, dtype=np.uint8)
        decoded, corrected = cecc_decode(cecc_encode(d))
        assert np.array_equal(decoded, d)
        assert corrected == 0

    def test_every_received_word_matches_syndrome_decoding(self):
        # reference: the syndrome of a word is the 1-based position of its
        # single flip (0 for a codeword); flip it back and read d1..d4
        words = [np.array([(w >> (6 - i)) & 1 for i in range(7)], dtype=np.uint8)
                 for w in range(128)]
        for word in words:
            syndrome = 0
            for b in range(3):
                positions = [i for i in range(7) if ((i + 1) >> b) & 1]
                syndrome |= int(np.bitwise_xor.reduce(word[positions])) << b
            fixed = word.copy()
            if syndrome:
                fixed[syndrome - 1] ^= 1
            decoded, corrected = cecc_decode(word)
            assert decoded.tolist() == fixed[[2, 4, 5, 6]].tolist(), word
            assert corrected == int(syndrome != 0)
        # the same 128 words as one stream
        decoded, corrected = cecc_decode(np.concatenate(words))
        assert len(decoded) == 4 * 128
        assert corrected == 112

    def test_length_validation(self):
        with pytest.raises(ValueError):
            cecc_encode([1, 0, 1])
        with pytest.raises(ValueError):
            cecc_decode([1, 0, 1, 0, 1])


class TestCeccDispatch:
    def test_none_passthrough(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(cecc_encode(bits, "none"), bits)
        decoded, corrected = cecc_decode(bits, "none")
        assert np.array_equal(decoded, bits) and corrected == 0

    @pytest.mark.parametrize("call", [
        lambda code: cecc_encode([0, 0, 0, 0], code),
        lambda code: cecc_decode([0] * 7, code),
        lambda code: cecc_decode_rows(np.zeros((1, 7), dtype=np.uint8), code),
        code_rate,
    ], ids=["cecc_encode", "cecc_decode", "cecc_decode_rows", "code_rate"])
    def test_unknown_code(self, call):
        with pytest.raises(ValueError, match="unknown code 'reed-muller'"):
            call("reed-muller")

    @pytest.mark.parametrize("code", ["none", "hamming74"])
    def test_rows_decode_like_single_calls(self, code):
        received = np.random.default_rng(4).integers(0, 2, size=(5, 56), dtype=np.uint8)
        data, corrected = cecc_decode_rows(received, code)
        assert corrected.shape == (5,)
        for row, got, n in zip(received, data, corrected):
            want, want_n = cecc_decode(row, code)
            assert np.array_equal(got, want) and n == want_n
        empty, none_corrected = cecc_decode_rows(np.zeros((0, 14), dtype=np.uint8), code)
        assert empty.shape == (0, 14 if code == "none" else 8) and none_corrected.shape == (0,)

    def test_rows_decode_validation(self):
        with pytest.raises(ValueError):
            cecc_decode_rows(np.zeros(14, dtype=np.uint8))
        with pytest.raises(ValueError):
            cecc_decode_rows(np.zeros((2, 13), dtype=np.uint8))
        with pytest.raises(ValueError):
            cecc_decode_rows(np.zeros((2, 14), dtype=np.uint8), "reed-muller")

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


def grid_edge_case(n, out_len, density):
    bits = (np.random.default_rng(n).random(n) < density).astype(np.uint8)
    return bits, 2**63 + n, out_len


# n + out_len - 1 exactly a power of two, and one more than a power of two:
# the smallest grids the FFT may use, and the sizes that double the grid
GRID_EDGES = [(8, 1), (5, 4), (600, 425), (1025, 1024), (9, 1), (5, 5), (513, 513), (1025, 1025)]


class TestPrivacyAmplifyFFT:
    @given(pa_cases())
    @example(grid_edge_case(*GRID_EDGES[0], 1.0))
    @example(grid_edge_case(*GRID_EDGES[1], 1.0))
    @example(grid_edge_case(*GRID_EDGES[2], 0.5))
    @example(grid_edge_case(*GRID_EDGES[3], 1.0))
    @example(grid_edge_case(*GRID_EDGES[4], 1.0))
    @example(grid_edge_case(*GRID_EDGES[5], 0.5))
    @example(grid_edge_case(*GRID_EDGES[6], 1.0))
    @example(grid_edge_case(*GRID_EDGES[7], 0.97))
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

    @given(pa_cases(max_n=512), st.integers(1, 4))
    def test_rows_hash_like_single_calls(self, case, n_rows):
        bits, seed, out_len = case
        rows = np.stack([bits] + [np.random.default_rng(seed + r).integers(0, 2, size=len(bits))
                                  for r in range(1, n_rows)])
        out = privacy_amplify(rows, seed, out_len)
        assert out.shape == (n_rows, out_len) and out.dtype == np.uint8
        for row, hashed in zip(rows, out):
            assert np.array_equal(hashed, privacy_amplify(row, seed, out_len))
            assert np.array_equal(hashed, dense_toeplitz_pa(row, seed, out_len))

    @pytest.mark.parametrize("n, out_len", GRID_EDGES)
    def test_grid_is_smallest_power_of_two_past_the_strip(self, monkeypatch, n, out_len):
        grids = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, m, *rest: grids.append(m) or rfft(a, m, *rest))
        privacy_amplify(np.ones(n, dtype=np.uint8), 1, out_len)
        size = n + out_len - 1
        assert set(grids) == {1 << (size - 1).bit_length()}
        assert grids[0] >= size and grids[0] // 2 < size

    @given(pa_cases(max_n=256), st.integers(1, 3), st.integers(1, 3))
    def test_seed_per_group_hashes_like_single_calls(self, case, n_groups, n_rows):
        bits, seed, out_len = case
        seeds = [(seed + g) % 2**64 for g in range(n_groups)]
        groups = np.random.default_rng(seed % 2**32).integers(
            0, 2, size=(n_groups, n_rows, len(bits)), dtype=np.uint8)
        out = privacy_amplify(groups, seeds, out_len)
        assert out.shape == (n_groups, n_rows, out_len)
        for g, s in enumerate(seeds):
            assert np.array_equal(out[g], privacy_amplify(groups[g], s, out_len))
        flat = privacy_amplify(groups[:, 0], seeds, out_len)
        assert np.array_equal(flat, out[:, 0])

    def test_seed_per_group_validation(self):
        with pytest.raises(ValueError, match="hash seeds"):
            privacy_amplify(np.zeros((3, 2, 8), dtype=np.uint8), [1, 2], 4)
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros(8, dtype=np.uint8), [1], 4)
        assert privacy_amplify(np.zeros((0, 2, 8), dtype=np.uint8), [], 4).shape == (0, 2, 4)

    def test_rows_shape_validation(self):
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros((2, 2, 8), dtype=np.uint8), 0, 4)
        with pytest.raises(ValueError):
            privacy_amplify(np.array([[0, 1, 2, 0]]), 0, 2)
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros((2, 8), dtype=np.uint8), 0, 9)

    def test_rows_zero_output_length(self):
        out = privacy_amplify(np.ones((3, 8), dtype=np.uint8), 0, 0)
        assert out.shape == (3, 0) and out.dtype == np.uint8
        assert privacy_amplify(np.ones(8, dtype=np.uint8), 0, 0).shape == (0,)

    def test_inexact_convolution_raises_on_rows(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(RuntimeError, match="exactness"):
            privacy_amplify(np.ones((2, 64), dtype=np.uint8), 1, 32)

    def test_inexact_convolution_raises(self, monkeypatch):
        # a result that is not near an integer must never be rounded into a key
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(RuntimeError, match="exactness"):
            privacy_amplify(np.ones(64, dtype=np.uint8), 1, 32)
