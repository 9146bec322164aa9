import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds.quantize import BitString, QuantizerConfig, hamming, quantize
from bbcreds.synthbio import Embedding, NoiseModel, new_identity, sample_genuine


def _embedding(values):
    v = np.asarray(values, dtype=np.float64)
    return Embedding(v / np.linalg.norm(v))


def bitstring_of(n, rng):
    return BitString.from_bits(rng.integers(0, 2, size=n).astype(np.uint8))


class TestBitString:
    def test_roundtrip_bits(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
        bs = BitString.from_bits(bits)
        assert bs.n == 10
        assert np.array_equal(bs.bits(), bits)
        assert [bs[i] for i in range(10)] == list(bits)

    def test_int_roundtrip(self):
        for value, n in [(0, 1), (0b1011, 4), (0b100000001, 9), ((1 << 63) - 5, 63)]:
            assert BitString.from_int(value, n).as_int() == value

    def test_padding_must_be_zero(self):
        with pytest.raises(ValueError):
            BitString(b"\xff", 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitString(b"\x00\x00", 4)

    def test_xor_requires_equal_length(self):
        with pytest.raises(ValueError):
            BitString.zeros(8) ^ BitString.zeros(9)

    def test_weight(self):
        assert BitString.ones(11).weight() == 11
        assert BitString.zeros(11).weight() == 0


class TestQuantizerConfig:
    def test_default_is_prefix(self):
        # quantize reads exactly the first code_length coordinates, in order.
        values = np.array([2.0, -1.0, 3.0, -1.0, 5.0, 5.0, -5.0, 5.0])
        cfg = QuantizerConfig.default(8, 3)
        assert list(quantize(_embedding(values), cfg).bits()) == [1, 0, 1]
        values[3:] = -values[3:]
        assert list(quantize(_embedding(values), cfg).bits()) == [1, 0, 1]

    def test_code_length_beyond_dim_rejected(self):
        for code_length in (9, 0):
            with pytest.raises(ValueError):
                QuantizerConfig.default(8, code_length)


class TestQuantize:
    def test_all_positive_gives_all_ones(self):
        cfg = QuantizerConfig.default(16, 16)
        e = _embedding(np.ones(16))
        assert quantize(e, cfg) == BitString.ones(16)

    def test_negation_complements(self):
        cfg = QuantizerConfig.default(64, 64)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64)
        q_pos = quantize(_embedding(v), cfg).bits()
        q_neg = quantize(_embedding(-v), cfg).bits()
        assert np.array_equal(q_pos ^ q_neg, np.ones(64, dtype=np.uint8))

    def test_scale_invariance(self):
        # Positive scaling happens before the type-level normalization and
        # must never move a coordinate across the threshold.
        cfg = QuantizerConfig.default(128, 100)
        rng = np.random.default_rng(1)
        for c in (1e-6, 0.5, 3.0, 1e6):
            v = rng.standard_normal(128)
            assert quantize(_embedding(v), cfg) == quantize(_embedding(c * v), cfg)

    def test_zero_noise_matches_mean(self):
        cfg = QuantizerConfig.default(512, 511)
        p = new_identity(21, 512)
        s = sample_genuine(p, NoiseModel(0.0), 5)
        assert quantize(s, cfg) == quantize(p.mean, cfg)

    def test_dimension_mismatch_rejected(self):
        cfg = QuantizerConfig.default(16, 16)
        with pytest.raises(ValueError):
            quantize(_embedding(np.ones(32)), cfg)


class TestHamming:
    def test_identity(self):
        rng = np.random.default_rng(2)
        x = bitstring_of(33, rng)
        assert hamming(x, x) == 0

    def test_complement(self):
        assert hamming(BitString.zeros(8), BitString.ones(8)) == 8

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 130))
            a, b = bitstring_of(n, rng), bitstring_of(n, rng)
            naive = sum(a[i] != b[i] for i in range(n))
            assert hamming(a, b) == naive

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming(BitString.zeros(8), BitString.zeros(16))

    @settings(max_examples=100)
    @given(st.data())
    def test_metric_properties(self, data):
        n = data.draw(st.integers(min_value=1, max_value=96))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        a = BitString.from_bits(data.draw(bits))
        b = BitString.from_bits(data.draw(bits))
        c = BitString.from_bits(data.draw(bits))
        assert hamming(a, b) == hamming(b, a)
        assert (hamming(a, b) == 0) == (a == b)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
