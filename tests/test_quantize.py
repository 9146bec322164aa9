import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds.quantize import BitString, QuantizerConfig, quantize
from bbcreds.synthbio import Embedding, NoiseModel, new_identity, sample_genuine


def _embedding(values):
    v = np.asarray(values, dtype=np.float64)
    return Embedding(v / np.linalg.norm(v))


def bitstring_of(n, rng):
    return BitString(np.packbits(rng.integers(0, 2, size=n).astype(np.uint8)).tobytes(), n)


class TestBitString:
    def test_int_roundtrip(self):
        for value, n in [(0, 1), (0b1011, 4), (0b100000001, 9), ((1 << 63) - 5, 63)]:
            assert BitString.from_int(value, n).as_int() == value
        # Packed MSB-first: the int's top binary digit is the first byte's top bit.
        assert BitString.from_int(0b1011000110, 10).data == bytes([0b10110001, 0b10000000])

    def test_padding_must_be_zero(self):
        with pytest.raises(ValueError):
            BitString(b"\xff", 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitString(b"\x00\x00", 4)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BitString(b"", 0), "^bit length must be positive, got 0$"),
            (lambda: BitString.from_int(256, 8), "^value does not fit in 8 bits$"),
            (lambda: BitString.from_int(-1, 8), "^value does not fit in 8 bits$"),
        ],
        ids=["empty", "too-large", "negative"],
    )
    def test_out_of_range_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_xor_requires_equal_length(self):
        with pytest.raises(ValueError):
            BitString.from_int(0, 8) ^ BitString.from_int(0, 9)


class TestQuantizerConfig:
    def test_default_is_prefix(self):
        # quantize reads exactly the first code_length coordinates, in order.
        values = np.random.default_rng(4).standard_normal(512)
        values[:3] = [2.0, -1.0, 3.0]
        cfg = QuantizerConfig.default(3)
        assert quantize(_embedding(values), cfg).as_int() == 0b101
        values[3:] = -values[3:]
        assert quantize(_embedding(values), cfg).as_int() == 0b101

    def test_code_length_beyond_dim_rejected(self):
        assert QuantizerConfig.default(512).code_length == 512
        for code_length in (513, 0):
            with pytest.raises(ValueError, match=f"in \\[1, 512\\], got {code_length}$"):
                QuantizerConfig.default(code_length)


class TestQuantize:
    def test_all_positive_gives_all_ones(self):
        cfg = QuantizerConfig.default(511)
        e = _embedding(np.ones(512))
        assert quantize(e, cfg) == BitString.from_int((1 << 511) - 1, 511)

    def test_negation_complements(self):
        cfg = QuantizerConfig.default(512)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(512)
        q_pos = quantize(_embedding(v), cfg)
        q_neg = quantize(_embedding(-v), cfg)
        assert (q_pos ^ q_neg).as_int() == (1 << 512) - 1

    def test_scale_invariance(self):
        # Positive scaling happens before the type-level normalization and
        # must never move a coordinate across the threshold.
        cfg = QuantizerConfig.default(400)
        rng = np.random.default_rng(1)
        for c in (1e-6, 0.5, 3.0, 1e6):
            v = rng.standard_normal(512)
            assert quantize(_embedding(v), cfg) == quantize(_embedding(c * v), cfg)

    def test_zero_noise_matches_mean(self):
        cfg = QuantizerConfig.default(511)
        p = new_identity(21)
        s = sample_genuine(p, NoiseModel(0.0), 5)
        assert quantize(s, cfg) == quantize(p, cfg)


class TestHamming:
    def test_identity(self):
        rng = np.random.default_rng(2)
        x = bitstring_of(33, rng)
        assert (x ^ x).as_int() == 0

    def test_complement(self):
        assert (BitString.from_int(0, 8) ^ BitString.from_int(0xFF, 8)).as_int().bit_count() == 8

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 130))
            a, b = bitstring_of(n, rng), bitstring_of(n, rng)
            a_bits, b_bits = f"{a.as_int():0{n}b}", f"{b.as_int():0{n}b}"
            naive = sum(a_bits[i] != b_bits[i] for i in range(n))
            assert (a ^ b).as_int().bit_count() == naive

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitString.from_int(0, 8) ^ BitString.from_int(0, 16)

    @settings(max_examples=100)
    @given(st.data())
    def test_metric_properties(self, data):
        n = data.draw(st.integers(min_value=1, max_value=96))
        values = st.integers(0, (1 << n) - 1)
        a = BitString.from_int(data.draw(values), n)
        b = BitString.from_int(data.draw(values), n)
        c = BitString.from_int(data.draw(values), n)
        ab, ba = (a ^ b).as_int().bit_count(), (b ^ a).as_int().bit_count()
        bc, ac = (b ^ c).as_int().bit_count(), (a ^ c).as_int().bit_count()
        assert ab == ba
        assert (ab == 0) == (a == b)
        assert ac <= ab + bc
