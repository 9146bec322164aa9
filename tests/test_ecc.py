import itertools

import numpy as np
import pytest

from bbcreds.ecc import BchCodec, CodeParams, codec_for, decode, encode
from bbcreds.quantize import BitString

from conftest import SMALL_CODE

PROD_CODE = CodeParams(511, 259, 30)


def _random_message(rng, k):
    return BitString.from_bits(rng.integers(0, 2, size=k).astype(np.uint8))


def _with_flips(word, positions):
    bits = word.bits().copy()
    bits[list(positions)] ^= 1
    return BitString.from_bits(bits)


class TestCodeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeParams(15, 0, 2)
        with pytest.raises(ValueError):
            CodeParams(15, 16, 2)
        with pytest.raises(ValueError):
            CodeParams(15, 7, -1)
        with pytest.raises(ValueError):
            CodeParams(15, 1, 8)  # 2t >= n: no BCH code

    def test_unsupported_length_rejected(self):
        with pytest.raises(ValueError):
            BchCodec(CodeParams(100, 50, 5))

    def test_inconsistent_k_rejected(self):
        # 511 with t=30 supports exactly k=259 by the standard tables.
        with pytest.raises(ValueError):
            BchCodec(CodeParams(511, 300, 30))

    def test_codec_cache_returns_shared_instance(self):
        assert codec_for(SMALL_CODE) is codec_for(CodeParams(15, 7, 2))


class TestSmallCodeExhaustive:
    def test_roundtrip_all_messages(self):
        for value in range(1 << SMALL_CODE.k):
            msg = BitString.from_int(value, SMALL_CODE.k)
            assert decode(encode(msg, SMALL_CODE), SMALL_CODE) == msg

    def test_corrects_every_pattern_up_to_t(self):
        codec = codec_for(SMALL_CODE)
        n, k, t = SMALL_CODE.n, SMALL_CODE.k, SMALL_CODE.t
        for value in range(1 << k):
            msg = BitString.from_int(value, k)
            cw = codec.encode(msg)
            for weight in range(1, t + 1):
                for positions in itertools.combinations(range(n), weight):
                    assert codec.decode(_with_flips(cw, positions)) == msg

    def test_minimum_distance_from_enumeration(self):
        weights = [
            encode(BitString.from_int(v, SMALL_CODE.k), SMALL_CODE).weight()
            for v in range(1, 1 << SMALL_CODE.k)
        ]
        assert min(weights) >= 2 * SMALL_CODE.t + 1

    def test_beyond_radius_never_crashes(self):
        codec = codec_for(SMALL_CODE)
        rng = np.random.default_rng(7)
        cw = codec.encode(_random_message(rng, SMALL_CODE.k))
        outcomes = set()
        for positions in itertools.combinations(range(SMALL_CODE.n), SMALL_CODE.t + 1):
            result = codec.decode(_with_flips(cw, positions))
            outcomes.add("fail" if result is None else "message")
            if result is not None:
                assert result.n == SMALL_CODE.k
        # bounded-distance decoding: some patterns miscorrect, some fail
        assert "message" in outcomes or "fail" in outcomes


class TestZeroCases:
    @pytest.mark.parametrize("params", [SMALL_CODE, PROD_CODE])
    def test_zero_message_zero_codeword(self, params):
        assert encode(BitString.zeros(params.k), params) == BitString.zeros(params.n)

    @pytest.mark.parametrize("params", [SMALL_CODE, PROD_CODE])
    def test_zero_word_zero_message(self, params):
        assert decode(BitString.zeros(params.n), params) == BitString.zeros(params.k)


class TestProductionCode:
    def test_dimensions(self):
        msg = BitString.zeros(PROD_CODE.k)
        assert encode(msg, PROD_CODE).n == 511
        assert PROD_CODE.k >= 256

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = _random_message(rng, PROD_CODE.k)
            b = _random_message(rng, PROD_CODE.k)
            assert encode(a, PROD_CODE) ^ encode(b, PROD_CODE) == encode(a ^ b, PROD_CODE)

    def test_systematic_prefix(self):
        rng = np.random.default_rng(12)
        msg = _random_message(rng, PROD_CODE.k)
        cw = encode(msg, PROD_CODE)
        assert np.array_equal(cw.bits()[: PROD_CODE.k], msg.bits())

    def test_corrects_sampled_patterns_up_to_t(self):
        codec = codec_for(PROD_CODE)
        rng = np.random.default_rng(13)
        for trial in range(50):
            msg = _random_message(rng, PROD_CODE.k)
            cw = codec.encode(msg)
            weight = int(rng.integers(0, PROD_CODE.t + 1))
            positions = rng.choice(PROD_CODE.n, size=weight, replace=False)
            assert codec.decode(_with_flips(cw, positions)) == msg

    def test_encode_deterministic(self):
        rng = np.random.default_rng(14)
        msg = _random_message(rng, PROD_CODE.k)
        assert encode(msg, PROD_CODE) == encode(msg, PROD_CODE)


class TestLengthContracts:
    def test_encode_length_mismatch(self):
        with pytest.raises(ValueError):
            encode(BitString.zeros(8), SMALL_CODE)

    def test_decode_length_mismatch(self):
        with pytest.raises(ValueError):
            decode(BitString.zeros(16), SMALL_CODE)
