import collections
import functools
import itertools

import numpy as np
import pytest

from bbcreds import ecc
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


@functools.cache
def _gf_tables(n):
    m = n.bit_length()
    exp, log = [0] * n, [0] * (n + 1)
    x = 1
    for i in range(n):
        exp[i], log[x] = x, i
        x <<= 1
        if x & (1 << m):
            x ^= ecc._PRIMITIVE_POLY[m]
    return exp, log


def _reference_decode(params, word):
    """The general decoder in plain Python: all 2t syndromes, the 2t-step
    Berlekamp-Massey recursion and a Chien search with one pass per locator
    coefficient. ``BchCodec.decode`` must return exactly what this returns."""
    n, k, t = params.n, params.k, params.t
    exp, log = _gf_tables(n)

    def mul(a, b):
        return exp[(log[a] + log[b]) % n] if a and b else 0

    value = word.as_int()  # binary digit p is the coefficient of x^p
    powers = [p for p in range(n) if value >> p & 1]
    s = [0] * (2 * t)
    for i in range(2 * t):
        for p in powers:
            s[i] ^= exp[(i + 1) * p % n]
    if not any(s):
        return BitString.from_int(value >> (n - k), k)

    t2 = 2 * t
    cur, prev = [1] + [0] * t2, [1] + [0] * t2
    length, shift, prev_disc = 0, 1, 1
    for r in range(t2):
        disc = s[r]
        for j in range(1, length + 1):
            disc ^= mul(cur[j], s[r - j])
        if disc == 0:
            shift += 1
            continue
        scale = exp[(log[disc] - log[prev_disc]) % n]
        saved = cur[:]
        for j in range(t2 + 1 - shift):
            cur[j + shift] ^= mul(scale, prev[j])
        if 2 * length <= r:
            length = r + 1 - length
            prev, prev_disc, shift = saved, disc, 1
        else:
            shift += 1
    if length == 0 or length > t:
        return None

    acc = [0] * n
    for j, coeff in enumerate(cur[: length + 1]):
        if coeff:
            for point in range(n):
                acc[point] ^= exp[(log[coeff] + j * point) % n]
    roots = [point for point in range(n) if acc[point] == 0]
    if len(roots) != length:
        return None
    for point in roots:  # a root alpha^s marks an error at power (n - s) mod n
        value ^= 1 << (n - point) % n
    return BitString.from_int(value >> (n - k), k)


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

    @pytest.mark.parametrize(
        "n, t, k",
        [(15, 2, 7), (31, 3, 16), (63, 6, 30), (255, 18, 131), (511, 30, 259), (1023, 1, 1013)],
    )
    def test_k_from_cyclotomic_cosets(self, n, t, k):
        assert n - sum(map(len, ecc._cyclotomic_cosets(n, t))) == k
        assert CodeParams(n, k, t).k == k

    def test_wrong_k_rejected_before_tables(self, monkeypatch):
        def build_generator(*args):
            raise AssertionError("generator built for a rejected parameter set")

        monkeypatch.setattr(BchCodec, "_build_generator", build_generator)
        with pytest.raises(ValueError, match="has k=268"):
            CodeParams(511, 259, 29)

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
        message = _random_message(rng, SMALL_CODE.k)
        cw = codec.encode(message)
        outcomes = collections.Counter()
        for positions in itertools.combinations(range(SMALL_CODE.n), SMALL_CODE.t + 1):
            result = codec.decode(_with_flips(cw, positions))
            if result is None:
                outcomes["fail"] += 1
            else:
                assert result.n == SMALL_CODE.k
                outcomes["original" if result == message else "miscorrect"] += 1
        # With minimum distance 5, a 3-bit error e miscorrects exactly when e
        # lies inside the support of one of the 18 weight-5 codewords: 10
        # patterns each, 180 in all. The other C(15, 3) - 180 = 275 patterns
        # fail, and no pattern decodes back to the original message.
        assert outcomes == {"fail": 275, "miscorrect": 180}


class TestReferenceEquality:
    """The decoder equals the general 2t-step decoder on every word tried,
    including failures and miscorrections beyond t."""

    def test_every_word_of_small_code(self):
        codec = codec_for(SMALL_CODE)
        for value in range(1 << SMALL_CODE.n):
            word = BitString.from_int(value, SMALL_CODE.n)
            assert codec.decode(word) == _reference_decode(SMALL_CODE, word)

    @pytest.mark.parametrize(
        "params, rounds, kinds",
        [
            (CodeParams(31, 16, 3), 20, {"correct", "fail", "miscorrect"}),
            (CodeParams(63, 30, 6), 8, {"correct", "fail", "miscorrect"}),
            # Beyond t these longer codes almost never land near another codeword.
            (CodeParams(255, 131, 18), 2, {"correct", "fail"}),
            (PROD_CODE, 1, {"correct", "fail"}),
        ],
        ids=["n31", "n63", "n255", "n511"],
    )
    def test_random_words(self, params, rounds, kinds):
        """Codewords with 0..3t flipped bits, then one uniform random word, per round."""
        codec = codec_for(params)
        rng = np.random.default_rng(params.n)
        seen = set()
        for _ in range(rounds):
            for weight in range(3 * params.t + 2):
                msg = _random_message(rng, params.k)
                if weight <= 3 * params.t:
                    positions = rng.choice(params.n, size=weight, replace=False)
                    word = _with_flips(codec.encode(msg), positions)
                else:
                    word = BitString.from_bits(rng.integers(0, 2, size=params.n).astype(np.uint8))
                result = codec.decode(word)
                assert result == _reference_decode(params, word)
                seen.add("fail" if result is None else "correct" if result == msg else "miscorrect")
        assert seen == kinds


def _decode_rows(codec, words):
    """``decode`` on each row, in ``decode_batch``'s output form."""
    ok = np.zeros(len(words), dtype=bool)
    messages = np.zeros((len(words), codec.params.k), dtype=np.uint8)
    for i, row in enumerate(words):
        result = codec.decode(BitString.from_bits(row))
        if result is not None:
            ok[i], messages[i] = True, result.bits()
    return ok, messages


def _assert_batch_equals_decode(codec, words):
    """``decode_batch`` on the packed rows of a (B, n) 0/1 matrix; returns
    its ok mask and its messages unpacked to a (B, k) 0/1 matrix."""
    ok, packed = codec.decode_batch(np.packbits(words, axis=1))
    assert packed.dtype == np.uint8 and packed.shape == (len(words), (codec.params.k + 7) // 8)
    messages = np.unpackbits(packed, axis=1, count=codec.params.k)
    expected_ok, expected_messages = _decode_rows(codec, words)
    assert ok.dtype == bool and messages.dtype == np.uint8
    assert messages.shape == (len(words), codec.params.k)
    assert np.array_equal(ok, expected_ok)
    assert np.array_equal(messages, expected_messages)
    return ok, messages


class TestBatchEquality:
    """``decode_batch`` equals ``decode`` lane by lane, failures and
    miscorrections included."""

    def test_every_word_of_small_code_in_one_call(self):
        codec = codec_for(SMALL_CODE)
        n = SMALL_CODE.n
        values = np.arange(1 << n)[:, None]
        words = (values >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)
        ok, messages = _assert_batch_equals_decode(codec, words)
        # Each of the 2^7 codewords has 1 + 15 + 105 words within t=2, and
        # they are disjoint, so exactly 128 * 121 words decode.
        assert ok.sum() == (1 << SMALL_CODE.k) * 121

    @pytest.mark.parametrize(
        "params",
        [
            CodeParams(31, 16, 3),
            CodeParams(63, 30, 6),
            CodeParams(255, 131, 18),
            PROD_CODE,
            # Edge cases: no correction at all, and the longest supported length.
            CodeParams(15, 15, 0),
            CodeParams(1023, 1013, 1),
        ],
        ids=["n31", "n63", "n255", "n511", "n15-t0", "n1023-t1"],
    )
    def test_flipped_codewords_and_random_words(self, params):
        """Codewords with 0..3t flipped bits, then uniform random words."""
        codec = codec_for(params)
        rng = np.random.default_rng(params.n + 1)
        words = []
        for weight in range(3 * params.t + 1):
            for _ in range(4):
                word = codec.encode(_random_message(rng, params.k)).bits().copy()
                word[rng.choice(params.n, size=weight, replace=False)] ^= 1
                words.append(word)
        words += list(rng.integers(0, 2, size=(20, params.n), dtype=np.uint8))
        ok, _ = _assert_batch_equals_decode(codec, np.array(words))
        assert ok[: 4 * (params.t + 1)].all()

    def test_zero_first_syndrome(self):
        """Errors with S_1 = 0 make the first discrepancy zero, so every
        locator of the chunk starts growing late and Berlekamp-Massey runs
        its first steps on the fewest live columns."""
        codec = codec_for(PROD_CODE)
        n, t = PROD_CODE.n, PROD_CODE.t
        exp, log = _gf_tables(n)
        rng = np.random.default_rng(2 * n)

        def triple(taken):
            # alpha^a + alpha^b = alpha^c, so the three powers add nothing to S_1.
            while True:
                a, b = rng.choice(n, size=2, replace=False).tolist()
                powers = {a, b, log[exp[a] ^ exp[b]]}
                if not powers & taken:
                    return powers

        def codeword_with_flips(powers):
            word = codec.encode(_random_message(rng, PROD_CODE.k)).bits().copy()
            word[[n - 1 - p for p in powers]] ^= 1  # bit j carries alpha^(n-1-j)
            return word

        zero = []  # up to t + 6 errors, all in triples
        for count in range(1, t // 3 + 3):
            for _ in range(4):
                powers = set()
                for _ in range(count):
                    powers |= triple(powers)
                zero.append(codeword_with_flips(powers))
        zero = np.array(zero)
        assert not codec._odd_syndromes(np.packbits(zero, axis=1))[:, 0].any()
        ok, _ = _assert_batch_equals_decode(codec, zero)
        assert ok[: 4 * (t // 3)].all()

        late = []  # one triple, then up to t - 3 further flips
        for extra in range(t - 2):
            powers = triple(set())
            others = rng.choice(sorted(set(range(n)) - powers), size=extra, replace=False)
            late.append(codeword_with_flips(powers | set(others.tolist())))
        ok, _ = _assert_batch_equals_decode(codec, np.array(late))
        assert ok.all()

    @pytest.mark.parametrize(
        "size", [0, 1, 2, ecc._BATCH_CHUNK - 1, ecc._BATCH_CHUNK + 1, 1000]
    )
    def test_batch_sizes(self, size):
        codec = codec_for(CodeParams(63, 30, 6))
        rng = np.random.default_rng(size)
        words = np.array(
            [codec.encode(_random_message(rng, 30)).bits() for _ in range(size)], dtype=np.uint8
        ).reshape(size, 63)
        # Every fourth row gets t flips, the rest beyond-radius noise.
        for i in range(size):
            words[i, rng.choice(63, size=6 if i % 4 == 0 else 9, replace=False)] ^= 1
        _assert_batch_equals_decode(codec, words)

    @pytest.mark.parametrize(
        "words",
        [
            # Packed (15, 7, 2) words take 2 bytes, the last bit of each row padding.
            np.zeros(2, dtype=np.uint8),
            np.zeros((1, 1, 2), dtype=np.uint8),
            np.zeros((2, 1), dtype=np.uint8),
            np.zeros((2, 3), dtype=np.uint8),
            np.array([[0, 0], [0, 1]], dtype=np.uint8),
            np.full((2, 2), 0xFF, dtype=np.uint8),
            np.full((2, 2), -1, dtype=np.int64),
            np.zeros((2, 2), dtype=np.float64),
        ],
        ids=["1-d", "3-d", "narrow", "wide", "pad-bit", "pad-all", "negative", "float"],
    )
    def test_malformed_words_rejected(self, words):
        with pytest.raises(ValueError):
            codec_for(SMALL_CODE).decode_batch(words)


def _brute_force_roots(n, coefficients):
    """Whether alpha^((c + 1) mod n) is a root of each row's locator, for
    c = 0 .. n-1, from the plain-Python field tables."""
    exp, log = map(np.array, _gf_tables(n))
    s = (np.arange(n) + 1) % n
    value = np.zeros((len(coefficients), n), dtype=np.int64)
    for j, column in enumerate(coefficients.T.astype(np.int64)):
        term = exp[(log[column][:, None] + j * s) % n]
        value ^= np.where(column[:, None] != 0, term, 0)
    return value == 0


class TestRootSearch:
    """``_roots`` equals a brute-force evaluation of the locator at every
    alpha^s, for coefficient values Berlekamp-Massey never produces."""

    @pytest.mark.parametrize(
        "params",
        [
            CodeParams(7, 4, 1),
            SMALL_CODE,
            CodeParams(31, 16, 3),
            CodeParams(63, 30, 6),
            CodeParams(127, 64, 10),
            CodeParams(255, 131, 18),
            PROD_CODE,
            CodeParams(1023, 923, 10),
        ],
        ids=lambda p: f"m{p.n.bit_length()}",
    )
    def test_matches_brute_force(self, params):
        n, t = params.n, params.t
        codec = codec_for(params)
        rng = np.random.default_rng(n)
        # Every field element, so every low and high half and zero, in each
        # coefficient, then random rows with about half their coefficients zero.
        every = np.array([rng.permutation(n + 1) for _ in range(t + 1)]).T
        sparse = rng.integers(0, n + 1, size=(64, t + 1)) * rng.integers(0, 2, size=(64, t + 1))
        coefficients = np.vstack([every, sparse]).astype(np.uint16)

        masks = codec._roots(coefficients)
        bits = np.unpackbits(masks.view(np.uint8), axis=1)
        assert (bits[:, :n] == _brute_force_roots(n, coefficients)).all()
        assert not bits[:, n:].any()
        # Single rows that stop after a random coefficient, as decode passes them.
        for i in rng.choice(len(coefficients), size=32, replace=False):
            row = coefficients[i : i + 1, : rng.integers(1, t + 2)]
            bits = np.unpackbits(codec._roots(row).view(np.uint8), axis=1, count=n)
            assert (bits == _brute_force_roots(n, row)).all()


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
