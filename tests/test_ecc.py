import collections
import dataclasses
import functools
import itertools
import operator
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bbcreds import ecc, evaluate
from bbcreds.ecc import BchCodec, CodeParams, codec_for
from bbcreds.quantize import BitString

from conftest import SMALL_CODE

PROD_CODE = CodeParams(511, 30)


def _unpack(word):
    return np.unpackbits(np.frombuffer(word.data, dtype=np.uint8))[: word.n]


def _random_message(rng, k):
    return BitString(np.packbits(rng.integers(0, 2, size=k).astype(np.uint8)).tobytes(), k)


def _with_flips(word, positions):
    bits = _unpack(word)
    bits[list(positions)] ^= 1
    return BitString(np.packbits(bits).tobytes(), word.n)


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


def _reference_syndromes(params, word, orders):
    """S_i, the word's value at alpha^i, for each i in ``orders``."""
    n = params.n
    exp, _ = _gf_tables(n)
    value = word.as_int()  # binary digit p is the coefficient of x^p
    powers = [p for p in range(n) if value >> p & 1]
    return [functools.reduce(operator.xor, (exp[i * p % n] for p in powers), 0) for i in orders]


def _reference_decode(params, word):
    """The general decoder in plain Python: all 2t syndromes, the 2t-step
    Berlekamp-Massey recursion and a Chien search with one pass per locator
    coefficient. ``BchCodec.decode`` must return exactly what this returns."""
    n, k, t = params.n, params.k, params.t
    exp, log = _gf_tables(n)

    def mul(a, b):
        return exp[(log[a] + log[b]) % n] if a and b else 0

    value = word.as_int()
    s = _reference_syndromes(params, word, range(1, 2 * t + 1))
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


def _reference_encode(params, generator, msg):
    """Systematic encoding by bit-serial long division by g(x): the shifted
    message, plus its remainder. ``BchCodec.encode`` must return exactly this."""
    shifted = msg.as_int() << (params.n - params.k)
    remainder = shifted
    while remainder.bit_length() >= generator.bit_length():
        remainder ^= generator << (remainder.bit_length() - generator.bit_length())
    return BitString.from_int(shifted ^ remainder, params.n)


class TestCodeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeParams(15, -1)
        with pytest.raises(ValueError):
            CodeParams(15, 8)  # 2t >= n: no BCH code

    def test_unsupported_length_rejected(self):
        with pytest.raises(ValueError):
            BchCodec(CodeParams(100, 5))

    @pytest.mark.parametrize(
        "n, t, k",
        [(15, 2, 7), (31, 3, 16), (63, 6, 30), (255, 18, 131), (511, 30, 259), (1023, 1, 1013)],
    )
    def test_k_from_cyclotomic_cosets(self, n, t, k):
        # The standard tables' k for each (n, t) is the oracle for the derivation.
        assert n - sum(map(len, ecc._cyclotomic_cosets(n, t))) == k
        assert CodeParams(n, t).k == k

    def test_k_is_derived(self):
        assert [f.name for f in dataclasses.fields(CodeParams) if f.init] == ["n", "t"]
        assert CodeParams(511, 30).k == 259
        assert CodeParams(1023, 511).k == 1

    def test_codec_cache_returns_shared_instance(self):
        assert codec_for(SMALL_CODE) is codec_for(CodeParams(15, 2))


class TestSmallCodeExhaustive:
    def test_roundtrip_all_messages(self):
        for value in range(1 << SMALL_CODE.k):
            msg = BitString.from_int(value, SMALL_CODE.k)
            assert codec_for(SMALL_CODE).decode(codec_for(SMALL_CODE).encode(msg)) == msg

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
            codec_for(SMALL_CODE).encode(BitString.from_int(v, SMALL_CODE.k)).as_int().bit_count()
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
            # The Hamming code is perfect: every word lies within t of a codeword.
            (CodeParams(7, 1), 20, {"correct", "miscorrect"}),
            (CodeParams(31, 3), 20, {"correct", "fail", "miscorrect"}),
            (CodeParams(63, 6), 8, {"correct", "fail", "miscorrect"}),
            # Beyond t these longer codes almost never land near another codeword.
            (CodeParams(127, 10), 8, {"correct", "fail"}),
            (CodeParams(255, 18), 2, {"correct", "fail"}),
            (PROD_CODE, 1, {"correct", "fail"}),
            (CodeParams(1023, 10), 2, {"correct", "fail"}),
        ],
        ids=["n7", "n31", "n63", "n127", "n255", "n511", "n1023"],
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
                    bits = rng.integers(0, 2, size=params.n).astype(np.uint8)
                    word = BitString(np.packbits(bits).tobytes(), params.n)
                result = codec.decode(word)
                assert result == _reference_decode(params, word)
                seen.add("fail" if result is None else "correct" if result == msg else "miscorrect")
        assert seen == kinds


def _decode_rows(codec, words):
    """``decode`` on each row, in ``decode_batch``'s output form."""
    ok = np.zeros(len(words), dtype=bool)
    messages = np.zeros((len(words), codec.params.k), dtype=np.uint8)
    for i, row in enumerate(words):
        result = codec.decode(BitString(np.packbits(row).tobytes(), len(row)))
        if result is not None:
            ok[i], messages[i] = True, _unpack(result)
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
            CodeParams(31, 3),
            CodeParams(63, 6),
            CodeParams(255, 18),
            PROD_CODE,
            # Edge cases: no correction at all, and the longest supported length.
            CodeParams(15, 0),
            CodeParams(1023, 1),
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
                word = _unpack(codec.encode(_random_message(rng, params.k)))
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
            word = _unpack(codec.encode(_random_message(rng, PROD_CODE.k)))
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

    # Sizes either side of the evaluation reports' decode batch, and beyond it.
    @pytest.mark.parametrize(
        "size", [0, 1, 2, evaluate._BATCH_CHUNK - 1, evaluate._BATCH_CHUNK + 1, 1000]
    )
    def test_batch_sizes(self, size):
        codec = codec_for(CodeParams(63, 6))
        rng = np.random.default_rng(size)
        words = np.array(
            [_unpack(codec.encode(_random_message(rng, 30))) for _ in range(size)], dtype=np.uint8
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


# One code for each supported field size m = 3 .. 10.
CODE_PER_M = [
    CodeParams(7, 1),
    SMALL_CODE,
    CodeParams(31, 3),
    CodeParams(63, 6),
    CodeParams(127, 10),
    CodeParams(255, 18),
    PROD_CODE,
    CodeParams(1023, 10),
]


def _m_id(params):
    return f"m{params.n.bit_length()}"


class TestRootSearch:
    """``_roots`` and ``_root_mask`` equal a brute-force evaluation of the
    locator at every alpha^s, for coefficient values Berlekamp-Massey never
    produces."""

    @pytest.mark.parametrize("params", CODE_PER_M, ids=_m_id)
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

        # decode's integer root search on the same rows, each stopped after
        # a random coefficient, as _locator returns them: a mask in the word's
        # byte layout, whose planes are 64 ceil(n/64) bits, wider than the
        # word's 8 ceil(n/8) bits below n = 511. BitString fails on a set pad bit.
        stops = rng.integers(1, t + 2, size=len(coefficients))
        truncated = np.where(np.arange(t + 1) < stops[:, None], coefficients, 0)
        expected = _brute_force_roots(n, truncated)
        for row, stop, want in zip(coefficients.tolist(), stops, expected):
            mask = codec._root_mask([codec._log[v] for v in row[:stop]])
            found = _unpack(BitString(mask.to_bytes((n + 7) // 8, "big"), n))
            assert (found == want).all()

    @pytest.mark.parametrize("rows", [1, 2, 16, 63, 64, 65])
    def test_every_gather_step(self, rows):
        """``_roots`` gathers one table slab per call at every chunk size;
        chunks of 1 row to past 64 rows all match brute force."""
        n, t = PROD_CODE.n, PROD_CODE.t
        rng = np.random.default_rng(rows)
        values = rng.integers(0, n + 1, size=(rows, t + 1))
        coefficients = (values * rng.integers(0, 2, size=(rows, t + 1))).astype(np.uint16)
        bits = np.unpackbits(codec_for(PROD_CODE)._roots(coefficients).view(np.uint8), axis=1)
        assert (bits[:, :n] == _brute_force_roots(n, coefficients)).all()
        assert not bits[:, n:].any()


def _zero_first_syndrome_errors(n, rng, triples):
    """Powers of ``triples`` disjoint triples alpha^a + alpha^b = alpha^c,
    which together add nothing to S_1."""
    exp, log = _gf_tables(n)
    powers = set()
    while len(powers) < 3 * triples:
        a, b = rng.choice(n, size=2, replace=False).tolist()
        triple = {a, b, log[exp[a] ^ exp[b]]}
        if not triple & powers:
            powers |= triple
    return powers


# Every field size, plus the edges of n - k: no parity at all, and 10 bits
# of parity under a 1013-bit message. (7, 4, 1) pads its message with more
# bits (4) than it has parity bits (3).
ENCODE_CODES = CODE_PER_M + [CodeParams(15, 0), CodeParams(1023, 1)]


def _code_id(params):
    return f"{params.n}-{params.k}-{params.t}"


class TestEncodeReference:
    """``encode`` equals bit-serial long division by g(x), on every unit
    message (the basis its parity table is built from) and on random ones."""

    @pytest.mark.parametrize("params", ENCODE_CODES, ids=_code_id)
    def test_unit_messages(self, params):
        codec = codec_for(params)
        for j in range(params.k):
            msg = BitString.from_int(1 << j, params.k)
            assert codec.encode(msg) == _reference_encode(params, codec._generator, msg)

    @pytest.mark.parametrize("params", ENCODE_CODES, ids=_code_id)
    def test_random_messages(self, params):
        codec = codec_for(params)
        rng = np.random.default_rng(params.n + params.t)
        for _ in range(20):
            msg = _random_message(rng, params.k)
            word = codec.encode(msg)
            assert word == _reference_encode(params, codec._generator, msg)
            # A codeword of the BCH code has alpha^1 .. alpha^2t as roots.
            assert not any(_reference_syndromes(params, word, range(1, 2 * params.t + 1)))

    def test_parity_rows_stay_small(self):
        """Nibble rows for the production code fit in 128 KiB while they are
        built; rows per byte would take about 560 KiB, and every workload
        builds the codec."""
        codec = codec_for(PROD_CODE)
        tracemalloc.start()
        try:
            rows = ecc._parity_rows(PROD_CODE, codec._generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == (PROD_CODE.k + 7) // 8
        assert peak < 128 << 10


class TestChunkStages:
    """The stages of ``decode_batch``'s pipeline against plain-Python
    oracles, at batch sizes on both sides of each syndrome gather-step
    boundary, 1 row included. ``decode`` shares only ``_odd_syndromes``."""

    @pytest.mark.parametrize("params", CODE_PER_M, ids=_m_id)
    def test_odd_syndromes_match_reference(self, params):
        n, t = params.n, params.t
        rng = np.random.default_rng(n + 2)
        words = rng.integers(0, 2, size=(257, n), dtype=np.uint8)
        odd_orders = range(1, 2 * t, 2)
        expected = np.array(
            [
                _reference_syndromes(params, BitString(np.packbits(w).tobytes(), n), odd_orders)
                for w in words
            ]
        )
        packed = np.packbits(words, axis=1)
        for rows in (1, 2, 16, 17, 256, 257):
            odd = codec_for(params)._odd_syndromes(packed[:rows])
            assert odd.dtype == np.uint16 and odd.shape == (rows, t)
            assert np.array_equal(odd, expected[:rows])

    @pytest.mark.parametrize("params", [CodeParams(63, 6), PROD_CODE], ids=["n63", "n511"])
    def test_locators_match_locator(self, params):
        """Error patterns within t, with S_1 = 0, beyond t, uniform random
        words, and codewords of a code with t' < t, whose first 2t'
        syndromes vanish, so their locators start growing late and by
        much; cycled, and every row checked against ``_locator``."""
        codec = codec_for(params)
        n, t = params.n, params.t
        smaller = [codec_for(CodeParams(n, u)) for u in range(1, t)]
        rng = np.random.default_rng(3 * n)
        errors = np.zeros((256, n), dtype=np.uint8)
        for i, row in enumerate(errors):
            kind, size = i % 5, i // 5
            if kind == 0:
                row[rng.choice(n, size=size % (t + 1), replace=False)] = 1
            elif kind == 1:
                powers = _zero_first_syndrome_errors(n, rng, 1 + size % (t // 3 + 2))
                row[[n - 1 - p for p in powers]] = 1  # bit j carries alpha^(n-1-j)
            elif kind == 2:
                row[rng.choice(n, size=t + 1 + size % t, replace=False)] = 1
            elif kind == 3:
                row[:] = rng.integers(0, 2, size=n)
            else:
                code = smaller[size % len(smaller)]
                row[:] = _unpack(code.encode(_random_message(rng, code.params.k)))
        packed = np.packbits(errors, axis=1)
        assert not codec._odd_syndromes(packed[1::5])[:, 0].any()
        ok, _ = codec.decode_batch(packed[:16])
        assert ok.any() and not ok.all()
        for rows in (1, 2, 16, 63, 256):
            odd = codec._odd_syndromes(packed[:rows])
            length, coefficients = codec._locators(odd)
            assert coefficients.shape == (rows, length.max() + 1)
            for i in range(rows):
                logs = codec._locator(odd[i].tolist())
                assert length[i] == len(logs) - 1
                assert [codec._exp[v] for v in logs] == coefficients[i, : len(logs)].tolist()
                assert not coefficients[i, len(logs) :].any()

    def test_chunk_memory_bound(self):
        """A report chunk of random words keeps its temporaries under 4 KiB
        per row (3.2 KB measured at 256 and 512 rows)."""
        codec = codec_for(PROD_CODE)
        rng = np.random.default_rng(256)
        bits = rng.integers(0, 2, size=(evaluate._BATCH_CHUNK, PROD_CODE.n), dtype=np.uint8)
        words = np.packbits(bits, axis=1)
        codec.decode_batch(words)
        tracemalloc.start()
        try:
            codec.decode_batch(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 << 10) * evaluate._BATCH_CHUNK

    def test_decode_runs_no_chunk_stage(self, monkeypatch):
        """``decode`` is the one-word pipeline: it never reaches
        ``decode_batch`` or the numpy stages it runs."""
        codec = BchCodec(PROD_CODE)
        for name in ("decode_batch", "_locators", "_roots"):
            monkeypatch.setattr(codec, name, None)
        rng = np.random.default_rng(7)
        msg = _random_message(rng, PROD_CODE.k)
        word = _with_flips(codec.encode(msg), rng.choice(PROD_CODE.n, size=8, replace=False))
        assert codec.decode(word) == msg


DECODER_TABLES = {"_syndrome_table", "_root_table", "_root_ints"}


class TestLazyTables:
    """Each decoder table is built on first use by the pipeline that reads
    it, so a codec that only encodes, as enrollment does, holds none."""

    def _word(self, codec, seed):
        rng = np.random.default_rng(seed)
        msg = _random_message(rng, PROD_CODE.k)
        return msg, _with_flips(codec.encode(msg), rng.choice(PROD_CODE.n, size=8, replace=False))

    def test_encode_builds_no_decoder_table(self):
        codec = BchCodec(PROD_CODE)
        codec.encode(BitString.from_int(0, PROD_CODE.k))
        assert not DECODER_TABLES & vars(codec).keys()

    def test_decode_builds_no_batch_root_table(self):
        codec = BchCodec(PROD_CODE)
        msg, word = self._word(codec, 17)
        assert codec.decode(word) == msg
        assert DECODER_TABLES & vars(codec).keys() == {"_syndrome_table", "_root_ints"}

    def test_decode_batch_builds_no_scalar_root_table(self):
        codec = BchCodec(PROD_CODE)
        msg, word = self._word(codec, 18)
        ok, messages = codec.decode_batch(np.frombuffer(word.data, np.uint8)[None])
        assert ok[0] and messages[0].tobytes() == msg.data
        assert DECODER_TABLES & vars(codec).keys() == {"_syndrome_table", "_root_table"}

    @pytest.mark.parametrize(
        "params, bound",
        [(PROD_CODE, 256 << 10), (CodeParams(1023, 511), 1 << 20)],
        ids=["n511", "n1023"],
    )
    def test_encoder_memory_bound(self, params, bound):
        """Building a codec and encoding one message retain only the
        encoder's share: about 124 KiB, where the decoder tables take 2.75
        MiB at (511, 259, 30) and 114 MiB at (1023, 1, 511)."""
        msg = BitString.from_int(0, params.k)
        tracemalloc.start()
        try:
            codec = BchCodec(params)
            codec.encode(msg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < bound

    def test_first_calls_race_safely(self):
        """Eight threads make the first ``decode`` and ``decode_batch``
        calls on one fresh codec, in both orders. A racing first call may
        build a table twice, but no thread may read a partial one."""
        reference = codec_for(PROD_CODE)
        rng = np.random.default_rng(19)
        words = [
            _with_flips(reference.encode(_random_message(rng, PROD_CODE.k)),
                        rng.choice(PROD_CODE.n, size=weight, replace=False))
            for weight in (0, 8, 30, 31, 60)
        ]
        packed = np.stack([np.frombuffer(w.data, np.uint8) for w in words])
        expected = [reference.decode(w) for w in words]
        expected_ok, expected_messages = reference.decode_batch(packed)
        codec = BchCodec(PROD_CODE)
        assert not DECODER_TABLES & vars(codec).keys()
        barrier = threading.Barrier(8, timeout=60)

        def first_calls(i):
            barrier.wait()
            if i % 2:
                return [codec.decode(w) for w in words], codec.decode_batch(packed)
            batch = codec.decode_batch(packed)
            return [codec.decode(w) for w in words], batch

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(first_calls, range(8)))
        finally:
            sys.setswitchinterval(interval)
        for decoded, (ok, messages) in results:
            assert decoded == expected
            assert np.array_equal(ok, expected_ok)
            assert np.array_equal(messages, expected_messages)
        assert DECODER_TABLES <= vars(codec).keys()


class TestZeroCases:
    @pytest.mark.parametrize("params", [SMALL_CODE, PROD_CODE])
    def test_zero_message_zero_codeword(self, params):
        zero = codec_for(params).encode(BitString.from_int(0, params.k))
        assert zero == BitString.from_int(0, params.n)

    @pytest.mark.parametrize("params", [SMALL_CODE, PROD_CODE])
    def test_zero_word_zero_message(self, params):
        zero = codec_for(params).decode(BitString.from_int(0, params.n))
        assert zero == BitString.from_int(0, params.k)


class TestProductionCode:
    def test_dimensions(self):
        msg = BitString.from_int(0, PROD_CODE.k)
        assert codec_for(PROD_CODE).encode(msg).n == 511
        assert PROD_CODE.k >= 256

    def test_linearity(self):
        codec = codec_for(PROD_CODE)
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = _random_message(rng, PROD_CODE.k)
            b = _random_message(rng, PROD_CODE.k)
            assert codec.encode(a) ^ codec.encode(b) == codec.encode(a ^ b)

    def test_systematic_prefix(self):
        rng = np.random.default_rng(12)
        msg = _random_message(rng, PROD_CODE.k)
        cw = codec_for(PROD_CODE).encode(msg)
        assert np.array_equal(_unpack(cw)[: PROD_CODE.k], _unpack(msg))

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
        assert codec_for(PROD_CODE).encode(msg) == codec_for(PROD_CODE).encode(msg)


class TestLengthContracts:
    def test_encode_length_mismatch(self):
        with pytest.raises(ValueError):
            codec_for(SMALL_CODE).encode(BitString.from_int(0, 8))

    def test_decode_length_mismatch(self):
        with pytest.raises(ValueError):
            codec_for(SMALL_CODE).decode(BitString.from_int(0, 16))
