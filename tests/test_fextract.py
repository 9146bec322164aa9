import numpy as np
import pytest

from bbcreds.ecc import CodeParams
from bbcreds.fextract import (
    ExtractFailure,
    HelperData,
    StableKey,
    decode_helper,
    encode_helper,
    fe_generate,
    fe_reproduce,
    fe_reproduce_batch,
)
from bbcreds.quantize import BitString, QuantizerConfig, quantize
from bbcreds.synthbio import (
    Embedding,
    NoiseModel,
    new_identity,
    sample_genuine,
    sample_impostor,
    sample_impostors,
)

CODE = CodeParams(511, 259, 30)
QCFG = QuantizerConfig.default(512, 511)


@pytest.fixture(scope="module")
def enrolled():
    e = new_identity(1001, 512)
    key, helper = fe_generate(e, CODE, rng_seed=555)
    return e, key, helper


def _flip_coordinates(e: Embedding, positions) -> Embedding:
    values = e.values.copy()
    values[list(positions)] = -values[list(positions)]
    return Embedding(values)


def test_key_is_always_256_bits(enrolled):
    _, key, _ = enrolled
    assert len(key.key) == 32
    for seed in range(10):
        k, _ = fe_generate(new_identity(seed, 512), CODE, seed)
        assert len(k.key) == 32


def test_same_embedding_reproduces_key(enrolled):
    e, key, helper = enrolled
    assert fe_reproduce(e, helper) == key


def test_reproduce_deterministic(enrolled):
    e, _, helper = enrolled
    assert fe_reproduce(e, helper) == fe_reproduce(e, helper)


def test_generate_deterministic(enrolled):
    e, key, helper = enrolled
    key2, helper2 = fe_generate(e, CODE, rng_seed=555)
    assert key2 == key and helper2 == helper


def test_exactly_t_bit_flips_recover(enrolled):
    # Negating a coordinate keeps the norm and flips exactly that bit.
    e, key, helper = enrolled
    baseline = quantize(e, QCFG)
    rng = np.random.default_rng(77)
    for _ in range(100):
        positions = rng.choice(QCFG.code_length, size=CODE.t, replace=False)
        noisy = _flip_coordinates(e, positions)
        assert (quantize(noisy, QCFG) ^ baseline).weight() == CODE.t
        assert fe_reproduce(noisy, helper) == key


def test_distinct_seeds_distinct_outputs(enrolled):
    e, _, _ = enrolled
    keys = set()
    offsets = set()
    for seed in range(100):
        key, helper = fe_generate(e, CODE, seed)
        keys.add(key.key)
        offsets.add(helper.offset.data)
    assert len(keys) == 100
    assert len(offsets) == 100


def test_impostors_rejected_or_wrong_key(enrolled):
    e, key, helper = enrolled
    bad = 0
    for seed in range(10000):
        try:
            if fe_reproduce(sample_impostor(seed + 1, 512), helper) == key:
                bad += 1
        except ExtractFailure:
            pass
    assert bad == 0  # tolerance per contract: at most 1 in 10000


@pytest.fixture(scope="module")
def batch():
    """A sample matrix and its helpers: genuine captures of two identities
    at sigma 0.003 and 0.005, each against an enrollment from a capture at
    the same sigma, then impostors against two of those enrollments."""
    identities = {person: new_identity(person, 512) for person in (2001, 2002)}
    rows, helpers = [], []
    for sigma in (0.003, 0.005):
        for person, identity in identities.items():
            capture = sample_genuine(identity, NoiseModel(sigma), 1000)
            helper = fe_generate(capture, CODE, rng_seed=person)[1]
            for seed in range(30):
                rows.append(sample_genuine(identity, NoiseModel(sigma), seed).values)
                helpers.append(helper)
    for i, helper in enumerate((helpers[0], helpers[-1])):
        rows += list(sample_impostors(100 + i, 0, 20, 512))
        helpers += [helper] * 20
    return np.array(rows), helpers


def test_batch_equals_one_by_one(batch):
    samples, helpers = batch
    expected = []
    for row, helper in zip(samples, helpers):
        try:
            expected.append(fe_reproduce(Embedding(row), helper))
        except ExtractFailure:
            expected.append(None)
    assert fe_reproduce_batch(samples, helpers) == expected
    genuine, impostor = expected[:120], expected[120:]
    assert None in genuine and genuine.count(None) < len(genuine)
    assert impostor == [None] * 40


def test_batch_rejects_bad_input(batch):
    samples, helpers = batch
    nan, scaled = samples.copy(), samples.copy()
    nan[3, 7] = np.nan
    scaled[3] *= 2
    other_code = fe_generate(new_identity(7, 512), CodeParams(511, 268, 29), 1)[1]
    for bad_samples, bad_helpers in [
        (nan, helpers),
        (scaled, helpers),
        (samples[:, :511], helpers),
        (samples, helpers[:-1] + [other_code]),
        (samples, [helpers[0]] * (len(helpers) - 1) + [other_code]),
        (samples[:-1], helpers),
    ]:
        with pytest.raises(ValueError):
            fe_reproduce_batch(bad_samples, bad_helpers)


def test_key_never_windows_into_helper():
    for seed in range(1000):
        e = new_identity(seed, 512)
        key, helper = fe_generate(e, CODE, seed)
        assert key.key not in encode_helper(helper)


def test_helper_encoding_roundtrip(enrolled):
    _, _, helper = enrolled
    data = encode_helper(helper)
    assert len(data) == 1 + 16 + 8 + 64
    assert decode_helper(data) == helper


def test_helper_decoding_is_strict(enrolled):
    _, _, helper = enrolled
    data = encode_helper(helper)
    with pytest.raises(ValueError):
        decode_helper(data[:10])
    with pytest.raises(ValueError):
        decode_helper(data + b"\x00")
    with pytest.raises(ValueError):
        decode_helper(bytes([99]) + data[1:])  # unknown version


def test_dimension_mismatch_rejected(enrolled):
    _, _, helper = enrolled
    small = new_identity(5, 16)
    with pytest.raises(ValueError):
        fe_generate(small, CODE, 1)
    with pytest.raises(ValueError):
        fe_reproduce(small, helper)


def test_helper_invariants():
    with pytest.raises(ValueError):
        HelperData(
            salt=bytes(16),
            offset=BitString.zeros(255),
            code=CODE,
            quant=QCFG,
        )
    with pytest.raises(ValueError):
        HelperData(
            salt=bytes(15),
            offset=BitString.zeros(511),
            code=CODE,
            quant=QCFG,
        )
    with pytest.raises(ValueError, match="quantizer emits 255 bits"):
        HelperData(
            salt=bytes(16),
            offset=BitString.zeros(511),
            code=CODE,
            quant=QuantizerConfig.default(512, 255),
        )


def test_stable_key_invariant():
    with pytest.raises(ValueError):
        StableKey(bytes(31))
