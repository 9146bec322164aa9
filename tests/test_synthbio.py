import hashlib

import numpy as np
import pytest

from bbcreds.kdf import subseed
from bbcreds.quantize import QuantizerConfig, quantize
from bbcreds.synthbio import (
    Embedding,
    NoiseModel,
    new_identity,
    sample_genuine,
    sample_impostor,
    sample_impostors,
)

QCFG = QuantizerConfig.default(512, 511)


def test_new_identity_deterministic():
    a = new_identity(1, 512)
    b = new_identity(1, 512)
    assert np.array_equal(a.values, b.values)


def test_distinct_seeds_give_distinct_identities():
    a = new_identity(1, 512)
    b = new_identity(2, 512)
    assert np.any(a.values != b.values)


def test_identity_mean_is_unit_norm():
    p = new_identity(7, 512)
    assert abs(np.linalg.norm(p.values) - 1.0) <= 1e-6


@pytest.mark.parametrize("dim", [0, 1, 7])
def test_dim_too_small_rejected(dim):
    with pytest.raises(ValueError):
        new_identity(1, dim)
    with pytest.raises(ValueError):
        sample_impostor(1, dim)


def test_zero_noise_returns_mean_exactly():
    p = new_identity(3, 512)
    for seed in (0, 1, 99):
        s = sample_genuine(p, NoiseModel(0.0), seed)
        assert np.array_equal(s.values, p.values)


def test_zero_noise_quantizes_like_mean():
    p = new_identity(5, 512)
    q_mean = quantize(p, QCFG)
    for seed in range(20):
        assert quantize(sample_genuine(p, NoiseModel(0.0), seed), QCFG) == q_mean


def test_sample_genuine_deterministic():
    p = new_identity(9, 512)
    noise = NoiseModel(0.02)
    a = sample_genuine(p, noise, 1234)
    b = sample_genuine(p, noise, 1234)
    assert np.array_equal(a.values, b.values)
    c = sample_genuine(p, noise, 1235)
    assert np.any(a.values != c.values)


def test_sample_genuine_unit_norm():
    p = new_identity(11, 512)
    s = sample_genuine(p, NoiseModel(0.1), 4)
    assert abs(np.linalg.norm(s.values) - 1.0) <= 1e-6


def test_mean_bit_noise_monotone_in_sigma():
    # Monte-Carlo oracle: noisier captures flip more quantized bits.
    p = new_identity(11, 512)
    reference = quantize(p, QCFG)
    means = []
    for sigma in (0.01, 0.02, 0.05):
        noise = NoiseModel(sigma)
        total = sum(
            (quantize(sample_genuine(p, noise, seed), QCFG) ^ reference).weight()
            for seed in range(1000)
        )
        means.append(total / 1000)
    assert means[0] <= means[1] <= means[2]
    assert means[0] > 0


def test_impostor_distance_concentrates_at_half():
    # Against a fixed identity, impostor bits are fair coins: distance is
    # Binomial(511, 1/2). Check the 1000-trial mean at 99% confidence and
    # the looser single-draw band on every trial.
    p = new_identity(3, 512)
    reference = quantize(p, QCFG)
    n = QCFG.code_length
    dists = np.array(
        [(quantize(sample_impostor(seed, 512), QCFG) ^ reference).weight() for seed in range(1000)]
    )
    half_width = 5 * np.sqrt(n / 4)
    assert abs(dists.mean() - n / 2) <= half_width
    assert np.all(np.abs(dists - n / 2) <= half_width)
    z99 = 2.5758293035489004
    assert abs(dists.mean() - n / 2) <= z99 * np.sqrt(n / 4) / np.sqrt(1000)


def test_role_streams_independent_for_one_seed():
    # One seed used as identity, genuine-noise and impostor seed must give
    # three unrelated vectors. Enrolling at the basis vector e0 leaves the
    # noise direction g[1:] readable from coordinates 1.. of the capture.
    dim = 512
    e0 = np.zeros(dim)
    e0[0] = 1.0
    at_e0 = Embedding(e0)

    def unit(v):
        return v / np.linalg.norm(v)

    for seed in range(100):
        identity = unit(new_identity(seed, dim).values[1:])
        impostor = unit(sample_impostor(seed, dim).values[1:])
        noise = unit(sample_genuine(at_e0, NoiseModel(0.003), seed).values[1:])
        # Independent Gaussian directions in 511 dimensions have |cos| of
        # about 0.044; 0.5 is over 11 standard deviations away.
        for a, b in ((identity, impostor), (identity, noise), (impostor, noise)):
            assert abs(float(a @ b)) < 0.5


def test_impostor_deterministic_and_normalized():
    a = sample_impostor(42, 512)
    b = sample_impostor(42, 512)
    assert np.array_equal(a.values, b.values)
    assert abs(np.linalg.norm(a.values) - 1.0) <= 1e-6


@pytest.mark.parametrize("count", [1, 2, 15, 16, 17, 255, 256, 257])
def test_impostor_windows_agree(count):
    # Any window of a stream equals the same rows of a longer window. The
    # starts and counts straddle the 16-row block, and the counts also
    # ecc._BATCH_CHUNK, the row count of one report chunk.
    seed = 2**64 - 1 - 7919
    for first in (0, 5, 15, 16, 250):
        rows = sample_impostors(seed, first, count, 64)
        assert rows.shape == (count, 64)
        assert np.array_equal(rows, sample_impostors(seed, 0, first + count, 64)[first:])
    first_row = sample_impostors(seed, 0, count, 64)[0]
    assert np.array_equal(sample_impostor(seed, 64).values, first_row)


def test_impostor_window_bounds():
    assert sample_impostors(1, 0, 0, 64).shape == (0, 64)
    assert sample_impostors(1, 17, 0, 64).shape == (0, 64)
    for first, count in ((-1, 1), (0, -1), (-16, 16)):
        with pytest.raises(ValueError, match="first >= 0 and count >= 0"):
            sample_impostors(1, first, count, 64)
    with pytest.raises(ValueError):
        sample_impostors(1, 0, 1, 7)


def test_impostor_values_are_standard_normal():
    # Stream v3 seeds each block's PCG64 with raw SHAKE-256 words, bypassing
    # numpy's SeedSequence mixing, so check the values it then draws:
    # sqrt(dim) times a row of a normalized Gaussian vector is close to
    # N(0, 1). 200 rows of one stream span 13 blocks.
    from scipy import stats

    dim = 512
    rows = sample_impostors(0, 0, 200, dim)
    values = (np.sqrt(dim) * rows).ravel()
    assert stats.kstest(values, "norm").pvalue > 1e-4
    # 102400 fair signs have a standard deviation of 160 around half.
    assert abs(int((values > 0).sum()) - values.size // 2) < 5 * 160
    # Adjacent rows, the first rows of adjacent blocks and the first rows
    # of adjacent seeds are unrelated: |cos| is about 0.044 in 512-d.
    assert np.all(np.abs(np.vecdot(rows[:-1], rows[1:])) < 0.3)
    firsts = rows[::16]
    assert np.all(np.abs(np.vecdot(firsts[:-1], firsts[1:])) < 0.3)
    seeds = np.array([sample_impostor(seed, dim).values for seed in range(200)])
    assert np.all(np.abs(np.vecdot(seeds[:-1], seeds[1:])) < 0.3)


def test_negative_sigma_rejected():
    for sigma in (-0.1, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseModel(sigma)
    assert NoiseModel(1.0).sigma == 1.0


def test_embedding_invariants():
    with pytest.raises(ValueError):
        Embedding(np.ones(8))  # not unit norm
    with pytest.raises(ValueError):
        Embedding(np.array([np.nan] + [0.0] * 7))
    v = np.ones(16) / 4.0
    assert Embedding(v).dim == 16


def _reference_normals(seed, label, dim):
    """numpy's own stream for one role seed, the oracle of every sampler."""
    return np.random.default_rng(subseed(seed, label)).standard_normal(dim)


def test_identity_and_genuine_follow_numpy_stream():
    for seed in (0, 3, 2**64 - 1):
        mean = _reference_normals(seed, "bbcreds/synthbio/identity/v1", 512)
        mean /= np.linalg.norm(mean)
        profile = new_identity(seed, 512)
        assert np.array_equal(profile.values, mean)
        capture = mean + 0.003 * _reference_normals(seed, "bbcreds/synthbio/genuine/v1", 512)
        capture /= np.linalg.norm(capture)
        assert np.array_equal(sample_genuine(profile, NoiseModel(0.003), seed).values, capture)


def test_impostor_rows_pinned():
    rows = sample_impostors(0, 0, 300, 512)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "edd4d121531fc6949dfc2126e88173c03a9cbdef03ffa9b329224af0d67406be"
    )
