import numpy as np
import pytest

from bbcreds.quantize import QuantizerConfig, hamming, quantize
from bbcreds.synthbio import (
    Embedding,
    IdentityProfile,
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
    assert np.array_equal(a.mean.values, b.mean.values)


def test_distinct_seeds_give_distinct_identities():
    a = new_identity(1, 512)
    b = new_identity(2, 512)
    assert np.any(a.mean.values != b.mean.values)


def test_identity_mean_is_unit_norm():
    p = new_identity(7, 512)
    assert abs(np.linalg.norm(p.mean.values) - 1.0) <= 1e-6


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
        assert np.array_equal(s.values, p.mean.values)


def test_zero_noise_quantizes_like_mean():
    p = new_identity(5, 512)
    q_mean = quantize(p.mean, QCFG)
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
    reference = quantize(p.mean, QCFG)
    means = []
    for sigma in (0.01, 0.02, 0.05):
        noise = NoiseModel(sigma)
        total = sum(
            hamming(quantize(sample_genuine(p, noise, seed), QCFG), reference)
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
    reference = quantize(p.mean, QCFG)
    n = QCFG.code_length
    dists = np.array(
        [hamming(quantize(sample_impostor(seed, 512), QCFG), reference) for seed in range(1000)]
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
    at_e0 = IdentityProfile(mean=Embedding(e0), seed=0)

    def unit(v):
        return v / np.linalg.norm(v)

    for seed in range(100):
        identity = unit(new_identity(seed, dim).mean.values[1:])
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


def test_impostor_rows_are_single_samples():
    # Each row comes from its own seed's stream, whatever else is in the list.
    seeds = [5, 42, 7, 42]
    rows = sample_impostors(seeds, 64)
    assert rows.shape == (4, 64)
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, sample_impostor(seed, 64).values)
    assert sample_impostors([], 64).shape == (0, 64)
    with pytest.raises(ValueError):
        sample_impostors([1], 7)


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
