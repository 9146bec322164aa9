import dataclasses
import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from bbcreds import synthbio
from bbcreds.ecc import BchCodec
from bbcreds.fextract import HelperData, fe_reproduce_batch
from bbcreds.kdf import expand_seed
from bbcreds.quantize import BitString, QuantizerConfig, quantize
from bbcreds.synthbio import (
    Embedding,
    NoiseModel,
    new_identity,
    sample_genuine,
    sample_impostor,
    sample_impostors,
)

QCFG = QuantizerConfig.default(511)


def test_new_identity_deterministic():
    a = new_identity(1)
    b = new_identity(1)
    assert np.array_equal(a.values, b.values)


def test_distinct_seeds_give_distinct_identities():
    a = new_identity(1)
    b = new_identity(2)
    assert np.any(a.values != b.values)


def test_identity_mean_is_unit_norm():
    p = new_identity(7)
    assert abs(np.linalg.norm(p.values) - 1.0) <= 1e-6


def test_zero_noise_returns_mean_exactly():
    p = new_identity(3)
    for seed in (0, 1, 99):
        s = sample_genuine(p, NoiseModel(0.0), seed)
        assert np.array_equal(s.values, p.values)


def test_zero_noise_quantizes_like_mean():
    p = new_identity(5)
    q_mean = quantize(p, QCFG)
    for seed in range(20):
        assert quantize(sample_genuine(p, NoiseModel(0.0), seed), QCFG) == q_mean


def test_sample_genuine_deterministic():
    p = new_identity(9)
    noise = NoiseModel(0.02)
    a = sample_genuine(p, noise, 1234)
    b = sample_genuine(p, noise, 1234)
    assert np.array_equal(a.values, b.values)
    c = sample_genuine(p, noise, 1235)
    assert np.any(a.values != c.values)


def test_sample_genuine_unit_norm():
    p = new_identity(11)
    s = sample_genuine(p, NoiseModel(0.1), 4)
    assert abs(np.linalg.norm(s.values) - 1.0) <= 1e-6


def test_mean_bit_noise_monotone_in_sigma():
    # Monte-Carlo oracle: noisier captures flip more quantized bits.
    p = new_identity(11)
    reference = quantize(p, QCFG)
    means = []
    for sigma in (0.01, 0.02, 0.05):
        noise = NoiseModel(sigma)
        total = sum(
            (quantize(sample_genuine(p, noise, seed), QCFG) ^ reference).as_int().bit_count()
            for seed in range(1000)
        )
        means.append(total / 1000)
    assert means[0] <= means[1] <= means[2]
    assert means[0] > 0


def test_impostor_distance_concentrates_at_half():
    # Against a fixed identity, impostor bits are fair coins: distance is
    # Binomial(511, 1/2). Check the 1000-trial mean at 99% confidence and
    # the looser single-draw band on every trial.
    p = new_identity(3)
    reference = quantize(p, QCFG)
    n = QCFG.code_length
    dists = np.array(
        [
            (quantize(sample_impostor(seed), QCFG) ^ reference).as_int().bit_count()
            for seed in range(1000)
        ]
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
    e0 = np.zeros(512)
    e0[0] = 1.0
    at_e0 = Embedding(e0)

    def unit(v):
        return v / np.linalg.norm(v)

    for seed in range(100):
        identity = unit(new_identity(seed).values[1:])
        impostor = unit(sample_impostor(seed).values[1:])
        noise = unit(sample_genuine(at_e0, NoiseModel(0.003), seed).values[1:])
        # Independent Gaussian directions in 511 dimensions have |cos| of
        # about 0.044; 0.5 is over 11 standard deviations away.
        for a, b in ((identity, impostor), (identity, noise), (impostor, noise)):
            assert abs(float(a @ b)) < 0.5


def test_impostor_deterministic_and_normalized():
    a = sample_impostor(42)
    b = sample_impostor(42)
    assert np.array_equal(a.values, b.values)
    assert abs(np.linalg.norm(a.values) - 1.0) <= 1e-6


def test_impostor_capture_keeps_only_its_row():
    # A one-row window is a view of its whole 16-row block (64 KiB); the
    # capture keeps its 4 KiB row.
    tracemalloc.start()
    try:
        captures = [sample_impostor(seed) for seed in range(64)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(captures) == 64 and held < 64 * 2 * 4096


@pytest.mark.parametrize("count", [1, 2, 15, 16, 17, 255, 256, 257])
def test_impostor_windows_agree(count):
    # Any window of a stream equals the same rows of a longer window. The
    # starts and counts straddle the 16-row block, and the counts also
    # evaluate._BATCH_CHUNK, the row count of one report chunk.
    seed = 2**64 - 1 - 7919
    for first in (0, 5, 15, 16, 250):
        rows = sample_impostors(seed, first, count)
        assert rows.shape == (count, 512)
        assert np.array_equal(rows, sample_impostors(seed, 0, first + count)[first:])
    first_row = sample_impostors(seed, 0, count)[0]
    assert np.array_equal(sample_impostor(seed).values, first_row)


def test_impostor_window_bounds():
    assert sample_impostors(1, 0, 0).shape == (0, 512)
    assert sample_impostors(1, 17, 0).shape == (0, 512)
    for first, count in ((-1, 1), (0, -1), (-16, 16)):
        with pytest.raises(ValueError, match="first >= 0 and count >= 0"):
            sample_impostors(1, first, count)


def test_impostor_values_are_standard_normal():
    # Stream v3 seeds each block's PCG64 with raw SHAKE-256 words, bypassing
    # numpy's SeedSequence mixing, so check the values it then draws:
    # sqrt(512) times a row of a normalized Gaussian vector is close to
    # N(0, 1). 200 rows of one stream span 13 blocks.
    from scipy import stats

    rows = sample_impostors(0, 0, 200)
    values = (np.sqrt(512) * rows).ravel()
    assert stats.kstest(values, "norm").pvalue > 1e-4
    # 102400 fair signs have a standard deviation of 160 around half.
    assert abs(int((values > 0).sum()) - values.size // 2) < 5 * 160
    # Adjacent rows, the first rows of adjacent blocks and the first rows
    # of adjacent seeds are unrelated: |cos| is about 0.044 in 512-d.
    assert np.all(np.abs(np.vecdot(rows[:-1], rows[1:])) < 0.3)
    firsts = rows[::16]
    assert np.all(np.abs(np.vecdot(firsts[:-1], firsts[1:])) < 0.3)
    seeds = np.array([sample_impostor(seed).values for seed in range(200)])
    assert np.all(np.abs(np.vecdot(seeds[:-1], seeds[1:])) < 0.3)


def test_negative_sigma_rejected():
    for sigma in (-0.1, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseModel(sigma)
    assert NoiseModel(1.0).sigma == 1.0


def test_embedding_invariants():
    # Every case has 512 coordinates, so no shape refusal stands in for it.
    with pytest.raises(ValueError, match=r"^embedding must be unit norm \(got 22\.62741700\)$"):
        Embedding(np.ones(512))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^embedding values must be finite$"):
            Embedding(np.array([bad] + [0.0] * 511))
    v = np.ones(512) / np.sqrt(512)
    assert np.array_equal(Embedding(v).values, v)


def test_dim_knob_is_gone(monkeypatch):
    # Every embedding has 512 coordinates: no sampler takes a dimension, no
    # config states one, and no value of another shape becomes an Embedding
    # or reaches the decoder.
    for call in (
        lambda: new_identity(1, 512),
        lambda: sample_impostor(1, 512),
        lambda: sample_impostors(1, 0, 1, 512),
    ):
        with pytest.raises(TypeError):
            call()
    assert {name for name in vars(synthbio) if name.endswith("DIM")} == {"DEFAULT_DIM"}
    assert not hasattr(Embedding, "dim")
    assert tuple(f.name for f in dataclasses.fields(QuantizerConfig)) == ("code_length",)
    for code_length in (0, 513):
        with pytest.raises(ValueError, match=r"^code_length must be in \[1, 512\]"):
            QuantizerConfig(code_length)
    for shape in ((511,), (513,), (0,), (2, 512)):
        with pytest.raises(ValueError) as err:
            Embedding(np.ones(shape) / np.sqrt(shape[-1] or 1))
        assert str(err.value) == f"an embedding has 512 values, got shape {shape}"

    def decode_batch(*args):
        raise AssertionError("a (rows, 600) matrix reached the decoder")

    monkeypatch.setattr(BchCodec, "decode_batch", decode_batch)
    helper = HelperData(bytes(16), BitString(bytes(64), 511))
    with pytest.raises(ValueError, match=r"^an embedding has 512 values, got shape \(600,\)$"):
        fe_reproduce_batch(np.ones((2, 600)) / np.sqrt(600), [helper, helper])


class _ExpandedSeed(ISeedSequence):
    """The state ``PCG64`` asks for: four little-endian uint64 words read
    from the 32 bytes ``expand_seed`` gives for (seed, label)."""

    def __init__(self, seed, label):
        self.seed, self.label = seed, label

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        raw = expand_seed(self.seed, self.label, 8 * n_words)
        words = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)]
        return np.array(words, dtype=np.uint64)


def _reference_normals(seed, label, count):
    """The stream rule every sampler follows: the first ``count`` normals of
    a PCG64 keyed by ``expand_seed(seed, label, 32)``."""
    return np.random.Generator(np.random.PCG64(_ExpandedSeed(seed, label))).standard_normal(count)


def test_identity_and_genuine_follow_kdf_stream():
    for seed in (0, 3, 2**64 - 1):
        mean = _reference_normals(seed, "bbcreds/synthbio/identity/v2", 512)
        mean /= np.linalg.norm(mean)
        profile = new_identity(seed)
        assert np.array_equal(profile.values, mean)
        capture = mean + 0.003 * _reference_normals(seed, "bbcreds/synthbio/genuine/v2", 512)
        capture /= np.linalg.norm(capture)
        assert np.array_equal(sample_genuine(profile, NoiseModel(0.003), seed).values, capture)
        # Impostor block 1 of stream v3 keys its generator by the same rule.
        block = _reference_normals(seed, "bbcreds/synthbio/impostor/v3/1", 16 * 512)
        block = block.reshape(16, 512)
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        np.testing.assert_allclose(sample_impostors(seed, 16, 16), block, rtol=0, atol=1e-15)


@pytest.mark.parametrize("blocks", [2, 3, 38])
def test_impostor_windows_follow_kdf_stream(blocks):
    # Windows that the two-thread fill splits: each row is the oracle's
    # row of its block, whichever thread filled it.
    for seed in (0, 2**64 - 1):
        for first in (0, 5, 16):
            count = 16 * blocks - first % 16 - 1
            b0, b1 = first // 16, (first + count - 1) // 16
            assert b1 - b0 + 1 == blocks
            stream = np.concatenate([
                _reference_normals(seed, f"bbcreds/synthbio/impostor/v3/{b}", 16 * 512)
                for b in range(b0, b1 + 1)
            ]).reshape(-1, 512)
            rows = stream[first - 16 * b0:first - 16 * b0 + count]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            np.testing.assert_allclose(
                sample_impostors(seed, first, count), rows, rtol=0, atol=1e-15
            )


@pytest.mark.parametrize(
    "first, count, blocks",
    [(5, 59, [0, 1, 2, 3]), (17, 0, []), (0, 0, [])],
    ids=["rows-5-to-63", "empty-at-17", "empty-at-0"],
)
def test_windows_seed_each_block_they_touch_once(monkeypatch, first, count, blocks):
    labels = []
    expand = synthbio.expand_seed

    def counting_expand(seed, label, nbytes):
        labels.append(label)
        return expand(seed, label, nbytes)

    monkeypatch.setattr(synthbio, "expand_seed", counting_expand)
    assert sample_impostors(1, first, count).shape == (count, 512)
    assert sorted(labels) == [f"bbcreds/synthbio/impostor/v3/{b}" for b in blocks]


class _BlockFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 3])
def test_failed_block_raises_and_leaves_no_thread(monkeypatch, failing):
    # Rows 5 .. 63 span blocks 0 to 3: the caller fills blocks 0 and 1, the
    # helper thread blocks 2 and 3. A failure in either half reaches the
    # caller, and the helper is gone when the call returns.
    generator = synthbio._generator
    threads = {}

    def failing_generator(seed, label):
        block = int(label.rsplit("/", 1)[1])
        threads[block] = threading.current_thread()
        if block == failing:
            raise _BlockFailed(block)
        return generator(seed, label)

    monkeypatch.setattr(synthbio, "_generator", failing_generator)
    before = threading.active_count()
    with pytest.raises(_BlockFailed) as failure:
        sample_impostors(1, 5, 59)
    assert failure.value.args == (failing,)
    assert threading.active_count() == before
    assert (threads[failing] is threading.current_thread()) == (failing < 2)


def test_one_block_windows_start_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for first, count in ((0, 1), (5, 11), (16, 16), (250, 6)):
        sample_impostors(7, first, count)
    sample_impostor(7)
    assert started == []
    sample_impostors(7, 15, 2)  # rows 15 and 16 lie in two blocks
    assert len(started) == 1 and not started[0].is_alive()


def _serial_rows(seed, first, count):
    """Rows of an impostor window, read one block at a time: every call is
    a one-block window, which starts no thread."""
    parts, row, stop = [], first, first + count
    while row < stop:
        end = min(row - row % 16 + 16, stop)
        parts.append(sample_impostors(seed, row, end - row))
        row = end
    return np.concatenate(parts)


def test_concurrent_callers_get_their_serial_rows():
    # Four callers, each with its own helper thread, on distinct streams,
    # with the interpreter switching threads as often as it can.
    windows = [(seed, 8 + 512 * seed) for seed in range(4)]
    expected = [_serial_rows(seed, first, 512) for seed, first in windows]
    results = [[] for _ in windows]

    def call(index):
        seed, first = windows[index]
        for _ in range(6):
            results[index].append(sample_impostors(seed, first, 512))

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(windows))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    for rows, reference in zip(results, expected):
        assert len(rows) == 6
        for window in rows:
            assert np.array_equal(window, reference)


def test_unseeded_draws_follow_the_kdf_rule(monkeypatch):
    # A seed of None reaches os.urandom only through kdf.expand_seed, so
    # with the OS bytes fixed two unseeded captures are the same capture.
    mean = new_identity(5)
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
    first = sample_genuine(mean, NoiseModel(0.003), None).values
    assert np.array_equal(sample_genuine(mean, NoiseModel(0.003), None).values, first)
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(1, n + 1)))
    assert np.any(sample_genuine(mean, NoiseModel(0.003), None).values != first)


def test_identity_and_genuine_values_are_standard_normal():
    # The identity and genuine streams key PCG64 with raw SHAKE-256 words
    # too, bypassing numpy's SeedSequence mixing, so their values get the
    # checks test_impostor_values_are_standard_normal makes. A capture of
    # the basis vector e0 carries its noise direction in coordinates 1..
    from scipy import stats

    e0 = np.zeros(512)
    e0[0] = 1.0
    at_e0 = Embedding(e0)
    identities = np.array([new_identity(seed).values for seed in range(200)])
    noise = np.array(
        [sample_genuine(at_e0, NoiseModel(0.003), seed).values[1:] for seed in range(200)]
    )
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    for rows in (identities, noise):
        values = (np.sqrt(rows.shape[1]) * rows).ravel()
        assert stats.kstest(values, "norm").pvalue > 1e-4
        # About 102400 fair signs have a standard deviation of 160 around half.
        assert abs(int((values > 0).sum()) - values.size // 2) < 5 * 160
        # Adjacent seeds are unrelated: |cos| is about 0.044 in 512-d.
        assert np.all(np.abs(np.vecdot(rows[:-1], rows[1:])) < 0.3)


def test_impostor_rows_pinned():
    rows = sample_impostors(0, 0, 300)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "edd4d121531fc6949dfc2126e88173c03a9cbdef03ffa9b329224af0d67406be"
    )
