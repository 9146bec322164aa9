"""Synthetic identities and noisy embedding samples.

Stands in for a face-embedding pipeline so the protocol can be exercised
and measured without biometric data. An identity is a unit-norm Gaussian
reference vector; genuine captures add per-coordinate Gaussian noise
before renormalization, impostor captures are fresh independent vectors.

All draws follow one rule. Each role draws from its own stream: a
``PCG64`` whose four state words are 32 bytes of ``kdf.expand_seed`` over
the caller's seed and the role's label, so a seed of None draws them from
the OS. Those bytes are already uniform, so numpy's ``SeedSequence`` hash
would only add cost. The labels keep the roles apart: one seed used as
identity (``bbcreds/synthbio/identity/v2``), genuine noise
(``bbcreds/synthbio/genuine/v2``) and impostor stream (v3) gives three
independent vectors. An identity, or the noise of a capture, is the first
512 normals of its stream. Row i of impostor stream s is row i mod 16
of block i // 16, and block b is the first 16 × 512 values, row-major, of
the stream labelled ``f"bbcreds/synthbio/impostor/v3/{b}"``. A window
draws every block it touches whole and slices out its rows, so it equals
the same rows of any longer window. The block size (``_IMPOSTOR_BLOCK``)
is part of the stream's format. A window of two or more blocks is drawn
on two threads, each filling its own blocks of one array, so its rows are
the same bytes as a serial fill; no thread outlives the call, and a
one-block window starts none. An identity is its
reference ``Embedding`` and nothing else; ``sample_genuine`` takes that
mean. Every embedding has ``DEFAULT_DIM`` = 512 coordinates; ``Embedding``
and ``check_unit_rows`` refuse any other shape.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .kdf import expand_seed

__all__ = [
    "DEFAULT_DIM",
    "Embedding",
    "NoiseModel",
    "new_identity",
    "sample_genuine",
    "sample_impostor",
    "sample_impostors",
    "check_unit_rows",
]

DEFAULT_DIM = 512

_IDENTITY_LABEL = "bbcreds/synthbio/identity/v2"
_GENUINE_LABEL = "bbcreds/synthbio/genuine/v2"
_IMPOSTOR_LABEL = "bbcreds/synthbio/impostor/v3"
_IMPOSTOR_BLOCK = 16


class _Words(ISeedSequence):
    """A seed sequence whose state is already drawn: ``PCG64`` asks it for
    four uint64 words once and gets the words it was built with."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _generator(seed: int | None, label: str) -> np.random.Generator:
    words = np.frombuffer(expand_seed(seed, label, 32), "<u8")
    return np.random.Generator(np.random.PCG64(_Words(words)))


def check_unit_rows(values: np.ndarray) -> None:
    """Raise ValueError unless ``values`` is a (rows, DEFAULT_DIM) float array
    whose rows are finite and unit norm. ``Embedding`` checks its vector as
    one row."""
    if values.shape[1:] != (DEFAULT_DIM,):  # also refuses 1-d and 3-d arrays
        raise ValueError(f"an embedding has {DEFAULT_DIM} values, got shape {values.shape[1:]}")
    for square in np.vecdot(values, values).tolist():
        norm = math.sqrt(square)
        # A NaN or infinite value makes its row's norm fail this test too.
        if not abs(norm - 1.0) <= 1e-6:
            if not np.isfinite(values).all():
                raise ValueError("embedding values must be finite")
            raise ValueError(f"embedding must be unit norm (got {norm:.8f})")


@dataclass(frozen=True, eq=False)
class Embedding:
    """Unit-norm 512-d real vector standing in for a biometric template."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        check_unit_rows(v[None])


@dataclass(frozen=True)
class NoiseModel:
    """Per-dimension Gaussian capture noise (std-dev before renormalization)."""

    sigma: float

    def __post_init__(self) -> None:
        # At sigma = 1 the noise is sqrt(512) times the unit signal, so a
        # capture carries no identity; larger values only risk overflow.
        if not 0 <= self.sigma <= 1:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")


def _normalized(v: np.ndarray) -> Embedding:
    # np.linalg.norm's own formula for a 1-d float vector, without its dispatch.
    return Embedding(v / np.sqrt(v.dot(v)))


def new_identity(seed: int) -> Embedding:
    """A reproducible identity: its unit-norm Gaussian reference embedding."""
    return _normalized(_generator(seed, _IDENTITY_LABEL).standard_normal(DEFAULT_DIM))


def sample_genuine(mean: Embedding, noise: NoiseModel, rng_seed: int | None) -> Embedding:
    """A noisy capture of the identity ``mean``: normalize(mean + sigma * g).

    With sigma == 0 the reference is returned unchanged (it is already
    unit norm), so zero-noise captures are bit-identical to the mean.
    """
    if noise.sigma == 0.0:
        return Embedding(mean.values.copy())
    g = _generator(rng_seed, _GENUINE_LABEL).standard_normal(DEFAULT_DIM)
    return _normalized(mean.values + noise.sigma * g)


def sample_impostor(rng_seed: int) -> Embedding:
    """An identity-independent capture: row 0 of impostor stream ``rng_seed``."""
    # A copy, so the capture does not keep its whole 16-row block alive.
    return Embedding(sample_impostors(rng_seed, 0, 1)[0].copy())


def sample_impostors(rng_seed: int, first: int, count: int) -> np.ndarray:
    """Rows ``first`` .. ``first + count - 1`` of impostor stream ``rng_seed``
    as one (count, DEFAULT_DIM) array of fresh normalized Gaussian vectors,
    which may be a view into the blocks drawn for it. Every block the window
    touches is drawn whole by its own generator, and an empty window draws
    none. The rows are normalized here and checked where they are read:
    ``Embedding`` checks one, ``fe_reproduce_batch`` a matrix.

    numpy releases the interpreter lock while it fills a block, so a window
    of two or more blocks is drawn on two threads: the first half of its
    blocks on the caller's thread, the rest on one helper that writes only
    its own blocks. The rows are the same bytes as a serial fill. The
    helper is joined before the call returns or raises, and a one-block
    window starts none."""
    if first < 0 or count < 0:
        raise ValueError(f"impostor rows need first >= 0 and count >= 0, got {first}, {count}")
    start = first // _IMPOSTOR_BLOCK
    stop = (first + count - 1) // _IMPOSTOR_BLOCK + 1 if count else start
    blocks = range(start, stop)
    drawn = np.empty((len(blocks), _IMPOSTOR_BLOCK, DEFAULT_DIM))
    split = (len(blocks) + 1) // 2
    if split == len(blocks):
        _fill_blocks(rng_seed, blocks, drawn)
    else:
        errors: list[Exception] = []

        def fill_rest() -> None:
            try:
                _fill_blocks(rng_seed, blocks[split:], drawn[split:])
            except Exception as error:  # re-raised on the caller's thread
                errors.append(error)

        helper = threading.Thread(target=fill_rest)
        helper.start()
        try:
            _fill_blocks(rng_seed, blocks[:split], drawn[:split])
        finally:
            helper.join()
        if errors:
            raise errors[0]
    skip = first % _IMPOSTOR_BLOCK
    values = drawn.reshape(-1, DEFAULT_DIM)[skip:skip + count]
    values /= np.sqrt(np.vecdot(values, values))[:, None]
    return values


def _fill_blocks(rng_seed: int, blocks: range, out: np.ndarray) -> None:
    """Fill ``out[j]`` with the normals of block ``blocks[j]``."""
    for block, rows in zip(blocks, out):
        _generator(rng_seed, f"{_IMPOSTOR_LABEL}/{block}").standard_normal(out=rows)
