"""Synthetic identities and noisy embedding samples.

Stands in for a face-embedding pipeline so the protocol can be exercised
and measured without biometric data. An identity is a unit-norm Gaussian
reference vector; genuine captures add per-coordinate Gaussian noise
before renormalization, impostor captures are fresh independent vectors.

All operations are pure functions of their seeds. Each role draws from its
own stream, expanded from the caller's seed under a role label (identity,
genuine noise, impostor), so one seed used in two roles gives independent
vectors: impostor ``s`` is never identity ``s``, and the noise of a capture
seeded ``s`` is unrelated to either. An identity is its reference
``Embedding`` and nothing else; ``sample_genuine`` takes that mean.

Identity and genuine-noise rows are numpy's own stream: the values of
``np.random.default_rng(subseed(seed, role_label)).standard_normal(dim)``.
Impostor rows are stream v3 (label ``bbcreds/synthbio/impostor/v3``): row
i of stream s is row i mod 16 of block i // 16, and block b is the first
16 * dim values, row-major, of a ``PCG64`` whose four state words are 32
bytes of SHAKE-256 over ``f"{label}/{b}"`` and s (``kdf.expand_seed``).
Those bytes are already uniform, so numpy's ``SeedSequence`` hash would
only add cost. A window draws each block it touches and discards the rows
before its first, so it equals the same rows of any longer window. The
block size (``_IMPOSTOR_BLOCK``) is part of the stream's format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .kdf import expand_seed, subseed

__all__ = [
    "DEFAULT_DIM",
    "MIN_DIM",
    "Embedding",
    "NoiseModel",
    "new_identity",
    "sample_genuine",
    "sample_impostor",
    "sample_impostors",
]

DEFAULT_DIM = 512
MIN_DIM = 8

_IDENTITY_LABEL = "bbcreds/synthbio/identity/v1"
_GENUINE_LABEL = "bbcreds/synthbio/genuine/v1"
_IMPOSTOR_LABEL = "bbcreds/synthbio/impostor/v3"
_IMPOSTOR_BLOCK = 16


class _Words(ISeedSequence):
    """A seed sequence whose state is already drawn: ``PCG64`` asks it for
    four uint64 words once and gets the words it was built with."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _normals(seed: int, label: str, dim: int) -> np.ndarray:
    return np.random.default_rng(subseed(seed, label)).standard_normal(dim)


def _check_unit_rows(values: np.ndarray) -> None:
    """Raise ValueError unless every row of a 2-d float array is finite and
    unit norm. ``Embedding`` checks its vector as one row."""
    for square in np.vecdot(values, values).tolist():
        norm = math.sqrt(square)
        # A NaN or infinite value makes its row's norm fail this test too.
        if not abs(norm - 1.0) <= 1e-6:
            if not np.isfinite(values).all():
                raise ValueError("embedding values must be finite")
            raise ValueError(f"embedding must be unit norm (got {norm:.8f})")


@dataclass(frozen=True, eq=False)
class Embedding:
    """Unit-norm real vector standing in for a biometric template."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("embedding must be a non-empty 1-d vector")
        _check_unit_rows(v[None])

    @property
    def dim(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class NoiseModel:
    """Per-dimension Gaussian capture noise (std-dev before renormalization)."""

    sigma: float

    def __post_init__(self) -> None:
        # At sigma = 1 the noise is sqrt(dim) times the unit signal, so a
        # capture carries no identity; larger values only risk overflow.
        if not 0 <= self.sigma <= 1:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")


def _normalized(v: np.ndarray) -> Embedding:
    # np.linalg.norm's own formula for a 1-d float vector, without its dispatch.
    return Embedding(v / np.sqrt(v.dot(v)))


def new_identity(seed: int, dim: int = DEFAULT_DIM) -> Embedding:
    """A reproducible identity: its unit-norm Gaussian reference embedding."""
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    return _normalized(_normals(seed, _IDENTITY_LABEL, dim))


def sample_genuine(mean: Embedding, noise: NoiseModel, rng_seed: int) -> Embedding:
    """A noisy capture of the identity ``mean``: normalize(mean + sigma * g).

    With sigma == 0 the reference is returned unchanged (it is already
    unit norm), so zero-noise captures are bit-identical to the mean.
    """
    if noise.sigma == 0.0:
        return Embedding(mean.values.copy())
    g = _normals(rng_seed, _GENUINE_LABEL, mean.dim)
    return _normalized(mean.values + noise.sigma * g)


def sample_impostor(rng_seed: int, dim: int = DEFAULT_DIM) -> Embedding:
    """An identity-independent capture: row 0 of impostor stream ``rng_seed``."""
    return Embedding(sample_impostors(rng_seed, 0, 1, dim)[0])


def sample_impostors(rng_seed: int, first: int, count: int, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Rows ``first`` .. ``first + count - 1`` of impostor stream ``rng_seed``
    as one (count, dim) array of fresh normalized Gaussian vectors. Each
    block of the stream the window touches gets one generator; the rows are
    normalized and checked together."""
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    if first < 0 or count < 0:
        raise ValueError(f"impostor rows need first >= 0 and count >= 0, got {first}, {count}")
    values = np.empty((count, dim))
    row, stop = first, first + count
    while row < stop:
        block, skip = divmod(row, _IMPOSTOR_BLOCK)
        end = min(row - skip + _IMPOSTOR_BLOCK, stop)
        words = np.frombuffer(expand_seed(rng_seed, f"{_IMPOSTOR_LABEL}/{block}", 32), "<u8")
        generator = np.random.Generator(np.random.PCG64(_Words(words)))
        if skip:  # the block's rows before ``first``
            generator.standard_normal(skip * dim)
        generator.standard_normal(out=values[row - first:end - first])
        row = end
    values /= np.sqrt(np.vecdot(values, values))[:, None]
    _check_unit_rows(values)
    return values
