"""Synthetic identities and noisy embedding samples.

Stands in for a face-embedding pipeline so the protocol can be exercised
and measured without biometric data. An identity is a unit-norm Gaussian
reference vector; genuine captures add per-coordinate Gaussian noise
before renormalization, impostor captures are fresh independent vectors.

All operations are pure functions of their seeds. Each role draws from its
own stream, expanded from the caller's seed under a role label (identity,
genuine noise, impostor), so one seed used in two roles gives independent
vectors: impostor ``s`` is never identity ``s``, and the noise of a capture
seeded ``s`` is unrelated to either.

A row is numpy's own stream: the values of
``np.random.default_rng(subseed(seed, role_label)).standard_normal(dim)``.
One seed is drawn exactly that way. For more seeds, building a
``SeedSequence`` per row cost more than drawing the row's normals, so
``_seed_words`` runs numpy's ``SeedSequence`` hash once over uint32 arrays
for all of them, and each row's ``PCG64`` starts from its precomputed
words. That pass has a fixed cost of 100 to 200 us, more than it saves on
one row, so one-row draws (the device's captures) keep ``default_rng``.
Tests hold both forms to ``default_rng``'s rows. On a 2-core x86-64
machine, 256 impostor rows of 512 values took about 13 us per row this
way against 24 us with one ``default_rng`` per row; 8 us of the 13 is the
normals themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .kdf import SEED_MASK, subseed

__all__ = [
    "DEFAULT_DIM",
    "MIN_DIM",
    "Embedding",
    "IdentityProfile",
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
_IMPOSTOR_LABEL = "bbcreds/synthbio/impostor/v1"


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for pool size
# 4 and an entropy of at most two 32-bit words, which every 64-bit seed is.
# Its k-th hashmix xors with constant h_k and multiplies by h_{k+1}, where
# h runs through a fixed chain, so the chains are tabulated as (xor,
# multiplier) columns: 16 hashmixes fill and mix the pool, 8 draw the state.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, np.uint32)[:, None]
    column.setflags(write=False)
    return column[:-1], column[1:]


_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # uint32 array arithmetic wraps modulo 2**32, as numpy's hash does, and
    # unlike numpy scalar arithmetic it does not warn when it wraps.
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each
    64-bit seed s of a uint64 array, as the rows of one (len(seeds), 4)
    uint64 array: the words ``np.random.PCG64(s)`` seeds its state from."""
    pool = np.zeros((4, seeds.size), np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        # numpy mixes pool[src] into each other word in turn; pool[src]
        # itself does not change meanwhile, so its three turns run at once.
        dst = [i for i in range(4) if i != src]
        turns = slice(4 + 3 * src, 7 + 3 * src)
        mixed = pool[dst] * _MIX_MULT_L - (
            _hashmix(pool[src], _POOL_XOR[turns], _POOL_MULT[turns]) * _MIX_MULT_R
        )
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MULT).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)


class _Words(ISeedSequence):
    """A seed sequence whose state is already drawn: ``PCG64`` asks it for
    four uint64 words once and gets one row of ``_seed_words``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _normal_rows(seeds: Sequence[int], label: str, dim: int) -> np.ndarray:
    """A (len(seeds), dim) standard normal array whose row i is
    ``np.random.default_rng(subseed(seeds[i], label)).standard_normal(dim)``.

    One seed takes that path itself; more seeds share one ``_seed_words``
    pass (see the module docstring). Nothing is shared between calls."""
    values = np.empty((len(seeds), dim))
    if len(seeds) < 2:
        for seed, row in zip(seeds, values):
            np.random.default_rng(subseed(seed, label)).standard_normal(out=row)
        return values
    words = _seed_words(np.array([subseed(seed, label) for seed in seeds], np.uint64))
    for row_words, row in zip(words, values):
        np.random.Generator(np.random.PCG64(_Words(row_words))).standard_normal(out=row)
    return values


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


@dataclass(frozen=True, eq=False)
class IdentityProfile:
    """A synthetic person: reference embedding plus the seed that made it."""

    mean: Embedding
    seed: int


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
    return Embedding(v / np.linalg.norm(v))


def new_identity(seed: int, dim: int = DEFAULT_DIM) -> IdentityProfile:
    """Create a reproducible identity with a unit-norm Gaussian reference."""
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    mean = _normalized(_normal_rows([seed], _IDENTITY_LABEL, dim)[0])
    return IdentityProfile(mean=mean, seed=seed & SEED_MASK)


def sample_genuine(profile: IdentityProfile, noise: NoiseModel, rng_seed: int) -> Embedding:
    """A noisy capture of the profile: normalize(mean + sigma * g).

    With sigma == 0 the reference is returned unchanged (it is already
    unit norm), so zero-noise captures are bit-identical to the mean.
    """
    if noise.sigma == 0.0:
        return Embedding(profile.mean.values.copy())
    g = _normal_rows([rng_seed], _GENUINE_LABEL, profile.mean.dim)[0]
    return _normalized(profile.mean.values + noise.sigma * g)


def sample_impostor(rng_seed: int, dim: int = DEFAULT_DIM) -> Embedding:
    """An identity-independent capture: a fresh normalized Gaussian vector."""
    return Embedding(sample_impostors([rng_seed], dim)[0])


def sample_impostors(rng_seeds: Sequence[int], dim: int = DEFAULT_DIM) -> np.ndarray:
    """``sample_impostor`` for each seed, as the rows of one (len(rng_seeds),
    dim) array: row i holds the values ``sample_impostor(rng_seeds[i], dim)``
    has. Each row is drawn from its seed's own stream, and the rows are
    normalized and checked together."""
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    values = _normal_rows(rng_seeds, _IMPOSTOR_LABEL, dim)
    values /= np.sqrt(np.vecdot(values, values))[:, None]
    _check_unit_rows(values)
    return values
