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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(subseed(seed, label))


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
    mean = _normalized(_rng(seed, _IDENTITY_LABEL).standard_normal(dim))
    return IdentityProfile(mean=mean, seed=seed & SEED_MASK)


def sample_genuine(profile: IdentityProfile, noise: NoiseModel, rng_seed: int) -> Embedding:
    """A noisy capture of the profile: normalize(mean + sigma * g).

    With sigma == 0 the reference is returned unchanged (it is already
    unit norm), so zero-noise captures are bit-identical to the mean.
    """
    if noise.sigma == 0.0:
        return Embedding(profile.mean.values.copy())
    g = _rng(rng_seed, _GENUINE_LABEL).standard_normal(profile.mean.dim)
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
    values = np.empty((len(rng_seeds), dim))
    for seed, row in zip(rng_seeds, values):
        _rng(seed, _IMPOSTOR_LABEL).standard_normal(out=row)
    values /= np.sqrt(np.vecdot(values, values))[:, None]
    _check_unit_rows(values)
    return values
