"""Hashing and key-derivation helpers shared across the protocol layers.

Every derived value is domain-separated by an explicit label so that
byte-equal inputs in different roles can never collide. Seeded expansion
exists for reproducibility of the artifact: callers pass 64-bit seeds and
get deterministic byte streams. A seed of None means OS entropy instead,
so no key or secret drawn without a seed is a function of 64 bits.
"""

from __future__ import annotations

import hashlib
import os

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

__all__ = ["SEED_MASK", "tagged_hash", "hkdf_sha256", "expand_seed", "subseed"]

# Seeds are 64-bit: larger or negative ints are reduced with this mask.
SEED_MASK = (1 << 64) - 1


def tagged_hash(label: str, data: bytes) -> bytes:
    """SHA-256 of ``label || 0x00 || data``; 32 bytes."""
    return hashlib.sha256(label.encode("ascii") + b"\x00" + data).digest()


def hkdf_sha256(ikm: bytes, label: str, salt: bytes | None = None) -> bytes:
    """32 bytes of HKDF-SHA256 with the label as the info string."""
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=salt,
        info=label.encode("ascii"),
    ).derive(ikm)


def expand_seed(seed: int | None, label: str, nbytes: int) -> bytes:
    """Deterministic byte stream from a 64-bit seed, per-label independent."""
    if seed is None:
        return os.urandom(nbytes)
    shake = hashlib.shake_256()
    shake.update(label.encode("ascii") + b"\x00" + (seed & SEED_MASK).to_bytes(8, "big"))
    return shake.digest(nbytes)


def subseed(seed: int | None, label: str) -> int | None:
    """A 64-bit seed derived from ``seed`` under ``label``, for seeding one role's RNG."""
    if seed is None:
        return None
    return int.from_bytes(expand_seed(seed, label, 8), "big")
