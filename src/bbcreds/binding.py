"""Credential binding and unbinding.

Enrollment draws a random 32-byte secret, links it to the biometric key
through a public sketch, the one-time pad key XOR secret (the key binding
of Juels and Wattenberg's fuzzy commitment), and encrypts the age
credential under a key derived from the secret. Authentication runs three
stages that can refuse, in a fixed order, and reports the stage that
failed, which is what the evaluation harness histograms.
``recover_secret`` runs (a) the key-hash check and opens the pad, and
``unbind_auth`` runs it, then (b) the credential decryption and (c) the
credential decode. A tampered pad yields a wrong secret, which (b) refuses.

Neither the stable key nor the secret appears in any stored artifact: the
sketch, the key digest and the encrypted credential are safe to store.
``recover_secret`` returns the secret to its caller in memory, and no
caller stores it.
"""

from __future__ import annotations

import enum
import hmac
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .credential import AgeCred, ENCODED_LEN, decode_agecred, encode_agecred
from .fextract import StableKey
from .kdf import expand_seed, hkdf_sha256, tagged_hash

__all__ = [
    "SECRET_BYTES",
    "DIGEST_BYTES",
    "NONCE_BYTES",
    "TAG_BYTES",
    "BOUND_VERSION",
    "KEYHASH_LABEL",
    "StableSecret",
    "Sketch",
    "KeyDigest",
    "BoundCredential",
    "FailureReason",
    "AuthFailure",
    "hash_key",
    "bind_enroll",
    "recover_secret",
    "unbind_auth",
    "encode_sketch",
    "decode_sketch",
    "encode_bound",
    "decode_bound",
]

SECRET_BYTES = 32
DIGEST_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
BOUND_VERSION = 1

KEYHASH_LABEL = "bbcreds/keyhash/v1"
_CRED_KDF_LABEL = "bbcreds/cred/v1"
_ENROLL_LABEL = "bbcreds/bind/enroll/v1"

_AAD = bytes([BOUND_VERSION])  # the credential ciphertext's associated data


@dataclass(frozen=True)
class StableSecret:
    """Random 32-byte secret that encrypts the credential; never stored."""

    secret: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.secret) != SECRET_BYTES:
            raise ValueError(f"secret must be {SECRET_BYTES} bytes, got {len(self.secret)}")


@dataclass(frozen=True)
class Sketch:
    """Public pad linking the stable key to the stable secret: key XOR secret."""

    payload: bytes

    def __post_init__(self) -> None:
        if len(self.payload) != SECRET_BYTES:
            raise ValueError(
                f"sketch payload must be {SECRET_BYTES} bytes, got {len(self.payload)}"
            )


@dataclass(frozen=True)
class KeyDigest:
    """Stored hash of the enrolled stable key (domain-labeled SHA-256)."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_BYTES:
            raise ValueError(f"digest must be {DIGEST_BYTES} bytes, got {len(self.digest)}")


@dataclass(frozen=True)
class BoundCredential:
    """Authenticated ciphertext of the canonical credential bytes."""

    nonce: bytes
    ciphertext: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(self.nonce)}")
        if len(self.ciphertext) != ENCODED_LEN + TAG_BYTES:
            raise ValueError(
                f"ciphertext must be {ENCODED_LEN + TAG_BYTES} bytes, "
                f"got {len(self.ciphertext)}"
            )


class FailureReason(enum.Enum):
    HASH_MISMATCH = "HashMismatch"
    DECRYPT_FAILED = "DecryptFailed"
    MALFORMED_CREDENTIAL = "MalformedCredential"


class AuthFailure(Exception):
    """Unbinding failed; ``reason`` names the protocol stage that rejected."""

    def __init__(self, reason: FailureReason):
        super().__init__(reason.value)
        self.reason = reason
        self.stage = reason.value


def hash_key(k: StableKey) -> KeyDigest:
    """Domain-labeled digest of the stable key, stored at enrollment."""
    return KeyDigest(tagged_hash(KEYHASH_LABEL, k.key))


def _enroll_draw(rng_seed: int | None) -> tuple[StableSecret, bytes]:
    """The secret and credential nonce ``bind_enroll`` uses."""
    material = expand_seed(rng_seed, _ENROLL_LABEL, SECRET_BYTES + NONCE_BYTES)
    return StableSecret(material[:SECRET_BYTES]), material[SECRET_BYTES:]


def _xor32(a: bytes, b: bytes) -> bytes:
    return ((int.from_bytes(a, "big") ^ int.from_bytes(b, "big"))).to_bytes(32, "big")


def _cred_cipher(secret: bytes) -> ChaCha20Poly1305:
    return ChaCha20Poly1305(hkdf_sha256(secret, _CRED_KDF_LABEL))


def bind_enroll(
    key: StableKey,
    cred: AgeCred,
    rng_seed: int | None,
) -> tuple[Sketch, KeyDigest, BoundCredential]:
    """Bind a (trusted, already verified) credential to the stable key.

    The returned triple plus the extractor's helper data is the entire
    retained state; the key and the secret are used and dropped here. The
    secret and nonce come from the OS's entropy when the seed is None.
    """
    stable, cred_nonce = _enroll_draw(rng_seed)
    secret = stable.secret
    sketch = Sketch(_xor32(key.key, secret))
    ciphertext = _cred_cipher(secret).encrypt(cred_nonce, encode_agecred(cred), _AAD)
    bound = BoundCredential(nonce=cred_nonce, ciphertext=ciphertext)
    return sketch, hash_key(key), bound


def recover_secret(key_candidate: StableKey, sketch: Sketch, digest: KeyDigest) -> StableSecret:
    """Run stage (a), the key-hash check, then open the pad and return the
    secret; raise AuthFailure if the check fails. The credential is not read."""
    if not hmac.compare_digest(hash_key(key_candidate).digest, digest.digest):
        raise AuthFailure(FailureReason.HASH_MISMATCH)
    return StableSecret(_xor32(key_candidate.key, sketch.payload))


def unbind_auth(
    key_candidate: StableKey,
    sketch: Sketch,
    digest: KeyDigest,
    bound: BoundCredential,
) -> AgeCred:
    """Recover the credential, or raise AuthFailure at the first failing stage.

    The stage order is part of the contract: (a) in ``recover_secret``, then
    (b) authenticated decryption and (c) decode.
    """
    secret = recover_secret(key_candidate, sketch, digest)
    try:
        plaintext = _cred_cipher(secret.secret).decrypt(bound.nonce, bound.ciphertext, _AAD)
    except InvalidTag:
        raise AuthFailure(FailureReason.DECRYPT_FAILED) from None

    try:
        return decode_agecred(plaintext)
    except ValueError:
        raise AuthFailure(FailureReason.MALFORMED_CREDENTIAL) from None


# Canonical byte encodings, consumed by the device-record store.

# The sketch header, variant(1) | length(4 BE), is two format constants:
# variant 1, the 32-byte XOR pad. The decoder refuses any other variant.
_SKETCH_HEAD = struct.Struct(">BI")
_SKETCH_VARIANT = 1
_BOUND_HEAD = struct.Struct(">B12sI")  # BOUND_VERSION(1) | nonce(12) | length(4 BE)


def encode_sketch(sketch: Sketch) -> bytes:
    return _SKETCH_HEAD.pack(_SKETCH_VARIANT, SECRET_BYTES) + sketch.payload


def decode_sketch(data: bytes) -> Sketch:
    if len(data) < _SKETCH_HEAD.size:
        raise ValueError(f"sketch truncated at {len(data)} bytes")
    variant, length = _SKETCH_HEAD.unpack_from(data)
    if variant != _SKETCH_VARIANT:
        raise ValueError(f"unknown sketch variant {variant}")
    payload = data[_SKETCH_HEAD.size :]
    if len(payload) != length:
        raise ValueError(f"sketch payload is {len(payload)} bytes, header says {length}")
    return Sketch(payload)


def encode_bound(bound: BoundCredential) -> bytes:
    return _BOUND_HEAD.pack(BOUND_VERSION, bound.nonce, len(bound.ciphertext)) + bound.ciphertext


def decode_bound(data: bytes) -> BoundCredential:
    if len(data) < _BOUND_HEAD.size:
        raise ValueError(f"bound credential truncated at {len(data)} bytes")
    version, nonce, length = _BOUND_HEAD.unpack_from(data)
    if version != BOUND_VERSION:
        raise ValueError(f"unsupported bound credential version {version}")
    ciphertext = data[_BOUND_HEAD.size :]
    if len(ciphertext) != length:
        raise ValueError(f"ciphertext is {len(ciphertext)} bytes, header says {length}")
    return BoundCredential(nonce=nonce, ciphertext=ciphertext)
