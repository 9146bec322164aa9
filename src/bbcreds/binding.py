"""Credential binding and unbinding.

Enrollment draws a random 32-byte secret, links it to the biometric key
through a public sketch (XOR one-time pad, or an authenticated encryption
of the secret under a key-derived wrapping key), and encrypts the age
credential under a key derived from the secret. Authentication runs the
stages in a fixed order -- key-hash check, secret recovery, credential
decryption, credential decode -- and reports the stage that failed, which
is what the evaluation harness histograms.

Neither the stable key nor the secret appears in any output: the sketch,
the key digest and the encrypted credential are safe to store.
"""

from __future__ import annotations

import enum
import hmac
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .credential import AgeCred, ENCODED_LEN, decode_agecred, encode_agecred
from .fextract import KEY_BYTES, StableKey
from .kdf import expand_seed, hkdf_sha256, tagged_hash

__all__ = [
    "SECRET_BYTES",
    "DIGEST_BYTES",
    "NONCE_BYTES",
    "TAG_BYTES",
    "BOUND_VERSION",
    "KEYHASH_LABEL",
    "ONEWAY_LABEL",
    "SketchVariant",
    "StableSecret",
    "Sketch",
    "KeyDigest",
    "BoundCredential",
    "FailureReason",
    "AuthFailure",
    "hash_key",
    "derive_stable_secret",
    "bind_enroll",
    "unbind_auth",
    "bind_oneway",
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
ONEWAY_LABEL = "bbcreds/oneway/v1"
_SKETCH_KDF_LABEL = "bbcreds/sketch/v1"
_CRED_KDF_LABEL = "bbcreds/cred/v1"
_ENROLL_LABEL = "bbcreds/bind/enroll/v1"

_ENC_SKETCH_LEN = NONCE_BYTES + SECRET_BYTES + TAG_BYTES


class SketchVariant(enum.Enum):
    XOR = 1
    ENCRYPTED = 2


@dataclass(frozen=True)
class StableSecret:
    """Random 32-byte secret that encrypts the credential; never stored."""

    secret: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != SECRET_BYTES:
            raise ValueError(f"secret must be {SECRET_BYTES} bytes, got {len(self.secret)}")


@dataclass(frozen=True)
class Sketch:
    """Public value linking the stable key to the stable secret."""

    variant: SketchVariant
    payload: bytes

    def __post_init__(self) -> None:
        expected = SECRET_BYTES if self.variant is SketchVariant.XOR else _ENC_SKETCH_LEN
        if len(self.payload) != expected:
            raise ValueError(
                f"{self.variant.name} sketch payload must be {expected} bytes, "
                f"got {len(self.payload)}"
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
    aad_version: int = BOUND_VERSION

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(self.nonce)}")
        if len(self.ciphertext) != ENCODED_LEN + TAG_BYTES:
            raise ValueError(
                f"ciphertext must be {ENCODED_LEN + TAG_BYTES} bytes, "
                f"got {len(self.ciphertext)}"
            )
        if not 0 <= self.aad_version <= 255:
            raise ValueError("aad_version must fit one byte")


class FailureReason(enum.Enum):
    HASH_MISMATCH = "HashMismatch"
    SKETCH_OPEN_FAILED = "SketchOpenFailed"
    DECRYPT_FAILED = "DecryptFailed"
    MALFORMED_CREDENTIAL = "MalformedCredential"


class AuthFailure(Exception):
    """Unbinding failed; ``reason`` names the protocol stage that rejected."""

    def __init__(self, reason: FailureReason):
        super().__init__(reason.value)
        self.reason = reason


def hash_key(k: StableKey) -> KeyDigest:
    """Domain-labeled digest of the stable key, stored at enrollment."""
    return KeyDigest(tagged_hash(KEYHASH_LABEL, k.key))


def derive_stable_secret(rng_seed: int) -> StableSecret:
    """The stable secret drawn by ``bind_enroll`` for this seed."""
    return StableSecret(expand_seed(rng_seed, _ENROLL_LABEL, SECRET_BYTES + NONCE_BYTES * 2)[:SECRET_BYTES])


def _xor32(a: bytes, b: bytes) -> bytes:
    return ((int.from_bytes(a, "big") ^ int.from_bytes(b, "big"))).to_bytes(32, "big")


def _sketch_cipher(key: StableKey) -> ChaCha20Poly1305:
    return ChaCha20Poly1305(hkdf_sha256(key.key, _SKETCH_KDF_LABEL))


def _cred_cipher(secret: bytes) -> ChaCha20Poly1305:
    return ChaCha20Poly1305(hkdf_sha256(secret, _CRED_KDF_LABEL))


def bind_enroll(
    key: StableKey,
    cred: AgeCred,
    variant: SketchVariant,
    rng_seed: int,
) -> tuple[Sketch, KeyDigest, BoundCredential]:
    """Bind a (trusted, already verified) credential to the stable key.

    The returned triple plus the extractor's helper data is the entire
    retained state; the key and the secret are used and dropped here.
    """
    material = expand_seed(rng_seed, _ENROLL_LABEL, SECRET_BYTES + NONCE_BYTES * 2)
    secret = material[:SECRET_BYTES]
    cred_nonce = material[SECRET_BYTES : SECRET_BYTES + NONCE_BYTES]
    sketch_nonce = material[SECRET_BYTES + NONCE_BYTES :]

    if variant is SketchVariant.XOR:
        sketch = Sketch(variant, _xor32(key.key, secret))
    else:
        ct = _sketch_cipher(key).encrypt(sketch_nonce, secret, None)
        sketch = Sketch(variant, sketch_nonce + ct)

    aad = bytes([BOUND_VERSION])
    ciphertext = _cred_cipher(secret).encrypt(cred_nonce, encode_agecred(cred), aad)
    bound = BoundCredential(nonce=cred_nonce, ciphertext=ciphertext, aad_version=BOUND_VERSION)
    return sketch, hash_key(key), bound


def unbind_auth(
    key_candidate: StableKey,
    sketch: Sketch,
    digest: KeyDigest,
    bound: BoundCredential,
) -> AgeCred:
    """Recover the credential, or raise AuthFailure at the first failing stage.

    The stage order is part of the contract: (a) key-hash check, (b) secret
    recovery from the sketch, (c) authenticated decryption, (d) decode.
    """
    if not hmac.compare_digest(hash_key(key_candidate).digest, digest.digest):
        raise AuthFailure(FailureReason.HASH_MISMATCH)

    if sketch.variant is SketchVariant.XOR:
        secret = _xor32(key_candidate.key, sketch.payload)
    else:
        nonce, ct = sketch.payload[:NONCE_BYTES], sketch.payload[NONCE_BYTES:]
        try:
            secret = _sketch_cipher(key_candidate).decrypt(nonce, ct, None)
        except InvalidTag:
            raise AuthFailure(FailureReason.SKETCH_OPEN_FAILED) from None

    try:
        plaintext = _cred_cipher(secret).decrypt(
            bound.nonce, bound.ciphertext, bytes([bound.aad_version])
        )
    except InvalidTag:
        raise AuthFailure(FailureReason.DECRYPT_FAILED) from None

    try:
        return decode_agecred(plaintext)
    except ValueError:
        raise AuthFailure(FailureReason.MALFORMED_CREDENTIAL) from None


def bind_oneway(secret: StableSecret, sketch: Sketch) -> bytes:
    """Derived credential token Hash(secret XOR sketch) for internally
    generated credentials; compromise of the token reveals neither input."""
    if sketch.variant is not SketchVariant.XOR:
        raise ValueError("one-way binding is defined for XOR sketches only")
    return tagged_hash(ONEWAY_LABEL, _xor32(secret.secret, sketch.payload))


# Canonical byte encodings, consumed by the device-record store.

_SKETCH_HEAD = struct.Struct(">BI")  # variant(1) | length(4 BE)
_BOUND_HEAD = struct.Struct(">B12sI")  # aad_version(1) | nonce(12) | length(4 BE)


def encode_sketch(sketch: Sketch) -> bytes:
    return _SKETCH_HEAD.pack(sketch.variant.value, len(sketch.payload)) + sketch.payload


def decode_sketch(data: bytes) -> Sketch:
    if len(data) < _SKETCH_HEAD.size:
        raise ValueError(f"sketch truncated at {len(data)} bytes")
    variant_code, length = _SKETCH_HEAD.unpack_from(data)
    try:
        variant = SketchVariant(variant_code)
    except ValueError:
        raise ValueError(f"unknown sketch variant {variant_code}") from None
    payload = data[_SKETCH_HEAD.size :]
    if len(payload) != length:
        raise ValueError(f"sketch payload is {len(payload)} bytes, header says {length}")
    return Sketch(variant, payload)


def encode_bound(bound: BoundCredential) -> bytes:
    return (
        _BOUND_HEAD.pack(bound.aad_version, bound.nonce, len(bound.ciphertext))
        + bound.ciphertext
    )


def decode_bound(data: bytes) -> BoundCredential:
    if len(data) < _BOUND_HEAD.size:
        raise ValueError(f"bound credential truncated at {len(data)} bytes")
    aad_version, nonce, length = _BOUND_HEAD.unpack_from(data)
    ciphertext = data[_BOUND_HEAD.size :]
    if len(ciphertext) != length:
        raise ValueError(f"ciphertext is {len(ciphertext)} bytes, header says {length}")
    return BoundCredential(nonce=nonce, ciphertext=ciphertext, aad_version=aad_version)
