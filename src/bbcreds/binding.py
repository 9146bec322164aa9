"""Credential binding and unbinding.

Enrollment draws a random 32-byte secret, links it to the biometric key
through a public sketch (XOR one-time pad, or an authenticated encryption
of the secret under a key-derived wrapping key), and encrypts the age
credential under a key derived from the secret. Authentication runs four
stages in a fixed order and reports the stage that failed, which is what
the evaluation harness histograms. ``recover_secret`` runs (a) the
key-hash check and (b) the sketch open, and ``unbind_auth`` runs it, then
(c) the credential decryption and (d) the credential decode.

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
    "SketchVariant",
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
_SKETCH_KDF_LABEL = "bbcreds/sketch/v1"
_CRED_KDF_LABEL = "bbcreds/cred/v1"
_ENROLL_LABEL = "bbcreds/bind/enroll/v1"

_ENC_SKETCH_LEN = NONCE_BYTES + SECRET_BYTES + TAG_BYTES
_AAD = bytes([BOUND_VERSION])  # the credential ciphertext's associated data


class SketchVariant(enum.Enum):
    XOR = 1
    ENCRYPTED = 2


@dataclass(frozen=True)
class StableSecret:
    """Random 32-byte secret that encrypts the credential; never stored."""

    secret: bytes = field(repr=False)

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
    SKETCH_OPEN_FAILED = "SketchOpenFailed"
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


def _enroll_draw(rng_seed: int | None) -> tuple[StableSecret, bytes, bytes]:
    """The secret, credential nonce and sketch nonce ``bind_enroll`` uses."""
    material = expand_seed(rng_seed, _ENROLL_LABEL, SECRET_BYTES + NONCE_BYTES * 2)
    nonces = material[SECRET_BYTES:]
    return StableSecret(material[:SECRET_BYTES]), nonces[:NONCE_BYTES], nonces[NONCE_BYTES:]


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
    rng_seed: int | None,
) -> tuple[Sketch, KeyDigest, BoundCredential]:
    """Bind a (trusted, already verified) credential to the stable key.

    The returned triple plus the extractor's helper data is the entire
    retained state; the key and the secret are used and dropped here. The
    secret and nonces come from the OS's entropy when the seed is None.
    """
    stable, cred_nonce, sketch_nonce = _enroll_draw(rng_seed)
    secret = stable.secret

    if variant is SketchVariant.XOR:
        sketch = Sketch(variant, _xor32(key.key, secret))
    else:
        ct = _sketch_cipher(key).encrypt(sketch_nonce, secret, None)
        sketch = Sketch(variant, sketch_nonce + ct)

    ciphertext = _cred_cipher(secret).encrypt(cred_nonce, encode_agecred(cred), _AAD)
    bound = BoundCredential(nonce=cred_nonce, ciphertext=ciphertext)
    return sketch, hash_key(key), bound


def recover_secret(key_candidate: StableKey, sketch: Sketch, digest: KeyDigest) -> StableSecret:
    """Run stages (a) key-hash check and (b) sketch open, and return the secret;
    raise AuthFailure at the first that fails. The credential is not read."""
    if not hmac.compare_digest(hash_key(key_candidate).digest, digest.digest):
        raise AuthFailure(FailureReason.HASH_MISMATCH)

    if sketch.variant is SketchVariant.XOR:
        return StableSecret(_xor32(key_candidate.key, sketch.payload))
    nonce, ct = sketch.payload[:NONCE_BYTES], sketch.payload[NONCE_BYTES:]
    try:
        secret = _sketch_cipher(key_candidate).decrypt(nonce, ct, None)
    except InvalidTag:
        raise AuthFailure(FailureReason.SKETCH_OPEN_FAILED) from None
    return StableSecret(secret)


def unbind_auth(
    key_candidate: StableKey,
    sketch: Sketch,
    digest: KeyDigest,
    bound: BoundCredential,
) -> AgeCred:
    """Recover the credential, or raise AuthFailure at the first failing stage.

    The stage order is part of the contract: (a) and (b) in ``recover_secret``,
    then (c) authenticated decryption and (d) decode.
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

_SKETCH_HEAD = struct.Struct(">BI")  # variant(1) | length(4 BE)
_BOUND_HEAD = struct.Struct(">B12sI")  # BOUND_VERSION(1) | nonce(12) | length(4 BE)


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
