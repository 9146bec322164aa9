"""Signed age-over attestations.

A credential carries the minimum needed for an age decision: issuer,
pseudonymous subject, the age threshold it vouches for, and a validity
window. Ed25519 signs the fixed 50-byte prefix of the canonical layout;
the scheme is deterministic, so identical inputs produce byte-identical
credentials.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .kdf import expand_seed, tagged_hash

__all__ = [
    "CRED_VERSION",
    "ENCODED_LEN",
    "AgeCred",
    "IssuerKeyPair",
    "RejectReason",
    "Verdict",
    "generate_issuer_keys",
    "issuer_id_for",
    "encode_agecred",
    "decode_agecred",
    "issue_agecred",
    "verify_agecred",
]

CRED_VERSION = 1

# version(1) | issuer_id(16) | subject_id(16) | age_over(1) | issued_at(8)
# | expires_at(8) | signature(64)
_PREFIX = struct.Struct(">B16s16sBQQ")
_LAYOUT = struct.Struct(_PREFIX.format + "64s")
ENCODED_LEN = _LAYOUT.size

_ISSUER_ID_LABEL = "bbcreds/issuer-id/v1"
_KEYGEN_LABEL = "bbcreds/issuer-keygen/v1"

MAX_AGE_OVER = 150


@dataclass(frozen=True)
class AgeCred:
    """Signed attestation that the subject is at least ``age_over`` years old.

    Its encoding starts with ``CRED_VERSION``, a format constant, not a field.
    """

    issuer_id: bytes
    subject_id: bytes
    age_over: int
    issued_at: int
    expires_at: int
    signature: bytes

    def __post_init__(self) -> None:
        if len(self.issuer_id) != 16 or len(self.subject_id) != 16:
            raise ValueError("issuer_id and subject_id must be 16 bytes")
        if not 0 <= self.age_over <= 255:
            raise ValueError("age_over must fit one byte")
        for name in ("issued_at", "expires_at"):
            v = getattr(self, name)
            if not 0 <= v < 1 << 64:
                raise ValueError(f"{name} must be an unsigned 64-bit value")
        if self.expires_at <= self.issued_at:
            raise ValueError("expires_at must be after issued_at")
        if len(self.signature) != 64:
            raise ValueError("signature must be 64 bytes")


@dataclass(frozen=True)
class IssuerKeyPair:
    """Ed25519 signing identity of the attribute service provider."""

    public: bytes
    private: bytes = field(repr=False)
    # Derived once, so that issuance neither parses the key nor hashes it again.
    signer: Ed25519PrivateKey = field(init=False, repr=False, compare=False)
    issuer_id: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.public) != 32 or len(self.private) != 32:
            raise ValueError("Ed25519 keys are 32 bytes each")
        signer = Ed25519PrivateKey.from_private_bytes(self.private)
        if signer.public_key().public_bytes_raw() != self.public:
            raise ValueError("public key does not belong to the private key")
        object.__setattr__(self, "signer", signer)
        object.__setattr__(self, "issuer_id", issuer_id_for(self.public))


class RejectReason(enum.Enum):
    BAD_SIGNATURE = "BadSignature"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    THRESHOLD_NOT_MET = "ThresholdNotMet"


@dataclass(frozen=True)
class Verdict:
    """Outcome of credential verification; rejection is a value, not an error."""

    reason: RejectReason | None = None

    @property
    def granted(self) -> bool:
        return self.reason is None


def generate_issuer_keys(seed: int | None = None) -> IssuerKeyPair:
    """Fresh issuer keypair; seeded generation is fully deterministic."""
    private = expand_seed(seed, _KEYGEN_LABEL, 32)
    key = Ed25519PrivateKey.from_private_bytes(private)
    return IssuerKeyPair(public=key.public_key().public_bytes_raw(), private=private)


def issuer_id_for(public: bytes) -> bytes:
    """Stable 16-byte issuer identifier derived from the public key."""
    return tagged_hash(_ISSUER_ID_LABEL, public)[:16]


def _signed_prefix(c: AgeCred) -> bytes:
    return _PREFIX.pack(
        CRED_VERSION, c.issuer_id, c.subject_id, c.age_over, c.issued_at, c.expires_at
    )


def encode_agecred(c: AgeCred) -> bytes:
    """Canonical 114-byte encoding (big-endian, fixed layout)."""
    return _signed_prefix(c) + c.signature


def decode_agecred(data: bytes) -> AgeCred:
    if len(data) != ENCODED_LEN:
        raise ValueError(f"credential must be {ENCODED_LEN} bytes, got {len(data)}")
    if data[0] != CRED_VERSION:
        raise ValueError(f"unsupported credential version {data[0]}")
    return AgeCred(*_LAYOUT.unpack(data)[1:])


def issue_agecred(
    keys: IssuerKeyPair,
    subject_id: bytes,
    age_over: int,
    issued_at: int,
    validity_seconds: int,
) -> AgeCred:
    """Sign a fresh age-over attestation for the given pseudonymous subject.

    The prefix is packed straight from the arguments and signed, and the
    one ``AgeCred`` built from them runs the field checks.
    """
    if not 0 < age_over < MAX_AGE_OVER:
        raise ValueError(f"age_over must be in (0, {MAX_AGE_OVER}), got {age_over}")
    fields = (keys.issuer_id, subject_id, age_over, issued_at, issued_at + validity_seconds)
    try:
        prefix = _PREFIX.pack(CRED_VERSION, *fields)
    except struct.error as exc:  # a time outside the unsigned 64-bit fields
        raise ValueError(f"credential field out of range: {exc}") from None
    return AgeCred(*fields, keys.signer.sign(prefix))


def verify_agecred(
    c: AgeCred,
    issuer_public: bytes,
    now: int,
    required_age_over: int,
) -> Verdict:
    """Accept iff the signature is valid, ``issued_at <= now < expires_at``
    and the credential's threshold covers the required one. A required age
    outside (0, MAX_AGE_OVER) raises ValueError, as such an ``age_over``
    does at issuance: one of 0 or below would grant every credential."""
    if not 0 < required_age_over < MAX_AGE_OVER:
        raise ValueError(
            f"required age must be in (0, {MAX_AGE_OVER}), got {required_age_over}"
        )
    try:
        Ed25519PublicKey.from_public_bytes(issuer_public).verify(
            c.signature, _signed_prefix(c)
        )
    except InvalidSignature:
        return Verdict(RejectReason.BAD_SIGNATURE)
    if now < c.issued_at:
        return Verdict(RejectReason.NOT_YET_VALID)
    if now >= c.expires_at:
        return Verdict(RejectReason.EXPIRED)
    if c.age_over < required_age_over:
        return Verdict(RejectReason.THRESHOLD_NOT_MET)
    return Verdict()
