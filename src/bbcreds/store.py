"""Bit-exact persistence of the device record.

The record is exactly the four artifacts that survive enrollment: helper
data, sketch, key digest and the encrypted credential, in one layout of
``RECORD_BYTES`` bytes (``_FIELDS``): magic, format version, then one entry
per artifact in tag order, each a tag byte, its value's length and the
value. Every byte outside six values (the helper's salt and offset, the
pad, digest, nonce and ciphertext) is a format constant.

Parsing fails closed. A constant byte that differs is refused at that
byte: BadMagic in the magic, BadVersion in the format version, otherwise
an InvariantViolation naming the field and the value read. A short record
is Truncated at its length, a long one an InvariantViolation at byte
``RECORD_BYTES``, and a helper value that ``decode_helper`` refuses an
InvariantViolation at its first byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate

from .binding import BOUND_VERSION, DIGEST_BYTES, NONCE_BYTES, SECRET_BYTES, TAG_BYTES
from .binding import BoundCredential, KeyDigest, Sketch
from .credential import ENCODED_LEN
from .fextract import HELPER_BYTES, HelperData, decode_helper, encode_helper

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "RECORD_BYTES",
    "DeviceRecord",
    "FormatReason",
    "FormatError",
    "encode_record",
    "decode_record",
]

MAGIC = b"BBC1"
FORMAT_VERSION = 0x01

_CIPHERTEXT_BYTES = ENCODED_LEN + TAG_BYTES


def _entry(tag: int, name: str, *fields: tuple[str, bytes | int]) -> tuple:
    """An entry's tag and length fields, then its value's fields."""
    length = sum(len(bytes(f)) for _, f in fields)
    return ((f"{name} tag", bytes([tag])), (f"{name} length", length.to_bytes(4, "big")), *fields)


# The record, field by field: a constant field is its bytes, a value field its
# size, so ``bytes(field)`` is a field's bytes in a record whose values are zero.
_FIELDS = (
    ("magic", MAGIC),
    ("format version", bytes([FORMAT_VERSION])),
    *_entry(0x01, "helper", ("helper", HELPER_BYTES)),
    *_entry(0x02, "sketch", ("sketch variant", b"\x01"),
            ("pad length", SECRET_BYTES.to_bytes(4, "big")), ("pad", SECRET_BYTES)),
    *_entry(0x03, "digest", ("digest", DIGEST_BYTES)),
    *_entry(0x04, "bound", ("bound version", bytes([BOUND_VERSION])), ("nonce", NONCE_BYTES),
            ("ciphertext length", _CIPHERTEXT_BYTES.to_bytes(4, "big")),
            ("ciphertext", _CIPHERTEXT_BYTES)),
)
_OFFSETS = tuple(accumulate((len(bytes(f)) for _, f in _FIELDS), initial=0))
_TEMPLATE = b"".join(bytes(f) for _, f in _FIELDS)  # the record with every value zero
RECORD_BYTES = len(_TEMPLATE)
_CONSTANTS = [(name, at, f) for (name, f), at in zip(_FIELDS, _OFFSETS) if isinstance(f, bytes)]
_HELPER, _PAD, _DIGEST, _NONCE, _CIPHERTEXT = (
    slice(at, at + f) for (_, f), at in zip(_FIELDS, _OFFSETS) if isinstance(f, int)
)


class FormatReason(enum.Enum):
    BAD_MAGIC = "BadMagic"
    BAD_VERSION = "BadVersion"
    TRUNCATED = "Truncated"
    INVARIANT_VIOLATION = "InvariantViolation"


_FIELD_REASONS = {"magic": FormatReason.BAD_MAGIC, "format version": FormatReason.BAD_VERSION}


class FormatError(Exception):
    def __init__(self, reason: FormatReason, position: int, detail: str):
        super().__init__(f"{reason.value} at byte {position}: {detail}")
        self.reason = reason
        self.position = position


@dataclass(frozen=True)
class DeviceRecord:
    """Everything the device keeps after enrollment; nothing else exists."""

    helper: HelperData
    sketch: Sketch
    digest: KeyDigest
    bound: BoundCredential


def encode_record(record: DeviceRecord) -> bytes:
    out = bytearray(_TEMPLATE)
    out[_HELPER] = encode_helper(record.helper)
    out[_PAD] = record.sketch.payload
    out[_DIGEST] = record.digest.digest
    out[_NONCE] = record.bound.nonce
    out[_CIPHERTEXT] = record.bound.ciphertext
    return bytes(out)


def _shown(name: str, raw: bytes) -> str:
    return repr(raw) if name == "magic" else str(int.from_bytes(raw, "big"))


def decode_record(data: bytes) -> DeviceRecord:
    for name, at, expected in _CONSTANTS:
        read = data[at : at + len(expected)]
        if read != expected[: len(read)]:  # a record that ends early is refused below
            first = next(i for i, pair in enumerate(zip(read, expected)) if pair[0] != pair[1])
            reason = _FIELD_REASONS.get(name, FormatReason.INVARIANT_VIOLATION)
            detail = f"{name} is {_shown(name, read)}, expected {_shown(name, expected)}"
            raise FormatError(reason, at + first, detail)
    if len(data) != RECORD_BYTES:
        detail = f"record is {len(data)} bytes, not {RECORD_BYTES}"
        if len(data) < RECORD_BYTES:
            raise FormatError(FormatReason.TRUNCATED, len(data), detail)
        raise FormatError(FormatReason.INVARIANT_VIOLATION, RECORD_BYTES, detail)
    try:
        helper = decode_helper(data[_HELPER])
    except ValueError as exc:
        raise FormatError(FormatReason.INVARIANT_VIOLATION, _HELPER.start, str(exc)) from exc
    bound = BoundCredential(data[_NONCE], data[_CIPHERTEXT])
    return DeviceRecord(helper, Sketch(data[_PAD]), KeyDigest(data[_DIGEST]), bound)
