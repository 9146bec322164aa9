"""Bit-exact persistence of the device record.

The record is exactly the four artifacts that survive enrollment: helper
data, sketch, key digest, and the encrypted credential. The file format
is a strict TLV container -- magic, format version, then one tag per
component in ascending order -- and parsing fails closed: unknown tags,
duplicates, truncation, or any component invariant violation abort with
a positioned FormatError rather than yielding a partial record.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .binding import (
    BoundCredential,
    KeyDigest,
    Sketch,
    decode_bound,
    decode_sketch,
    encode_bound,
    encode_sketch,
)
from .fextract import HelperData, decode_helper, encode_helper

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "DeviceRecord",
    "FormatReason",
    "FormatError",
    "encode_record",
    "decode_record",
]

MAGIC = b"BBC1"
FORMAT_VERSION = 0x01

_TAG_HELPER = 0x01
_TAG_SKETCH = 0x02
_TAG_DIGEST = 0x03
_TAG_BOUND = 0x04
_REQUIRED_TAGS = (_TAG_HELPER, _TAG_SKETCH, _TAG_DIGEST, _TAG_BOUND)

_TLV_HEAD = struct.Struct(">BI")


class FormatReason(enum.Enum):
    BAD_MAGIC = "BadMagic"
    BAD_VERSION = "BadVersion"
    DUPLICATE_TAG = "DuplicateTag"
    UNKNOWN_TAG = "UnknownTag"
    TRUNCATED = "Truncated"
    INVARIANT_VIOLATION = "InvariantViolation"


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
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    for tag, value in (
        (_TAG_HELPER, encode_helper(record.helper)),
        (_TAG_SKETCH, encode_sketch(record.sketch)),
        (_TAG_DIGEST, record.digest.digest),
        (_TAG_BOUND, encode_bound(record.bound)),
    ):
        out += _TLV_HEAD.pack(tag, len(value))
        out += value
    return bytes(out)


def decode_record(data: bytes) -> DeviceRecord:
    if len(data) < len(MAGIC):
        raise FormatError(FormatReason.TRUNCATED, len(data), "magic incomplete")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(FormatReason.BAD_MAGIC, 0, f"expected {MAGIC!r}")
    if len(data) < len(MAGIC) + 1:
        raise FormatError(FormatReason.TRUNCATED, len(data), "version byte missing")
    if data[len(MAGIC)] != FORMAT_VERSION:
        raise FormatError(
            FormatReason.BAD_VERSION, len(MAGIC), f"unsupported version {data[len(MAGIC)]}"
        )

    values: dict[int, bytes] = {}
    pos = len(MAGIC) + 1
    last_tag = 0
    while pos < len(data):
        if len(data) - pos < _TLV_HEAD.size:
            raise FormatError(FormatReason.TRUNCATED, pos, "entry header incomplete")
        tag, length = _TLV_HEAD.unpack_from(data, pos)
        if tag in values:
            raise FormatError(FormatReason.DUPLICATE_TAG, pos, f"tag 0x{tag:02x} repeated")
        if tag not in _REQUIRED_TAGS:
            raise FormatError(FormatReason.UNKNOWN_TAG, pos, f"tag 0x{tag:02x}")
        if tag <= last_tag:
            raise FormatError(
                FormatReason.INVARIANT_VIOLATION, pos, f"tag 0x{tag:02x} out of order"
            )
        pos += _TLV_HEAD.size
        if len(data) - pos < length:
            raise FormatError(FormatReason.TRUNCATED, pos, "entry value incomplete")
        values[tag] = data[pos : pos + length]
        pos += length
        last_tag = tag

    missing = [t for t in _REQUIRED_TAGS if t not in values]
    if missing:
        raise FormatError(
            FormatReason.INVARIANT_VIOLATION,
            pos,
            f"missing tag(s) {', '.join(f'0x{t:02x}' for t in missing)}",
        )

    try:
        record = DeviceRecord(
            helper=decode_helper(values[_TAG_HELPER]),
            sketch=decode_sketch(values[_TAG_SKETCH]),
            digest=KeyDigest(values[_TAG_DIGEST]),
            bound=decode_bound(values[_TAG_BOUND]),
        )
    except ValueError as exc:
        raise FormatError(FormatReason.INVARIANT_VIOLATION, pos, str(exc)) from exc
    return record
