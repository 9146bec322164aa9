"""Fuzzy extractor: stable 256-bit keys from noisy embeddings.

Code-offset construction. Generation draws a random code message and
publishes offset = quantize(embedding) XOR encode(message); reproduction
quantizes a fresh sample, XORs the offset back and decodes, which strips
any bit noise up to the code's correction radius. The key is derived from
the random message (not from the biometric bits), so the helper data
reveals neither.

``fe_reproduce`` takes one ``Embedding``, the device's path.
``fe_reproduce_batch`` takes the rows of a sample matrix, as the
evaluation harness draws them, and keeps them packed bytes from
quantization (``quantize_rows``) through one ``decode_batch`` call to the
key derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence
import struct

import numpy as np

from .ecc import CodeParams, codec_for
from .kdf import expand_seed, hkdf_sha256
from .quantize import BitString, QuantizerConfig, quantize, quantize_rows
from .synthbio import Embedding, _check_unit_rows

__all__ = [
    "KEY_BYTES",
    "SALT_BYTES",
    "HELPER_VERSION",
    "StableKey",
    "HelperData",
    "ExtractFailure",
    "fe_generate",
    "fe_reproduce",
    "fe_reproduce_batch",
    "encode_helper",
    "decode_helper",
]

KEY_BYTES = 32
SALT_BYTES = 16
HELPER_VERSION = 1

_KDF_LABEL = "bbcreds/fe/v1"
_GEN_LABEL = "bbcreds/fe/gen/v1"


class ExtractFailure(Exception):
    """The sample's bit noise exceeded the code's correction capability."""


@dataclass(frozen=True)
class StableKey:
    """256-bit key reproducibly derived from a person's biometric."""

    key: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise ValueError(f"stable key must be {KEY_BYTES} bytes, got {len(self.key)}")


@dataclass(frozen=True)
class HelperData:
    """Public recovery data: salt, code offset, and the parameters used."""

    salt: bytes
    offset: BitString
    code: CodeParams
    quant: QuantizerConfig
    version: int = HELPER_VERSION

    def __post_init__(self) -> None:
        if len(self.salt) != SALT_BYTES:
            raise ValueError(f"salt must be {SALT_BYTES} bytes, got {len(self.salt)}")
        if not 0 <= self.version <= 255:
            raise ValueError(f"version must fit one byte, got {self.version}")
        if self.offset.n != self.code.n:
            raise ValueError(
                f"offset length {self.offset.n} does not match code length {self.code.n}"
            )
        if self.quant.code_length != self.code.n:
            raise ValueError(
                f"quantizer emits {self.quant.code_length} bits but code expects {self.code.n}"
            )


def _derive_key(message: BitString, salt: bytes) -> StableKey:
    return StableKey(hkdf_sha256(message.data, _KDF_LABEL, salt=salt, length=KEY_BYTES))


def _random_message(seed: int, k: int) -> tuple[bytes, BitString]:
    nbytes = (k + 7) // 8
    material = expand_seed(seed, _GEN_LABEL, SALT_BYTES + nbytes)
    salt = material[:SALT_BYTES]
    raw = bytearray(material[SALT_BYTES:])
    pad = 8 * nbytes - k
    if pad:
        raw[-1] &= 0xFF << pad & 0xFF
    return salt, BitString(bytes(raw), k)


def fe_generate(
    e: Embedding,
    code: CodeParams,
    quant: QuantizerConfig,
    rng_seed: int,
) -> tuple[StableKey, HelperData]:
    """Enroll an embedding: returns the stable key and public helper data."""
    if quant.code_length != code.n:
        raise ValueError(
            f"quantizer emits {quant.code_length} bits but code expects {code.n}"
        )
    salt, message = _random_message(rng_seed, code.k)
    offset = quantize(e, quant) ^ codec_for(code).encode(message)
    helper = HelperData(salt=salt, offset=offset, code=code, quant=quant)
    return _derive_key(message, salt), helper


def fe_reproduce(e: Embedding, helper: HelperData) -> StableKey:
    """Recover the enrolled key from a fresh sample of the same biometric.

    Raises ExtractFailure when the sample quantizes too far from the
    enrollment sample for the code to correct. A sufficiently unlucky
    impostor may instead yield a wrong key; the binding layer's key-hash
    check rejects that case.
    """
    word = quantize(e, helper.quant) ^ helper.offset
    message = codec_for(helper.code).decode(word)
    if message is None:
        raise ExtractFailure("bit noise beyond the code's correction radius")
    return _derive_key(message, helper.salt)


def fe_reproduce_batch(
    samples: np.ndarray, helpers: Sequence[HelperData]
) -> list[StableKey | None]:
    """``fe_reproduce`` of each row of a (rows, dim) sample matrix against
    its own helper data, with one batched decode for all of them.

    Entry i is the key ``fe_reproduce(Embedding(samples[i]), helpers[i])``
    returns, or None where it raises ExtractFailure. Every row must be a
    valid embedding, and the helpers must share one code and quantizer.
    The rows stay packed from quantization to the keys: each is XORed
    with its offset bytes, decoded, and its message bytes are the key
    material.
    """
    if len(samples) != len(helpers):
        raise ValueError(f"{len(samples)} samples but {len(helpers)} helpers")
    if not helpers:
        return []
    code, quant = helpers[0].code, helpers[0].quant
    if any(h.code != code or h.quant != quant for h in helpers):
        raise ValueError("helpers must all use one code and quantizer")
    words = quantize_rows(samples, quant)  # checks the shape first
    _check_unit_rows(samples)
    offsets = np.frombuffer(b"".join(h.offset.data for h in helpers), dtype=np.uint8)
    ok, messages = codec_for(code).decode_batch(words ^ offsets.reshape(words.shape))
    return [
        _derive_key(BitString(message.tobytes(), code.k), h.salt) if decoded else None
        for decoded, message, h in zip(ok, messages, helpers)
    ]


# Canonical byte encoding, consumed by the device-record store:
#   version(1) | salt(16) | n(2 BE) | k(2) | t(2) | dim(2) | packed offset bits
_HEADER = struct.Struct(">B16sHHHH")


def encode_helper(helper: HelperData) -> bytes:
    """Canonical helper-data bytes. The quantizer is stored as ``dim`` alone:
    it always reads the first ``n`` coordinates."""
    head = _HEADER.pack(
        helper.version,
        helper.salt,
        helper.code.n,
        helper.code.k,
        helper.code.t,
        helper.quant.dim,
    )
    return head + helper.offset.data


def decode_helper(data: bytes) -> HelperData:
    """Strict parse of the canonical helper encoding."""
    if len(data) < _HEADER.size:
        raise ValueError(f"helper data truncated at {len(data)} bytes")
    version, salt, n, k, t, dim = _HEADER.unpack_from(data)
    if version != HELPER_VERSION:
        raise ValueError(f"unsupported helper version {version}")
    body = data[_HEADER.size :]
    if len(body) != (n + 7) // 8:
        raise ValueError(f"offset payload is {len(body)} bytes, expected {(n + 7) // 8}")
    return HelperData(
        salt=salt,
        offset=BitString(body, n),
        code=CodeParams(n, k, t),
        quant=QuantizerConfig.default(dim, n),
        version=version,
    )
