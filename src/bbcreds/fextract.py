"""Fuzzy extractor: stable 256-bit keys from noisy embeddings.

Code-offset construction. Generation draws a random code message and
publishes offset = quantize(embedding) XOR encode(message); reproduction
quantizes a fresh sample, XORs the offset back and decodes, which strips
any bit noise up to the code's correction radius. The key is derived from
the random message (not from the biometric bits), so the helper data
reveals neither.

There is one operating point, ``CODE`` = BCH(511, 259, 30) over the sign
bits of a 512-d embedding: a code-offset key holds no more entropy than
the k message bits (Dodis, Reyzin and Smith 2004). The helper data is the
salt and the offset; its encoding states (n, k, t, dim) as constants.

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
from .synthbio import DEFAULT_DIM, Embedding, check_unit_rows

__all__ = [
    "CODE",
    "KEY_BYTES",
    "SALT_BYTES",
    "HELPER_VERSION",
    "HELPER_BYTES",
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

# The largest-t length-511 BCH code that still carries 256 key bits, read
# from the first 511 coordinates of a DEFAULT_DIM embedding.
CODE = CodeParams(n=511, t=30)
_QUANT = QuantizerConfig.default(CODE.n)

_KDF_LABEL = "bbcreds/fe/v1"
_GEN_LABEL = "bbcreds/fe/gen/v1"


class ExtractFailure(Exception):
    """The sample's bit noise exceeded the code's correction capability."""

    stage = "Extract"


@dataclass(frozen=True)
class StableKey:
    """256-bit key reproducibly derived from a person's biometric."""

    key: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise ValueError(f"stable key must be {KEY_BYTES} bytes, got {len(self.key)}")


@dataclass(frozen=True)
class HelperData:
    """Public recovery data: the salt and the code offset."""

    salt: bytes
    offset: BitString

    def __post_init__(self) -> None:
        if len(self.salt) != SALT_BYTES:
            raise ValueError(f"salt must be {SALT_BYTES} bytes, got {len(self.salt)}")
        if self.offset.n != CODE.n:
            raise ValueError(
                f"offset length {self.offset.n} does not match code length {CODE.n}"
            )


def _derive_key(message: bytes, salt: bytes) -> StableKey:
    """The key of a packed code message."""
    return StableKey(hkdf_sha256(message, _KDF_LABEL, salt=salt))


def _random_message(seed: int | None) -> tuple[bytes, BitString]:
    nbytes = (CODE.k + 7) // 8
    material = expand_seed(seed, _GEN_LABEL, SALT_BYTES + nbytes)
    value = int.from_bytes(material[SALT_BYTES:], "big") >> (8 * nbytes - CODE.k)
    return material[:SALT_BYTES], BitString.from_int(value, CODE.k)


def fe_generate(e: Embedding, rng_seed: int | None) -> tuple[StableKey, HelperData]:
    """Enroll a ``DEFAULT_DIM`` embedding: returns the stable key and public
    helper data. The salt and message come from the OS's entropy when the
    seed is None."""
    salt, message = _random_message(rng_seed)
    offset = quantize(e, _QUANT) ^ codec_for(CODE).encode(message)
    return _derive_key(message.data, salt), HelperData(salt, offset)


def fe_reproduce(e: Embedding, helper: HelperData) -> StableKey:
    """Recover the enrolled key from a fresh sample of the same biometric.

    Raises ExtractFailure when the sample quantizes too far from the
    enrollment sample for the code to correct. A sufficiently unlucky
    impostor may instead yield a wrong key; the binding layer's key-hash
    check rejects that case.
    """
    message = codec_for(CODE).decode(quantize(e, _QUANT) ^ helper.offset)
    if message is None:
        raise ExtractFailure("bit noise beyond the code's correction radius")
    return _derive_key(message.data, helper.salt)


def fe_reproduce_batch(
    samples: np.ndarray, helpers: Sequence[HelperData]
) -> list[StableKey | None]:
    """``fe_reproduce`` of each row of a (rows, DEFAULT_DIM) sample matrix
    against its own helper data, with one batched decode for all of them.

    Entry i is the key ``fe_reproduce(Embedding(samples[i]), helpers[i])``
    returns, or None where it raises ExtractFailure. Every row must be a
    valid embedding. The rows stay packed from quantization to the keys:
    each is XORed with its offset bytes, decoded, and its message bytes
    are the key material.
    """
    if len(samples) != len(helpers):
        raise ValueError(f"{len(samples)} samples but {len(helpers)} helpers")
    if not helpers:
        return []
    check_unit_rows(samples)  # refuses a wrong shape before anything is decoded
    words = quantize_rows(samples, _QUANT)
    offsets = np.frombuffer(b"".join(h.offset.data for h in helpers), dtype=np.uint8)
    ok, messages = codec_for(CODE).decode_batch(words ^ offsets.reshape(words.shape))
    keys: list[StableKey | None] = [None] * len(helpers)
    for i in np.flatnonzero(ok).tolist():  # rows that failed to decode cost nothing more
        keys[i] = _derive_key(messages[i].tobytes(), helpers[i].salt)
    return keys


# Canonical byte encoding, consumed by the device-record store:
#   HELPER_VERSION(1) | salt(16) | n(2 BE) | k(2) | t(2) | dim(2) | packed offset bits
# The version byte and (n, k, t, dim) = (511, 259, 30, 512) are format
# constants: the encoder writes them and the decoder refuses any other bytes,
# before a codec is built.
_HEADER = struct.Struct(">B16sHHHH")
_OPERATING_POINT = (CODE.n, CODE.k, CODE.t, DEFAULT_DIM)
HELPER_BYTES = _HEADER.size + (CODE.n + 7) // 8


def encode_helper(helper: HelperData) -> bytes:
    """Canonical helper-data bytes."""
    return _HEADER.pack(HELPER_VERSION, helper.salt, *_OPERATING_POINT) + helper.offset.data


def decode_helper(data: bytes) -> HelperData:
    """Strict parse of the canonical helper encoding; ``BitString`` checks
    the offset length and padding."""
    if len(data) < _HEADER.size:
        raise ValueError(f"helper data truncated at {len(data)} bytes")
    version, salt, n, k, t, dim = _HEADER.unpack_from(data)
    if version != HELPER_VERSION:
        raise ValueError(f"unsupported helper version {version}")
    if (n, k, t, dim) != _OPERATING_POINT:
        raise ValueError(
            f"unsupported operating point n={n} k={k} t={t} dim={dim}; "
            f"only n={CODE.n} k={CODE.k} t={CODE.t} dim={DEFAULT_DIM} exists"
        )
    return HelperData(salt, BitString(data[_HEADER.size :], CODE.n))
