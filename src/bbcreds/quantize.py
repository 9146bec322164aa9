"""Sign quantization of embeddings into fixed-length bit strings.

Real-valued embeddings are reduced to one bit per coordinate of a prefix
(bit i is 1 iff coordinate i is >= 0, for i < code_length). The prefix is
the only selection: synthetic coordinates are i.i.d., so any fixed subset
is statistically equivalent, and the helper-data format carries no
coordinate list. The resulting bit strings feed the error-correcting
layer, so lengths here are code lengths, not embedding dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synthbio import DEFAULT_DIM, Embedding

__all__ = ["BitString", "QuantizerConfig", "quantize", "quantize_rows"]


@dataclass(frozen=True)
class BitString:
    """Immutable packed bit string of declared length ``n``.

    Bits are packed MSB-first; padding bits up to the byte boundary are
    required to be zero so that equal bit strings have equal bytes.
    """

    data: bytes
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"bit length must be positive, got {self.n}")
        expected = (self.n + 7) // 8
        if len(self.data) != expected:
            raise ValueError(
                f"packed length {len(self.data)} does not match n={self.n} "
                f"(expected {expected} bytes)"
            )
        pad = 8 * expected - self.n
        if pad and (self.data[-1] & ((1 << pad) - 1)):
            raise ValueError("padding bits beyond n must be zero")

    def as_int(self) -> int:
        """Bits as an integer; bit j of the string is binary digit n-1-j."""
        return int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.n)

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        if value < 0 or value >> n:
            raise ValueError(f"value does not fit in {n} bits")
        nbytes = (n + 7) // 8
        return cls((value << (8 * nbytes - n)).to_bytes(nbytes, "big"), n)

    def __xor__(self, other: "BitString") -> "BitString":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        value = int.from_bytes(self.data, "big") ^ int.from_bytes(other.data, "big")
        return BitString(value.to_bytes(len(self.data), "big"), self.n)


@dataclass(frozen=True)
class QuantizerConfig:
    """Quantize the first ``code_length`` coordinates of an embedding."""

    code_length: int

    def __post_init__(self) -> None:
        if not 1 <= self.code_length <= DEFAULT_DIM:
            raise ValueError(f"code_length must be in [1, {DEFAULT_DIM}], got {self.code_length}")

    @classmethod
    def default(cls, code_length: int) -> "QuantizerConfig":
        return cls(code_length)


def quantize(e: Embedding, quantizer: QuantizerConfig) -> BitString:
    """Binarize an embedding: bit i is 1 iff coordinate i is >= 0."""
    return BitString(quantize_rows(e.values[None], quantizer).tobytes(), quantizer.code_length)


def quantize_rows(values: np.ndarray, quantizer: QuantizerConfig) -> np.ndarray:
    """``quantize`` of each row of a (rows, DEFAULT_DIM) array, packed: row i
    holds the ``BitString`` bytes of row i's bits. The values are not
    checked here; ``check_unit_rows`` checks them."""
    return np.packbits(values[:, : quantizer.code_length] >= 0.0, axis=1)
