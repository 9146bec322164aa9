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
from typing import Iterable

import numpy as np

from .synthbio import Embedding

__all__ = ["BitString", "QuantizerConfig", "quantize", "quantize_rows", "hamming"]


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

    @classmethod
    def from_bits(cls, bits: Iterable[int] | np.ndarray) -> "BitString":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits,
                         dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a non-empty 1-d sequence")
        if np.any(arr > 1):
            raise ValueError("bits must be 0 or 1")
        return cls(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(bytes((n + 7) // 8), n)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls.from_bits(np.ones(n, dtype=np.uint8))

    def bits(self) -> np.ndarray:
        """Unpacked bits as a uint8 array of length n."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))[: self.n]

    def as_int(self) -> int:
        """Bits as an integer; bit j of the string is binary digit n-1-j."""
        return int.from_bytes(self.data, "big") >> (8 * len(self.data) - self.n)

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        if value < 0 or value >> n:
            raise ValueError(f"value does not fit in {n} bits")
        nbytes = (n + 7) // 8
        return cls((value << (8 * nbytes - n)).to_bytes(nbytes, "big"), n)

    def weight(self) -> int:
        return int.from_bytes(self.data, "big").bit_count()

    def __xor__(self, other: "BitString") -> "BitString":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        value = int.from_bytes(self.data, "big") ^ int.from_bytes(other.data, "big")
        return BitString(value.to_bytes(len(self.data), "big"), self.n)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class QuantizerConfig:
    """Quantize the first ``code_length`` coordinates of a ``dim``-d embedding."""

    dim: int
    code_length: int

    def __post_init__(self) -> None:
        if self.code_length <= 0 or self.code_length > self.dim:
            raise ValueError(
                f"code_length must be in [1, dim]; got {self.code_length} for dim {self.dim}"
            )

    @classmethod
    def default(cls, dim: int, code_length: int) -> "QuantizerConfig":
        return cls(dim, code_length)


def quantize(e: Embedding, cfg: QuantizerConfig) -> BitString:
    """Binarize an embedding: bit i is 1 iff coordinate i is >= 0."""
    return BitString(quantize_rows(e.values[None], cfg).tobytes(), cfg.code_length)


def quantize_rows(values: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """``quantize`` of each row of a (rows, dim) array, packed: row i holds
    the ``BitString`` bytes of row i's bits. The values are not checked
    for unit norm."""
    if values.ndim != 2 or values.shape[1] != cfg.dim:
        raise ValueError(f"quantizer takes (rows, {cfg.dim}) values, got shape {values.shape}")
    return np.packbits(values[:, : cfg.code_length] >= 0.0, axis=1)


def hamming(a: BitString, b: BitString) -> int:
    """Number of differing bit positions between equal-length bit strings."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return (int.from_bytes(a.data, "big") ^ int.from_bytes(b.data, "big")).bit_count()
