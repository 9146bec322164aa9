"""Binary BCH codes with bounded-distance decoding.

Primitive BCH codes of length n = 2^m - 1. The generator polynomial is
built from the cyclotomic cosets of alpha^1 .. alpha^2t, which guarantees
a designed distance of 2t+1 and therefore correction of any error pattern
of weight <= t. Decoding is the classical chain: syndromes, the
Berlekamp-Massey recursion for the error locator polynomial, and a Chien
search for its roots.

Beyond radius t the decoder may return a wrong message (miscorrection)
or fail; callers are expected to verify the result against independent
material, so no attempt is made to detect miscorrection here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantize import BitString

__all__ = ["CodeParams", "BchCodec", "codec_for", "encode", "decode"]

# Minimal-weight primitive polynomials over GF(2), bit i = coefficient of x^i.
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


@dataclass(frozen=True)
class CodeParams:
    """(n, k, t): codeword length, message length, guaranteed correctable errors."""

    n: int
    k: int
    t: int

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.n:
            raise ValueError(f"require 0 < k <= n, got k={self.k}, n={self.n}")
        if self.t < 0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        # Only parameter sets the codec supports can exist.
        codec_for(self)


def _clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) multiplication of integer-coded polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _poly_mod(a: int, g: int) -> int:
    """Remainder of a(x) mod g(x) over GF(2)."""
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


class BchCodec:
    """Encoder/decoder for one (n, k, t) parameter set.

    Tables are built once in the constructor and never mutated, so a
    single codec may be shared across threads.
    """

    def __init__(self, params: CodeParams):
        n, k, t = params.n, params.k, params.t
        m = n.bit_length()
        if n != (1 << m) - 1 or m not in _PRIMITIVE_POLY:
            raise ValueError(
                f"unsupported codeword length {n}; need 2^m - 1 with m in "
                f"{sorted(_PRIMITIVE_POLY)}"
            )
        if 2 * t >= n:
            raise ValueError(f"t={t} needs 2t < n={n}")
        self.params = params
        self._m = m
        self._n = n

        # GF(2^m) log/exp tables. Python lists for scalar hot loops,
        # numpy mirrors for the vectorized syndrome/Chien passes.
        exp = [0] * n
        log = [0] * (n + 1)
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= _PRIMITIVE_POLY[m]
        self._exp = exp
        self._log = log
        self._exp_np = np.asarray(exp, dtype=np.int64)

        self._generator = self._build_generator(t)
        actual_k = n - (self._generator.bit_length() - 1)
        if actual_k != k:
            raise ValueError(
                f"BCH length {n} with t={t} has k={actual_k}, not k={k}; "
                f"pick (n, k, t) from the standard tables"
            )

    def _gf_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._n]

    def _build_generator(self, t: int) -> int:
        """lcm of the minimal polynomials of alpha^1 .. alpha^2t."""
        n, exp, log = self._n, self._exp, self._log
        generator = 1
        covered: set[int] = set()
        for i in range(1, 2 * t + 1):
            if i in covered:
                continue
            coset = []
            j = i
            while j not in coset:
                coset.append(j)
                j = (j * 2) % n
            covered.update(coset)
            # minimal polynomial: product of (x + alpha^j) over the coset
            poly = [1]
            for j in coset:
                root = exp[j]
                nxt = [0] * (len(poly) + 1)
                for d, c in enumerate(poly):
                    nxt[d + 1] ^= c
                    nxt[d] ^= self._gf_mul(c, root)
                poly = nxt
            if any(c not in (0, 1) for c in poly):
                raise AssertionError("minimal polynomial has coefficients outside GF(2)")
            minpoly = sum(c << d for d, c in enumerate(poly))
            generator = _clmul(generator, minpoly)
        return generator

    def encode(self, msg: BitString) -> BitString:
        """Systematic encoding: message bits first, then parity bits."""
        p = self.params
        if msg.n != p.k:
            raise ValueError(f"message length {msg.n} does not match k={p.k}")
        shifted = msg.as_int() << (p.n - p.k)
        return BitString.from_int(shifted ^ _poly_mod(shifted, self._generator), p.n)

    def _syndromes(self, powers: np.ndarray) -> np.ndarray:
        """S_i = word(alpha^i) for i = 1..2t, given the nonzero coefficient powers."""
        i = np.arange(1, 2 * self.params.t + 1, dtype=np.int64)
        idx = (i[:, None] * powers[None, :]) % self._n
        return np.bitwise_xor.reduce(self._exp_np[idx], axis=1)

    def _locator(self, syndromes: np.ndarray) -> tuple[list[int], int]:
        """Berlekamp-Massey: minimal LFSR generating the syndrome sequence."""
        t2 = 2 * self.params.t
        s = [int(v) for v in syndromes]
        cur = [1] + [0] * t2
        prev = [1] + [0] * t2
        length = 0
        shift = 1
        prev_disc = 1
        for i in range(t2):
            disc = s[i]
            for j in range(1, length + 1):
                if cur[j] and s[i - j]:
                    disc ^= self._exp[(self._log[cur[j]] + self._log[s[i - j]]) % self._n]
            if disc == 0:
                shift += 1
                continue
            scale = self._exp[(self._log[disc] - self._log[prev_disc]) % self._n]
            if 2 * length <= i:
                saved = cur[:]
                for j in range(0, t2 + 1 - shift):
                    if prev[j]:
                        cur[j + shift] ^= self._gf_mul(scale, prev[j])
                length = i + 1 - length
                prev = saved
                prev_disc = disc
                shift = 1
            else:
                for j in range(0, t2 + 1 - shift):
                    if prev[j]:
                        cur[j + shift] ^= self._gf_mul(scale, prev[j])
                shift += 1
        return cur[: length + 1], length

    def decode(self, word: BitString) -> BitString | None:
        """Correct up to t errors and return the message, or None on failure."""
        p = self.params
        if word.n != p.n:
            raise ValueError(f"word length {word.n} does not match n={p.n}")
        bits = word.bits().copy()
        nonzero = np.nonzero(bits)[0]
        if nonzero.size == 0:
            return BitString.from_bits(bits[: p.k])
        powers = (p.n - 1 - nonzero).astype(np.int64)
        syndromes = self._syndromes(powers)
        if not syndromes.any():
            return BitString.from_bits(bits[: p.k])

        locator, degree = self._locator(syndromes)
        if degree == 0 or degree > p.t:
            return None

        # Chien search: evaluate the locator at alpha^s for every s.
        s = np.arange(self._n, dtype=np.int64)
        acc = np.zeros(self._n, dtype=np.int64)
        for i, coeff in enumerate(locator):
            if coeff:
                acc ^= self._exp_np[(self._log[coeff] + i * s) % self._n]
        roots = np.nonzero(acc == 0)[0]
        if roots.size != degree:
            return None

        # A root alpha^s corresponds to an error at power (n - s) mod n.
        error_powers = (self._n - roots) % self._n
        bits[p.n - 1 - error_powers] ^= 1
        return BitString.from_bits(bits[: p.k])


@lru_cache(maxsize=8)
def codec_for(params: CodeParams) -> BchCodec:
    """Shared codec instance per parameter set (tables are read-only)."""
    return BchCodec(params)


def encode(msg: BitString, params: CodeParams) -> BitString:
    return codec_for(params).encode(msg)


def decode(word: BitString, params: CodeParams) -> BitString | None:
    return codec_for(params).decode(word)
