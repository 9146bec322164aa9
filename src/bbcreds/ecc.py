"""Binary BCH codes with bounded-distance decoding.

Primitive BCH codes of length n = 2^m - 1. The generator polynomial is
built from the cyclotomic cosets of alpha^1 .. alpha^2t, which guarantees
a designed distance of 2t+1 and therefore correction of any error pattern
of weight <= t. The coset sizes alone give k, so an unsupported (n, k, t)
is rejected before any table is built.

Decoding is the binary form of the classical chain:

- Syndromes: only the t odd ones, S_1, S_3, .., S_2t-1, each the XOR of
  one row of a (t, n) table of alpha^(i p) gathered at the word's nonzero
  bits. The even ones follow from S_2i = S_i^2.
- Berlekamp-Massey: for a binary word every second discrepancy is zero
  (Berlekamp 1968), so the recursion runs t steps instead of 2t. Field
  products are table lookups at a sum of logs, with no reduction mod n.
- Chien search (Chien 1964): the locator is evaluated at every alpha^s in
  one gather from a (t+1, n) table of i*s mod n and one XOR over its rows.

For BCH(511, 259, 30) the decoder tables take about 160 KB, built once
per codec: 30 KB of uint16 field elements for the syndromes and 127 KB of
int64 exponents for the Chien search.

Beyond radius t the decoder may return a wrong message (miscorrection)
or fail; callers are expected to verify the result against independent
material, so no attempt is made to detect miscorrection here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

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


def _cyclotomic_cosets(n: int, t: int) -> list[list[int]]:
    """Cyclotomic cosets {i, 2i, 4i, ...} mod n that cover 1 .. 2t.

    Their sizes sum to deg g(x) = n - k, so k is known from integer
    arithmetic alone, before any field table is built.
    """
    cosets: list[list[int]] = []
    covered: set[int] = set()
    for i in range(1, 2 * t + 1):
        if i in covered:
            continue
        coset = [i]
        j = 2 * i % n
        while j != i:
            coset.append(j)
            j = 2 * j % n
        covered.update(coset)
        cosets.append(coset)
    return cosets


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
        cosets = _cyclotomic_cosets(n, t)
        actual_k = n - sum(map(len, cosets))
        if actual_k != k:
            raise ValueError(
                f"BCH length {n} with t={t} has k={actual_k}, not k={k}; "
                f"pick (n, k, t) from the standard tables"
            )
        self.params = params
        self._n = n

        # GF(2^m) log/exp tables as Python lists for the scalar loops. exp
        # holds alpha^0 .. alpha^(n-1) twice, so a sum of two logs indexes it
        # without % n. log[0] is the sentinel 2n, and exp is 0 from index 2n
        # on, so any product with zero reads 0 without a branch.
        exp = [0] * n
        log = [2 * n] * (n + 1)
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= _PRIMITIVE_POLY[m]
        self._exp = exp + exp + [0] * (2 * n + 1)
        self._log = log
        self._generator = self._build_generator(cosets)

        # Decoder tables. Field elements are below 2^10, so the numpy copy
        # of exp and everything gathered from it is uint16. Row i of the
        # syndrome table holds alpha^((2i+1) p) at bit position j, whose
        # coefficient power is p = n - 1 - j; row i of the Chien table holds
        # i*s mod n for s = 0 .. n-1.
        self._exp_np = np.asarray(self._exp, dtype=np.uint16)
        powers = np.arange(n - 1, -1, -1)
        odd = np.arange(1, 2 * t, 2)
        self._syndrome_table = self._exp_np[np.outer(odd, powers) % n]
        self._chien_table = np.outer(np.arange(t + 1), np.arange(n)) % n

    def _gf_mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def _build_generator(self, cosets: list[list[int]]) -> int:
        """lcm of the minimal polynomials of alpha^1 .. alpha^2t."""
        generator = 1
        for coset in cosets:
            # minimal polynomial: product of (x + alpha^j) over the coset
            poly = [1]
            for j in coset:
                root = self._exp[j]
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

    def _locator(self, odd: list[int]) -> list[int]:
        """Binary Berlekamp-Massey over S_1 .. S_2t, given S_1, S_3, .., S_2t-1.

        A binary word has S_2i = S_i^2, and then every second discrepancy
        is zero (Berlekamp 1968), so only the t steps r = 0, 2, .., 2t-2
        run and the correction shift advances by 2 per step. Returns the
        logs of the locator coefficients up to its length L (zero
        coefficients as the sentinel log 2n).
        """
        t2 = 2 * self.params.t
        n, exp, log = self._n, self._exp, self._log
        # s[i] = S_(i+1) for i < 2t-1; the last step reads no further.
        s = [0] * (t2 - 1)
        s[0::2] = odd
        for j in range(self.params.t - 1):
            s[2 * j + 1] = exp[2 * log[s[j]]]
        # rlog[t2 - 2 - i] is the log of s[i].
        rlog = [log[v] for v in reversed(s)]
        cur = [0] + [log[0]] * t2
        prev = [0]
        length = 0
        shift = 1
        prev_log = 0  # log of the discrepancy at which prev was saved
        for r in range(0, t2, 2):
            disc = s[r]
            for v in map(add, cur[1 : length + 1], rlog[t2 - 1 - r :]):
                disc ^= exp[v]
            if disc == 0:
                shift += 2
                continue
            scale = (log[disc] - prev_log) % n
            saved = None
            if 2 * length <= r:
                saved = cur[: length + 1]
                length = r + 1 - length
            for j, lp in enumerate(prev, shift):
                cur[j] = log[exp[cur[j]] ^ exp[scale + lp]]
            if saved is None:
                shift += 2
            else:
                prev = saved
                prev_log = log[disc]
                shift = 2
        return cur[: length + 1]

    def decode(self, word: BitString) -> BitString | None:
        """Correct up to t errors and return the message, or None on failure."""
        p = self.params
        if word.n != p.n:
            raise ValueError(f"word length {word.n} does not match n={p.n}")
        bits = word.bits().copy()
        odd = np.bitwise_xor.reduce(self._syndrome_table[:, np.flatnonzero(bits)], axis=1)
        if not odd.any():
            return BitString.from_bits(bits[: p.k])

        locator = self._locator(odd.tolist())
        degree = len(locator) - 1
        if degree > p.t:
            return None

        # Chien search: the locator at alpha^s for every s in one gather;
        # zero coefficients carry the sentinel log and add nothing.
        logs = np.array(locator)
        acc = np.bitwise_xor.reduce(
            self._exp_np[logs[:, None] + self._chien_table[: degree + 1]], axis=0
        )
        roots = np.flatnonzero(acc == 0)
        if roots.size != degree:
            return None

        # A root alpha^s marks an error at power (n - s) mod n, which is
        # bit (s - 1) mod n.
        bits[(roots - 1) % p.n] ^= 1
        return BitString.from_bits(bits[: p.k])


@lru_cache(maxsize=8)
def codec_for(params: CodeParams) -> BchCodec:
    """Shared codec instance per parameter set (tables are read-only)."""
    return BchCodec(params)


def encode(msg: BitString, params: CodeParams) -> BitString:
    return codec_for(params).encode(msg)


def decode(word: BitString, params: CodeParams) -> BitString | None:
    return codec_for(params).decode(word)
