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

Two decoders run that chain. ``decode`` takes one word, with the
Berlekamp-Massey steps in plain Python; it serves every single sample,
which is the device's path. ``decode_batch`` takes a (B, n) bit matrix
and runs each stage over a chunk of rows at once: syndromes from
byte-wise tables, the t steps with masked per-row updates, and one Chien
gather per locator coefficient for all rows. Its cost is numpy calls more
than arithmetic, so it pays only for many words. On a 2-core machine at
n=511, t=30, a batch of one took 1.0 ms for a word with 8 errors and
1.3 ms for a random word, against 97 and 218 us for ``decode``; a batch
of 1024 random words took 92 us per word. Single samples therefore go
through ``decode`` and the evaluation reports through ``decode_batch``,
and no option chooses between them.

For BCH(511, 259, 30) the tables take about 185 KB, built once per
codec: 30 KB of uint16 field elements for the scalar syndromes, 127 KB of
int64 exponents for both Chien searches, 4 KB each of numpy exp and log
tables, and for the batch syndromes a 15 KB byte table and 4 KB of byte
offsets. A batch's largest temporaries, in the Chien search, take about
15 bytes per row and bit position: 0.5 MB for a 64-row chunk.

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

# Rows decode_batch works on at once; its temporaries grow with this and
# not with the batch. Fewer rows pay more numpy calls per row.
_BATCH_CHUNK = 64


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

        # Batch tables. A packed word's byte b holds bits 8b .. 8b+7, MSB
        # first, at powers n-1-8b-r for r = 0 .. 7, so its share of S_i is
        # alpha^(i(n-1-8b)) times the XOR of alpha^(-i r) over its set bits.
        # Row v of the byte table holds the log of that XOR for byte value v
        # and each odd i; row b of the shift table holds the log of
        # alpha^(i(n-1-8b)). Both are uint16, and so is their sum (< 3n).
        self._log_np = np.asarray(log, dtype=np.int64)
        set_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        inverse = self._exp_np[np.outer(-np.arange(8), odd) % n]
        byte_values = np.bitwise_xor.reduce(
            np.where(set_bits[:, :, None], inverse[None], 0), axis=1
        )
        self._syndrome_bytes = self._log_np[byte_values].astype(np.uint16)
        starts = n - 1 - 8 * np.arange((n + 7) // 8)
        self._syndrome_shift = (np.outer(starts, odd) % n).astype(np.uint16)[:, None, :]

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

    def decode_batch(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row of a (B, n) 0/1 matrix as ``decode`` would.

        Returns ``ok``, a bool array of shape (B,), and the messages, a
        uint8 array of shape (B, k) whose rows are zero where ``ok`` is
        false. Row i equals ``decode`` on row i, failures and
        miscorrections included. Rows are decoded _BATCH_CHUNK at a time,
        so memory does not grow with B.
        """
        p = self.params
        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != p.n:
            raise ValueError(f"words must have shape (B, {p.n}), got {words.shape}")
        if words.dtype.kind not in "biu" or (
            words.size and (words.min() < 0 or words.max() > 1)
        ):
            raise ValueError("words must hold only the bits 0 and 1")
        words = words.astype(np.uint8)
        ok = np.zeros(len(words), dtype=bool)
        messages = np.zeros((len(words), p.k), dtype=np.uint8)
        for start in range(0, len(words), _BATCH_CHUNK):
            chunk = words[start : start + _BATCH_CHUNK]
            length, locators = self._locators(self._odd_syndromes(chunk))
            roots = self._chien(locators)
            lanes = (length <= p.t) & (roots.sum(axis=1) == length)
            # A root alpha^s flips bit (s - 1) mod n.
            flips = np.roll(roots[lanes], -1, axis=1)
            ok[start : start + len(chunk)] = lanes
            messages[start : start + len(chunk)][lanes] = chunk[lanes, : p.k] ^ flips[:, : p.k]
        return ok, messages

    def _odd_syndromes(self, words: np.ndarray) -> np.ndarray:
        """S_1, S_3, .., S_2t-1 of each row, as a (rows, t) array.

        Bytes are taken 16 at a time, which keeps the gather index near the
        size of the Chien search's.
        """
        packed = np.packbits(words, axis=1).T
        odd = np.zeros((len(words), self.params.t), dtype=np.uint16)
        for first in range(0, len(packed), 16):
            logs = self._syndrome_bytes[packed[first : first + 16]]
            logs += self._syndrome_shift[first : first + 16]
            odd ^= np.bitwise_xor.reduce(self._exp_np.take(logs), axis=0)
        return odd

    def _locators(self, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_locator`` over every row at once, with masked per-row updates.

        Returns each row's locator length L and a (rows, 2t+1) array of
        coefficient logs, the sentinel 2n beyond L.
        """
        n, t = self._n, self.params.t
        t2 = 2 * t
        exp, log = self._exp_np, self._log_np
        rows = len(odd)
        # S_e = S_o^(2^a) for e = o 2^a with o odd, so log S_e = 2^a log S_o;
        # 2^a is the lowest set bit of e.
        e = np.arange(1, t2)
        power = e & -e
        odd_logs = log[odd][:, e // power // 2]
        slog = np.where(odd_logs == 2 * n, 2 * n, odd_logs * power % n)
        rlog = slog[:, ::-1]
        # cur holds the locator's coefficients and cur_log their logs. prev
        # holds the logs of x^shift times the polynomial saved at the last
        # length change: every row's shift grows by 2 or restarts at 2 on
        # each step, so one two-column slice moves all rows at once.
        width = t2 + 1
        cur = np.zeros((rows, width), dtype=np.uint16)
        cur[:, 0] = 1
        cur_log = np.full((rows, width), 2 * n)
        cur_log[:, 0] = 0
        prev = np.full((rows, width), 2 * n)
        prev[:, 1:2] = 0  # x^1; with t = 0 no step runs and no column 1 exists
        length = np.zeros(rows, dtype=np.int64)
        prev_log = np.zeros(rows, dtype=np.int64)
        for r in range(0, t2, 2):
            terms = exp[cur_log[:, 1 : r + 1] + rlog[:, t2 - 1 - r :]]
            disc = odd[:, r // 2] ^ np.bitwise_xor.reduce(terms, axis=1)
            disc_log = log[disc]
            nonzero = disc != 0
            grow = nonzero & (2 * length <= r)
            scale = np.where(nonzero, (disc_log - prev_log) % n, 2 * n)
            # After step r the locator has degree at most L <= r + 1.
            top = r + 2
            cur[:, :top] ^= exp[scale[:, None] + prev[:, :top]]
            saved = np.where(grow[:, None], cur_log, prev)
            prev[:, 2:] = saved[:, :-2]
            prev[:, :2] = 2 * n
            cur_log[:, :top] = log[cur[:, :top]]
            prev_log = np.where(grow, disc_log, prev_log)
            length = np.where(grow, r + 1 - length, length)
        return length, cur_log

    def _chien(self, locators: np.ndarray) -> np.ndarray:
        """(rows, n) bool: whether alpha^s is a root of each row's locator.

        Reads coefficients 0 .. t only; a row with a longer locator fails
        on its length whatever this returns. Logs and exponents sum below
        3n, so the gather indices fit int16.
        """
        coefficients = locators[:, : self.params.t + 1].astype(np.int16)
        index = np.empty((len(locators), self._n), dtype=np.int16)
        term = np.empty((len(locators), self._n), dtype=np.uint16)
        acc = np.zeros((len(locators), self._n), dtype=np.uint16)
        for j, row in enumerate(self._chien_table.astype(np.int16)):
            np.add(coefficients[:, j, None], row, out=index)
            acc ^= self._exp_np.take(index, out=term)
        return acc == 0


@lru_cache(maxsize=8)
def codec_for(params: CodeParams) -> BchCodec:
    """Shared codec instance per parameter set (tables are read-only)."""
    return BchCodec(params)


def encode(msg: BitString, params: CodeParams) -> BitString:
    return codec_for(params).encode(msg)


def decode(word: BitString, params: CodeParams) -> BitString | None:
    return codec_for(params).decode(word)
