"""Binary BCH codes with bounded-distance decoding.

Primitive BCH codes of length n = 2^m - 1. The generator polynomial is
built from the cyclotomic cosets of alpha^1 .. alpha^2t, which guarantees
a designed distance of 2t+1 and therefore correction of any error pattern
of weight <= t. The coset sizes alone give k, so an unsupported (n, k, t)
is rejected before any table is built.

Decoding is the binary form of the classical chain:

- Syndromes: only the t odd ones, S_1, S_3, .., S_2t-1, each the XOR of
  one byte-table entry per byte of the packed word. The even ones follow
  from S_2i = S_i^2.
- Berlekamp-Massey: for a binary word every second discrepancy is zero
  (Berlekamp 1968), so the recursion runs t steps instead of 2t. Field
  products are table lookups at a sum of logs, with no reduction mod n.
  Over many rows it touches live columns only: a locator of length L
  has L + 1 coefficients, so each step reaches no further than the
  longest locator of the chunk.
- Root search: the locator is evaluated at every alpha^s, as in Chien's
  search (Chien 1964), but by table. lambda_j alpha^(j s) is GF(2)-linear
  in the bits of lambda_j, so each half of a coefficient's bits indexes a
  precomputed row that holds its share at every s as m bit planes of
  uint64 words ("Four Russians", Arlazarov et al. 1970). The XOR of
  2(L+1) rows is the locator's value everywhere, a root is a position
  clear in all m planes, and a popcount gives the number of roots.
- Correction: the root mask is packed like the word, so the message is
  the XOR of the two on the word's first bytes.

One pipeline runs that chain on a chunk of packed words at once.
``decode`` passes it one word, the device's path, and ``decode_batch``
passes it up to _BATCH_CHUNK rows of a (B, ceil(n/8)) byte matrix at a
time. Words and messages stay packed in the ``BitString`` byte layout
throughout, so a caller that holds packed rows never unpacks a bit.
Berlekamp-Massey is the only stage with two forms, chosen by
the chunk's row count: its t steps in plain Python for one row, and with
masked per-row updates for two or more. The masked form costs numpy
calls more than arithmetic: on a 2-core machine at n=511, t=30, one row
took 1.3 ms in it against 81 to 198 us in Python. Every other stage
costs no more on one row in numpy.

For BCH(511, 259, 30) the tables take about 0.87 MB, built once per
codec in about 5 ms: 837 KiB of root-search rows (31 coefficients, 48
rows each of 9 planes of 8 words), 8 KB mapping each field element to
its two rows, 4 KB each of numpy exp and log tables, and for the
syndromes a 15 KB byte table and 4 KB of byte offsets. The root search
holds 576 bytes per row. A 256-row chunk of random words peaks at about
0.85 MiB of temporaries, most of it Berlekamp-Massey's int64 log arrays.

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
_BATCH_CHUNK = 256

# Table rows _roots gathers per call, which bounds its temporaries: one
# locator of up to 32 coefficients (64 rows) takes one call, and a chunk
# of 64 or more locators one row of each per call. _odd_syndromes gathers
# packed bytes under the same budget, but at least 4 at a time.
_ROOT_GATHER = 64


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
        # of exp and everything gathered from it is uint16.
        self._exp_np = np.asarray(self._exp, dtype=np.uint16)
        self._log_np = np.asarray(log, dtype=np.int64)
        self._build_root_tables(m)

        # Syndrome tables. A packed word's byte b holds bits 8b .. 8b+7, MSB
        # first, at powers n-1-8b-r for r = 0 .. 7, so its share of S_i is
        # alpha^(i(n-1-8b)) times the XOR of alpha^(-i r) over its set bits.
        # Row v of the byte table holds the log of that XOR for byte value v
        # and each odd i; row b of the shift table holds the log of
        # alpha^(i(n-1-8b)). Both are uint16, and so is their sum (< 3n).
        odd = np.arange(1, 2 * t, 2)
        set_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        inverse = self._exp_np[np.outer(-np.arange(8), odd) % n]
        byte_values = np.bitwise_xor.reduce(
            np.where(set_bits[:, :, None], inverse[None], 0), axis=1
        )
        self._syndrome_bytes = self._log_np[byte_values].astype(np.uint16)
        starts = n - 1 - 8 * np.arange((n + 7) // 8)
        self._syndrome_shift = (np.outer(starts, odd) % n).astype(np.uint16)[:, None, :]

    def _build_root_tables(self, m: int) -> None:
        """Tables for ``_roots``, built one coefficient at a time.

        Bit position c of a root mask stands for alpha^s with s = (c + 1)
        mod n, because a root alpha^s marks an error at word bit (s - 1)
        mod n; so the mask's set bits are the error positions themselves.
        Its bytes are packed like ``BitString`` data, MSB first, so the
        mask's first bytes XOR straight onto a packed word's message bytes.
        lambda_j alpha^(j s) is GF(2)-linear in the m bits of lambda_j, and
        the h = ceil(m/2) low bits and the m - h high bits each index a
        table row that holds their share at every s, as m bit planes of
        ``words`` uint64 words. Rows j E .. j E + 2^h - 1 serve the low
        half of lambda_j and the next 2^(m-h) its high half, E rows per j.
        """
        n, t = self._n, self.params.t
        low = (m + 1) // 2
        entries = (1 << low) + (1 << (m - low))
        words = (n + 63) // 64
        value = np.arange(1 << m)
        self._root_halves = np.stack((value & (1 << low) - 1, (1 << low) + (value >> low)), 1)
        self._root_offsets = np.arange(t + 1)[:, None] * entries
        table = np.zeros((t + 1, entries, m * words), dtype=np.uint64)
        powers = np.outer(np.arange(t + 1), np.arange(n) + 1) % n
        planes = np.zeros((m, m, 64 * words), dtype=np.uint8)
        for rows, power in zip(table, powers):
            # Row b of basis holds alpha^b alpha^(j s), the share of bit b
            # of lambda_j (exp holds every power twice, so b + (j s mod n)
            # needs no reduction); each half's rows are the XOR spans of
            # its bits' rows, built by doubling.
            basis = self._exp_np[np.arange(m)[:, None] + power]
            planes[:, :, :n] = basis[:, None, :] >> np.arange(m, dtype=np.uint16)[:, None] & 1
            packed = np.packbits(planes, axis=2).view(np.uint64).reshape(m, -1)
            for first, bits in ((0, range(low)), (1 << low, range(low, m))):
                for size, b in enumerate(bits):
                    span = rows[first : first + (1 << size)]
                    rows[first + (1 << size) : first + (2 << size)] = span ^ packed[b]
        self._root_table = table.reshape(-1, m * words)
        self._root_valid = np.packbits(np.arange(64 * words) < n).view(np.uint64)

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
        ok, messages = self._decode_rows(np.frombuffer(word.data, np.uint8)[None])
        return BitString(messages[0].tobytes(), p.k) if ok[0] else None

    def decode_batch(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row of packed words as ``decode`` would.

        ``words`` is a (B, ceil(n/8)) uint8 array whose row i holds the
        ``BitString`` bytes of word i, pad bits zero. Returns ``ok``, a
        bool array of shape (B,), and the messages, a (B, ceil(k/8)) uint8
        array whose row i holds the ``BitString`` bytes of message i, or
        zeros where ``ok`` is false. Row i equals ``decode`` on row i,
        failures and miscorrections included, because both run
        ``_decode_rows``: the rows are decoded _BATCH_CHUNK at a time, so
        memory does not grow with B.
        """
        p = self.params
        words = np.asarray(words)
        size = (p.n + 7) // 8
        if words.ndim != 2 or words.shape[1] != size or words.dtype != np.uint8:
            raise ValueError(
                f"words must be a (B, {size}) uint8 array, got {words.dtype} {words.shape}"
            )
        if (words[:, -1] & (1 << -p.n % 8) - 1).any():
            raise ValueError("padding bits beyond n must be zero")
        ok = np.zeros(len(words), dtype=bool)
        messages = np.zeros((len(words), (p.k + 7) // 8), dtype=np.uint8)
        for start in range(0, len(words), _BATCH_CHUNK):
            chunk = slice(start, start + _BATCH_CHUNK)
            ok[chunk], messages[chunk] = self._decode_rows(words[chunk])
        return ok, messages

    def _decode_rows(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode rows of packed word bytes, in the ``BitString`` format.

        Returns the ok mask and the packed messages, zero where a row
        fails. Berlekamp-Massey is the one stage with two forms: one row
        runs the plain-Python ``_locator``, whose t steps cost less than
        the numpy calls of ``_locators``; two or more rows run
        ``_locators``.
        """
        p = self.params
        odd = self._odd_syndromes(packed)
        if len(packed) == 1:
            locator = self._locator(odd[0].tolist())
            length = len(locator) - 1
            locators = self._exp_np[locator[: p.t + 1]][None]
        else:
            length, locators = self._locators(odd)
            locators = locators[:, : p.t + 1]
        # A locator longer than t fails on its length whatever its roots.
        roots = self._roots(locators)
        ok = (length <= p.t) & (np.bitwise_count(roots).sum(axis=1) == length)
        size = (p.k + 7) // 8
        messages = np.where(ok[:, None], packed[:, :size] ^ roots.view(np.uint8)[:, :size], 0)
        messages[:, -1] &= 0xFF << (-p.k % 8) & 0xFF  # parity bits past k
        return ok, messages

    def _odd_syndromes(self, packed: np.ndarray) -> np.ndarray:
        """S_1, S_3, .., S_2t-1 of each row of packed bytes, as a (rows, t) array.

        Bytes are gathered under the same budget as ``_roots``: numpy
        widens the gather index to int64, so one row takes all 64 bytes of
        a 511-bit word at once and a 256-row chunk 4 bytes per call.
        """
        columns = packed.T
        odd = np.zeros((len(packed), self.params.t), dtype=np.uint16)
        step = max(4, _ROOT_GATHER // len(packed))
        for first in range(0, len(columns), step):
            logs = self._syndrome_bytes[columns[first : first + step]]
            logs += self._syndrome_shift[first : first + step]
            odd ^= np.bitwise_xor.reduce(self._exp_np.take(logs), axis=0)
        return odd

    def _locators(self, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_locator`` over every row at once, with masked per-row updates.

        Returns each row's locator length L and a (rows, max L + 1) array
        of its coefficients, zero beyond L.

        Only live columns are computed. A row's coefficients past its
        length are zero, so step r sums the discrepancy over columns 1 ..
        min(r, longest), where longest is the largest L of any row so far.
        The correction x^shift B(x) has degree at most r + 1 - L, which is
        at most the row's new length (Massey 1969), so the update and its
        log gather stop at the new longest length.
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
        longest = 0
        for r in range(0, t2, 2):
            live = min(r, longest)
            first = t2 - 1 - r
            terms = exp[cur_log[:, 1 : live + 1] + rlog[:, first : first + live]]
            disc = odd[:, r // 2] ^ np.bitwise_xor.reduce(terms, axis=1)
            disc_log = log[disc]
            nonzero = disc != 0
            grow = nonzero & (2 * length <= r)
            scale = np.where(nonzero, (disc_log - prev_log) % n, 2 * n)
            length = np.where(grow, r + 1 - length, length)
            longest = int(length.max())
            top = longest + 1
            cur[:, :top] ^= exp[scale[:, None] + prev[:, :top]]
            saved = np.where(grow[:, None], cur_log, prev)
            prev[:, 2:] = saved[:, :-2]
            prev[:, :2] = 2 * n
            cur_log[:, :top] = log[cur[:, :top]]
            prev_log = np.where(grow, disc_log, prev_log)
        return length, cur[:, : longest + 1]

    def _roots(self, coefficients: np.ndarray) -> np.ndarray:
        """Root masks of the locators in the rows of ``coefficients``.

        Row i of ``coefficients`` holds a locator's coefficient values,
        lowest degree first; rows may stop anywhere, since missing
        coefficients are zero. Returns a (rows, words) uint64 array whose
        bit c (word c // 64, bit c % 64) is set when alpha^((c + 1) mod n)
        is a root. Each coefficient reads two table rows, one per half of
        its bits, and the rows' XOR holds the locator's value at every
        alpha^s as m bit planes; a root is a position clear in all of them.
        """
        rows, count = coefficients.shape
        index = self._root_halves[coefficients] + self._root_offsets[:count]
        index = index.reshape(rows, 2 * count)
        values = np.zeros((rows, self._root_table.shape[1]), dtype=np.uint64)
        step = max(1, _ROOT_GATHER // rows)
        for first in range(0, 2 * count, step):
            terms = self._root_table.take(index[:, first : first + step], axis=0)
            values ^= np.bitwise_xor.reduce(terms, axis=1)
        planes = values.reshape(rows, -1, self._root_valid.size)
        return ~np.bitwise_or.reduce(planes, axis=1) & self._root_valid


@lru_cache(maxsize=8)
def codec_for(params: CodeParams) -> BchCodec:
    """Shared codec instance per parameter set (tables are read-only)."""
    return BchCodec(params)


def encode(msg: BitString, params: CodeParams) -> BitString:
    return codec_for(params).encode(msg)


def decode(word: BitString, params: CodeParams) -> BitString | None:
    return codec_for(params).decode(word)
