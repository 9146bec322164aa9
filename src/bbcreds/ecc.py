"""Binary BCH codes with bounded-distance decoding.

Primitive BCH codes of length n = 2^m - 1. The generator polynomial is
built from the cyclotomic cosets of alpha^1 .. alpha^2t, which guarantees
a designed distance of 2t+1 and therefore correction of any error pattern
of weight <= t. The coset sizes alone give k, so ``CodeParams`` derives k
and rejects an unsupported (n, t) without building a codec or a table.

Encoding is systematic, message bits then parity, and the parity is
read from a table as in table-driven CRC division (Sarwate 1988): it is
linear in the message bits, so ``encode`` XORs one ``_parity_rows`` entry
per 4-bit nibble of the packed message, 66 at (511, 259, 30). Rows per
byte would halve the lookups but take eight times the memory, in every
process that builds a codec.

Decoding is the binary form of the classical chain:

- Syndromes: only the t odd ones, S_1, S_3, .., S_2t-1, each the XOR of
  one fused-table entry per byte of the packed word: entry (b, v) holds
  byte b's share of every odd syndrome when it has value v. The even ones
  follow from S_2i = S_i^2.
- Berlekamp-Massey: for a binary word every second discrepancy is zero
  (Berlekamp 1968), so the recursion runs t steps instead of 2t. Field
  products are table lookups at a sum of logs, with no reduction mod n.
  Over many rows its arrays are coefficient-major, one row per
  coefficient of every locator, so each step works on whole contiguous
  rows, and it touches live coefficients only: a locator of length L
  has L + 1 coefficients, so each step reaches no further than the
  longest locator of the batch.
- Root search: the locator is evaluated at every alpha^s, as in Chien's
  search (Chien 1964), but by table. lambda_j alpha^(j s) is GF(2)-linear
  in the bits of lambda_j, so each half of a coefficient's bits indexes a
  precomputed row that holds its share at every s as m bit planes of
  uint64 words ("Four Russians", Arlazarov et al. 1970). The XOR of
  2(L+1) rows is the locator's value everywhere, a root is a position
  clear in all m planes, and a popcount gives the number of roots.
- Correction: the root mask is packed like the word, so the message is
  the XOR of the two on the word's first bytes.

Two pipelines run that chain and share the syndrome table and the field
tables. The caller's path picks one: ``fe_reproduce`` calls ``decode``
and ``fe_reproduce_batch`` calls ``decode_batch``, even for one row (a
switch on the row count was tried and not kept). ``decode`` runs one
word, the device's path, in Python integers after the syndromes: the
plain-Python ``_locator``, then ``_root_mask``, which XORs each
coefficient's two table rows held as Python ints and folds the m planes
with shifts and ORs, and one integer XOR that corrects the word.
``decode_batch`` runs all rows of a (B, ceil(n/8)) byte matrix in one
pass, with masked numpy Berlekamp-Massey (``_locators``) and the numpy
root search (``_roots``); its temporaries grow with B, so its caller
sizes the batch, as the evaluation reports do (512 rows). On one word
numpy's per-call overhead outweighs its arithmetic: on a 2-core machine
at n=511, t=30, one random row took 0.59 ms in ``_locators`` against
0.10 ms in ``_locator``, and the root search at 8 and 30 errors 12 and
15 us in ``_roots`` against 5 and 10 us in ``_root_mask``. Words and
messages stay packed in the ``BitString`` byte layout throughout, so a
caller that holds packed rows never unpacks a bit.

The constructor builds only what ``encode`` and the index arithmetic
read, and each decoder table is built on first use by the pipeline that
reads it, so enrollment, which only encodes, never pays for a decoder.
For BCH(511, 259, 30) a new codec holds about 124 KiB, built in 1-2 ms:
75 KB of parity rows (66 nibble rows of 16 ints; rows per byte would take
573 KB), the field lists, 4 KB each of numpy exp and log tables, and 8 KB
mapping each field element to its two root-search rows. The first
``decode`` or ``decode_batch`` builds 960 KiB of fused syndrome entries
(64 byte positions, 256 values, 30 uint16 syndromes). The first
``decode_batch`` builds 837 KiB of root-search rows (31 coefficients, 48
rows each of 9 planes of 8 words), and the first ``decode`` the same 1488
rows as Python ints for ``_root_mask`` (898 KiB). So a codec that runs one
pipeline holds about 1.9 MiB and one that runs both 2.75 MiB, and a first
call takes about 5-7 ms (tracemalloc, and best of 15 on a 2-core
machine). At (1023, 1, 511) the same three tables take 32, 40 and 42 MiB.
The root search holds 576 bytes per row. A batch of random words peaks at
about 3.2 KB of temporaries per row (0.8 MiB at 256 rows, 1.6 MiB at
512), most of it Berlekamp-Massey's int64 log arrays.

Beyond radius t the decoder may return a wrong message (miscorrection)
or fail; callers are expected to verify the result against independent
material, so no attempt is made to detect miscorrection here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add

import numpy as np

from .quantize import BitString

__all__ = ["CodeParams", "BchCodec", "codec_for"]

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

# Fused-table entries _odd_syndromes gathers per call, one per packed byte
# of each row, but at least 4 bytes at a time; this bounds its temporaries.
_SYNDROME_GATHER = 64


@dataclass(frozen=True)
class CodeParams:
    """(n, t): codeword length and correctable errors, which fix the message length k."""

    n: int
    t: int
    k: int = field(init=False)

    def __post_init__(self) -> None:
        # Only parameter sets the codec supports exist; checking builds no codec.
        n, t = self.n, self.t
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        if n != (1 << n.bit_length()) - 1 or n.bit_length() not in _PRIMITIVE_POLY:
            raise ValueError(
                f"unsupported codeword length {n}; need 2^m - 1 with m in "
                f"{sorted(_PRIMITIVE_POLY)}"
            )
        if 2 * t >= n:
            raise ValueError(f"t={t} needs 2t < n={n}")
        object.__setattr__(self, "k", _bch_k(n, t))

    def check_k(self, k: int) -> None:
        """Raise ValueError unless ``k``, as a helper header or a config
        file states it, is this code's k; one outside (0, n] is named so."""
        if not 0 < k <= self.n:
            raise ValueError(f"require 0 < k <= n, got k={k}, n={self.n}")
        if k != self.k:
            raise ValueError(
                f"BCH length {self.n} with t={self.t} has k={self.k}, not k={k}; "
                f"pick (n, k, t) from the standard tables"
            )


def _clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) multiplication of integer-coded polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


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


@lru_cache(maxsize=None)
def _bch_k(n: int, t: int) -> int:
    """k of the length-n BCH code with designed distance 2t + 1; cached, as
    every parsed record asks (only about 1020 supported (n, t) pairs exist)."""
    return n - sum(map(len, _cyclotomic_cosets(n, t)))


def _parity_rows(params: CodeParams, generator: int) -> list[tuple[list[int], list[int]]]:
    """Parity shares of each packed message byte, as two 16-entry nibble rows.

    Parity is linear in the message bits, and message bit j, the
    coefficient of x^(n-1-j) once shifted by n - k, contributes
    x^(n-1-j) mod g. Those shares come from doubling: x^(n-k) mod g is
    g + x^(n-k), as g is monic of degree n - k, and each next power shifts
    left by one and adds g when bit n - k is set. Entry v of a nibble's row
    is the XOR of the shares of v's set bits, built by doubling over the
    bits; pad bits past k are zero in a packed message and get no share.
    """
    n, k = params.n, params.k
    r = n - k
    shares = []  # x^r .. x^(n-1) mod g: the shares of message bits k-1 .. 0
    power = generator ^ (1 << r)
    for _ in range(k):
        shares.append(power)
        power <<= 1
        if power >> r & 1:
            power ^= generator
    shares = shares[::-1] + [0] * (-k % 8)
    rows = []
    for first in range(0, len(shares), 4):
        row = [0]
        for share in reversed(shares[first : first + 4]):  # nibble bit 0 is its last message bit
            row += [v ^ share for v in row]
        rows.append(row)
    return list(zip(rows[0::2], rows[1::2]))


class BchCodec:
    """Encoder/decoder for one (n, k, t) parameter set.

    The constructor builds the encoder's parity rows and the field
    tables. Each decoder table is a ``cached_property`` built on first use
    by the pipeline that reads it: ``_syndrome_table`` by the first
    ``decode`` or ``decode_batch``, ``_root_table`` by the first
    ``decode_batch`` and ``_root_ints`` by the first ``decode`` (960, 837
    and 898 KiB at (511, 259, 30)). No table is mutated once built, so a
    single codec may be shared across threads: two threads that race on a
    first call may each build a table, but each stores it whole.
    """

    def __init__(self, params: CodeParams):
        n, t = params.n, params.t
        m = n.bit_length()
        cosets = _cyclotomic_cosets(n, t)
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

        # Field elements are below 2^10, so the numpy copy of exp and
        # everything gathered from it is uint16.
        self._exp_np = np.asarray(self._exp, dtype=np.uint16)
        self._log_np = np.asarray(log, dtype=np.int64)

        # Index arithmetic of the root search, whose rows ``_root_rows``
        # lays out: each coefficient's low and high bits pick one row each.
        low = (m + 1) // 2
        entries = (1 << low) + (1 << (m - low))
        words = (n + 63) // 64
        value = np.arange(1 << m)
        self._root_halves = np.stack((value & (1 << low) - 1, (1 << low) + (value >> low)))
        self._root_offsets = np.arange(t + 1)[:, None] * entries
        self._root_valid = np.packbits(np.arange(64 * words) < n).view(np.uint64)
        self._root_plane_bits = 64 * words
        self._root_low, self._root_entries = low, entries

        # Byte b of a packed word is row 256 b + v of ``_syndrome_table``.
        self._syndrome_rows = 256 * np.arange((n + 7) // 8)[:, None]

        # Encoder table: two nibble rows per packed message byte.
        self._parity_rows = _parity_rows(params, self._generator)

    @cached_property
    def _syndrome_table(self) -> np.ndarray:
        """The fused syndrome table, built on the first ``decode`` or ``decode_batch``.

        A packed word's byte b holds bits 8b .. 8b+7, MSB first, at powers
        n-1-8b-r for r = 0 .. 7, so its share of S_i is the XOR of
        alpha^(i(n-1-8b-r)) over its set bits. Row 256 b + v holds that
        share for byte value v and each odd i, built by doubling over the
        bits of v, so the odd syndromes are the XOR of one row per byte.
        """
        n, t = self._n, self.params.t
        odd = np.arange(1, 2 * t, 2)
        size = (n + 7) // 8
        powers = (n - 1 - np.arange(8 * size)).reshape(size, 8)
        shares = self._exp_np[powers[:, :, None] * odd % n]
        table = np.zeros((size, 256, t), dtype=np.uint16)
        for j in range(8):  # bit j of v is bit r = 7 - j of the byte
            table[:, 1 << j : 2 << j] = table[:, : 1 << j] ^ shares[:, 7 - j, None]
        return table.reshape(256 * size, t)

    def _root_rows(self) -> np.ndarray:
        """A fresh copy of the root-search rows, built one coefficient at a time.

        Bit position c of a root mask stands for alpha^s with s = (c + 1)
        mod n, because a root alpha^s marks an error at word bit (s - 1)
        mod n; so the mask's set bits are the error positions themselves.
        Its bytes are packed like ``BitString`` data, MSB first, so the
        mask's first bytes XOR straight onto a packed word's message bytes.
        lambda_j alpha^(j s) is GF(2)-linear in the m bits of lambda_j, and
        the h = ceil(m/2) low bits and the m - h high bits each index a
        table row that holds their share at every s, as m bit planes of
        ceil(n/64) uint64 words. Rows j E .. j E + 2^h - 1 serve the low
        half of lambda_j and the next 2^(m-h) its high half, E rows per j.
        """
        n, t, low = self._n, self.params.t, self._root_low
        m = n.bit_length()
        words = self._root_valid.size
        table = np.zeros((t + 1, self._root_entries, m * words), dtype=np.uint64)
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
        return table.reshape(-1, m * words)

    @cached_property
    def _root_table(self) -> np.ndarray:
        """``_roots``'s rows, built on the first ``decode_batch``."""
        return self._root_rows()

    @cached_property
    def _root_ints(self) -> list[int]:
        """``_root_mask``'s rows, built on the first ``decode``: each row one
        Python int of its bytes big-endian, so plane 0 is the top 64
        ceil(n/64) bits and a position's bit in each plane sits that many
        bits below the last."""
        return [int.from_bytes(row.tobytes(), "big") for row in self._root_rows()]

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
        """Systematic encoding: message bits first, then parity bits.

        The parity is the XOR of two ``_parity_rows`` entries per packed
        message byte, one for each nibble.
        """
        p = self.params
        if msg.n != p.k:
            raise ValueError(f"message length {msg.n} does not match k={p.k}")
        parity = 0
        for (high, low), byte in zip(self._parity_rows, msg.data):
            parity ^= high[byte >> 4] ^ low[byte & 15]
        return BitString.from_int((msg.as_int() << (p.n - p.k)) ^ parity, p.n)

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

    def _root_mask(self, locator: list[int]) -> int:
        """Root mask of one locator, from the logs ``_locator`` returns.

        Each coefficient XORs in its two ``_root_ints`` rows, as ``_roots``
        does for a batch, and the m planes are folded with shifts and ORs:
        each fold ORs the upper half of the planes onto the lower, so after
        ceil(log2 m) of them the lowest plane holds the OR of all. The mask
        comes back in the packed word's layout: ``int.from_bytes`` of the
        word's bytes has its bit c at binary digit 8 ceil(n/8) - 1 - c, and
        so does the mask when alpha^((c + 1) mod n) is a root.
        """
        exp, rows, low, entries = self._exp, self._root_ints, self._root_low, self._root_entries
        low_mask = (1 << low) - 1  # the high half's rows start at low_mask + 1
        value = 0
        for first, coefficient_log in zip(range(0, entries * len(locator), entries), locator):
            v = exp[coefficient_log]
            value ^= rows[first + (v & low_mask)] ^ rows[first + low_mask + 1 + (v >> low)]
        n, bits = self._n, self._root_plane_bits
        planes = n.bit_length()
        while planes > 1:
            planes = (planes + 1) // 2
            value |= value >> planes * bits
        clear = ~value >> bits - n
        return (clear & (1 << n) - 1) << -n % 8

    def decode(self, word: BitString) -> BitString | None:
        """Correct up to t errors and return the message, or None on failure.

        The one-word pipeline: the odd syndromes from the fused table, the
        plain-Python ``_locator``, ``_root_mask`` and one integer XOR.
        """
        p = self.params
        if word.n != p.n:
            raise ValueError(f"word length {word.n} does not match n={p.n}")
        odd = self._odd_syndromes(np.frombuffer(word.data, np.uint8)[None])
        locator = self._locator(odd[0].tolist())
        length = len(locator) - 1
        # A locator longer than t fails on its length whatever its roots.
        if length > p.t:
            return None
        roots = self._root_mask(locator)
        if roots.bit_count() != length:
            return None
        corrected = int.from_bytes(word.data, "big") ^ roots
        return BitString.from_int(corrected >> 8 * len(word.data) - p.k, p.k)

    def decode_batch(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row of packed words as ``decode`` would.

        ``words`` is a (B, ceil(n/8)) uint8 array whose row i holds the
        ``BitString`` bytes of word i, pad bits zero. Returns ``ok``, a
        bool array of shape (B,), and the messages, a (B, ceil(k/8)) uint8
        array whose row i holds the ``BitString`` bytes of message i, or
        zeros where ``ok`` is false. Row i equals ``decode`` on row i,
        failures and miscorrections included, though the two run separate
        pipelines after the syndromes; ``TestBatchEquality`` and
        ``TestReferenceEquality`` hold them to that. The B rows run in one
        pass, so the temporaries grow with B (about 1.6 MiB at B = 512 and
        n = 511) and the caller bounds B.
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
        length, locators = self._locators(self._odd_syndromes(words))
        # A locator longer than t fails on its length whatever its roots.
        roots = self._roots(locators[:, : p.t + 1])
        ok = (length <= p.t) & (np.bitwise_count(roots).sum(axis=1) == length)
        kbytes = (p.k + 7) // 8
        messages = np.where(ok[:, None], words[:, :kbytes] ^ roots.view(np.uint8)[:, :kbytes], 0)
        messages[:, -1] &= 0xFF << (-p.k % 8) & 0xFF  # parity bits past k
        return ok, messages

    def _odd_syndromes(self, packed: np.ndarray) -> np.ndarray:
        """S_1, S_3, .., S_2t-1 of each row of packed bytes, as a (rows, t) array.

        Row 256 b + v of the fused table holds byte b's share of every odd
        syndrome when it has value v, so each byte is one row gathered and
        XORed in. Bytes are gathered under ``_SYNDROME_GATHER``: numpy
        widens the gather index to int64, so one row takes all 64 bytes of
        a 511-bit word at once and a 256-row batch 4 bytes per call.
        """
        index = packed.T + self._syndrome_rows
        odd = np.zeros((len(packed), self.params.t), dtype=np.uint16)
        step = max(4, _SYNDROME_GATHER // max(1, len(packed)))
        for first in range(0, len(index), step):
            terms = self._syndrome_table.take(index[first : first + step], axis=0)
            odd ^= np.bitwise_xor.reduce(terms, axis=0)
        return odd

    def _locators(self, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_locator`` over every row at once, with masked per-row updates.

        Returns each row's locator length L and a (rows, max L + 1) array
        of its coefficients, zero beyond L.

        Every array is coefficient-major, (coefficients, rows): each row
        holds one coefficient of every locator, so a step's discrepancy is
        an XOR down contiguous rows and its update and save work on whole
        rows. Only live coefficients are computed. A locator's
        coefficients past its length are zero, so step r sums the
        discrepancy over coefficients 1 .. min(r, longest), where longest
        is the largest L of any row so far. The correction x^shift B(x) has
        degree at most r + 1 - L, which is at most the row's new length
        (Massey 1969), so the update and its log gather stop at the new
        longest length.
        """
        n, t = self._n, self.params.t
        t2 = 2 * t
        exp, log = self._exp_np, self._log_np
        rows = len(odd)
        # S_e = S_o^(2^a) for e = o 2^a with o odd, so log S_e = 2^a log S_o;
        # 2^a is the lowest set bit of e.
        odd = odd.T.copy()
        e = np.arange(1, t2)
        power = e & -e
        odd_logs = log[odd[e // power // 2]]
        slog = np.where(odd_logs == 2 * n, 2 * n, odd_logs * power[:, None] % n)
        rlog = slog[::-1]
        # cur holds the locator's coefficients and cur_log their logs. prev
        # holds the logs of x^shift times the polynomial saved at the last
        # length change. Every row's shift grows by 2 or restarts at 2 on
        # each step, so prev is a window on a taller buffer that slides 2
        # rows down per step: the rows it takes in are sentinel and its
        # top two drop out. Rows of prev past reach hold only the sentinel.
        width = t2 + 1
        cur = np.zeros((width, rows), dtype=np.uint16)
        cur[0] = 1
        cur_log = np.full((width, rows), 2 * n)
        cur_log[0] = 0
        held = np.full((width + t2, rows), 2 * n)
        held[t2 + 1 : t2 + 2] = 0  # x^1; with t = 0 no step runs and no row 1 exists
        reach = 1
        length = np.zeros(rows, dtype=np.int64)
        prev_log = np.zeros(rows, dtype=np.int64)
        longest = 0
        for r in range(0, t2, 2):
            prev = held[t2 - r : t2 - r + width]
            live = min(r, longest)
            first = t2 - 1 - r
            terms = exp[cur_log[1 : live + 1] + rlog[first : first + live]]
            disc = odd[r // 2] ^ np.bitwise_xor.reduce(terms, axis=0)
            disc_log = log[disc]
            nonzero = disc != 0
            grow = nonzero & (length <= r // 2)
            scale = np.where(nonzero, (disc_log - prev_log) % n, 2 * n)
            length = np.where(grow, r + 1 - length, length)
            # Past the old longest length and past reach, cur_log and prev
            # hold only the sentinel, so the save stops there.
            saved = min(width, max(longest + 1, reach + 1))
            longest = int(length.max(initial=0))
            top = longest + 1
            cur[:top] ^= exp[scale + prev[:top]]
            np.copyto(prev[:saved], cur_log[:saved], where=grow)
            reach = saved + 1
            log.take(cur[:top], out=cur_log[:top])
            prev_log = np.where(grow, disc_log, prev_log)
        return length, cur[: longest + 1].T

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
        # Coefficient-major: row h count + j of index holds the table row of
        # half h of coefficient j for every locator, so each gathered slab
        # is one (rows, words) block XORed in whole, one slab per call.
        index = self._root_halves[:, coefficients.T] + self._root_offsets[:count]
        values = np.zeros((rows, self._root_table.shape[1]), dtype=np.uint64)
        for slab in index.reshape(2 * count, rows):
            values ^= self._root_table.take(slab, axis=0)
        planes = values.reshape(rows, self._n.bit_length(), self._root_valid.size)
        return ~np.bitwise_or.reduce(planes, axis=1) & self._root_valid


@lru_cache(maxsize=8)
def codec_for(params: CodeParams) -> BchCodec:
    """Shared codec instance per parameter set (tables are read-only)."""
    return BchCodec(params)
