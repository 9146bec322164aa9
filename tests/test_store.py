import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds.binding import (
    BOUND_VERSION,
    BoundCredential,
    KeyDigest,
    Sketch,
    decode_bound,
    decode_sketch,
    encode_bound,
    encode_sketch,
)
from bbcreds.credential import decode_agecred, encode_agecred, generate_issuer_keys, issue_agecred
from bbcreds.ecc import BchCodec, codec_for
from bbcreds.fextract import HELPER_VERSION, HelperData, decode_helper, encode_helper
from bbcreds.quantize import BitString
from bbcreds.store import (
    DeviceRecord,
    FormatError,
    FormatReason,
    MAGIC,
    decode_record,
    encode_record,
)

from conftest import (
    UNSUPPORTED_HEADER_IDS,
    UNSUPPORTED_HEADERS,
    with_encrypted_sketch,
    with_helper_header,
)


def _random_record(rng=None) -> DeviceRecord:
    rng = rng or os.urandom
    n = 511
    offset_bits = bytearray(rng(64))
    offset_bits[-1] &= 0xFE  # zero padding bit
    return DeviceRecord(
        helper=HelperData(salt=rng(16), offset=BitString(bytes(offset_bits), n)),
        sketch=Sketch(rng(32)),
        digest=KeyDigest(rng(32)),
        bound=BoundCredential(nonce=rng(12), ciphertext=rng(130)),
    )


class TestHeader:
    def test_first_five_bytes(self, enrollment):
        data = encode_record(enrollment["record"])
        assert data[:5] == bytes([0x42, 0x42, 0x43, 0x31, 0x01])
        assert data[:4] == MAGIC

    def test_tags_strictly_ascending(self, enrollment):
        data = encode_record(enrollment["record"])
        tags = []
        pos = 5
        while pos < len(data):
            tag = data[pos]
            length = int.from_bytes(data[pos + 1 : pos + 5], "big")
            tags.append(tag)
            pos += 5 + length
        assert tags == sorted(tags) == [0x01, 0x02, 0x03, 0x04]


class TestRoundtrip:
    def test_hundred_random_records(self):
        for _ in range(100):
            record = _random_record()
            assert decode_record(encode_record(record)) == record

    @settings(max_examples=30)
    @given(st.data())
    def test_generated_records(self, data):
        draw = data.draw

        def taker(k):
            return bytes(draw(st.binary(min_size=k, max_size=k)))

        record = _random_record(taker)
        assert decode_record(encode_record(record)) == record


class TestTruncation:
    def test_every_prefix_fails_cleanly(self, enrollment):
        data = encode_record(enrollment["record"])
        for cut in range(len(data)):
            with pytest.raises(FormatError):
                decode_record(data[:cut])

    def test_midstream_cut_reports_truncated(self, enrollment):
        data = encode_record(enrollment["record"])
        with pytest.raises(FormatError) as err:
            decode_record(data[:7])
        assert err.value.reason is FormatReason.TRUNCATED
        assert err.value.position >= 5


class TestStrictness:
    def test_bad_magic(self, enrollment):
        data = bytearray(encode_record(enrollment["record"]))
        data[0] ^= 0xFF
        with pytest.raises(FormatError) as err:
            decode_record(bytes(data))
        assert err.value.reason is FormatReason.BAD_MAGIC

    def test_bad_version(self, enrollment):
        data = bytearray(encode_record(enrollment["record"]))
        data[4] = 0x02
        with pytest.raises(FormatError) as err:
            decode_record(bytes(data))
        assert err.value.reason is FormatReason.BAD_VERSION

    def test_unknown_tag(self, enrollment):
        data = encode_record(enrollment["record"])
        extra = data + bytes([0x07]) + (3).to_bytes(4, "big") + b"xyz"
        with pytest.raises(FormatError) as err:
            decode_record(extra)
        assert err.value.reason is FormatReason.UNKNOWN_TAG

    def test_duplicate_tag(self, enrollment):
        data = encode_record(enrollment["record"])
        digest_tlv = bytes([0x03]) + (32).to_bytes(4, "big") + bytes(32)
        with pytest.raises(FormatError) as err:
            decode_record(data + digest_tlv)
        assert err.value.reason is FormatReason.DUPLICATE_TAG

    def test_missing_tag_is_invariant_violation(self, enrollment):
        data = encode_record(enrollment["record"])
        # Strip the digest entry (tag 0x03, fixed 32-byte payload).
        pos = 5
        out = bytearray(data[:5])
        while pos < len(data):
            tag = data[pos]
            length = int.from_bytes(data[pos + 1 : pos + 5], "big")
            entry = data[pos : pos + 5 + length]
            if tag != 0x03:
                out += entry
            pos += 5 + length
        with pytest.raises(FormatError) as err:
            decode_record(bytes(out))
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION

    def test_out_of_order_tags_rejected(self, enrollment):
        data = encode_record(enrollment["record"])
        entries = []
        pos = 5
        while pos < len(data):
            length = int.from_bytes(data[pos + 1 : pos + 5], "big")
            entries.append(data[pos : pos + 5 + length])
            pos += 5 + length
        swapped = data[:5] + entries[1] + entries[0] + entries[2] + entries[3]
        with pytest.raises(FormatError) as err:
            decode_record(swapped)
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION

    def test_component_invariants_enforced(self, enrollment):
        # Corrupt the digest length field so the payload is 31 bytes.
        record = enrollment["record"]
        data = encode_record(record)
        pos = 5
        out = bytearray(data[:5])
        while pos < len(data):
            tag = data[pos]
            length = int.from_bytes(data[pos + 1 : pos + 5], "big")
            value = data[pos + 5 : pos + 5 + length]
            if tag == 0x03:
                value = value[:31]
                out += bytes([tag]) + (31).to_bytes(4, "big") + value
            else:
                out += data[pos : pos + 5 + length]
            pos += 5 + length
        with pytest.raises(FormatError) as err:
            decode_record(bytes(out))
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION

    @pytest.mark.parametrize("header", UNSUPPORTED_HEADERS, ids=UNSUPPORTED_HEADER_IDS)
    def test_unsupported_code_rejected(self, monkeypatch, header):
        # Every record is BCH(511, 259, 30) over 512-d embeddings, and the
        # helper header states (n, k, t, dim) as constants. Any other header
        # is refused at the helper's first byte, before a codec is built:
        # t=29 (k=259 is not that code's), t=300 (2t >= n), another k, dim 7,
        # and the (1023, 1, 511) code that earlier versions could write,
        # whose decoder tables take 114 MiB (tracemalloc).
        def build_generator(*args):
            raise AssertionError("generator built for a rejected helper header")

        data = with_helper_header(encode_record(_random_record()), *header)
        monkeypatch.setattr(BchCodec, "_build_generator", build_generator)
        codec_for.cache_clear()
        with pytest.raises(FormatError) as err:
            decode_record(data)
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION
        assert err.value.position == 10
        assert "n={} k={} t={} dim={}".format(*header) in str(err.value)
        assert codec_for.cache_info().currsize == 0

    def test_unsupported_bound_version_rejected(self, enrollment):
        record = enrollment["record"]
        data = encode_record(record)
        pos = len(data) - len(encode_bound(record.bound))  # the bound credential's version
        assert data[pos] == BOUND_VERSION
        with pytest.raises(FormatError) as err:
            decode_record(data[:pos] + b"\x02" + data[pos + 1 :])
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION
        assert "unsupported bound credential version 2" in str(err.value)

    def test_component_error_names_its_value_offset(self, enrollment):
        # A component that fails to decode is reported at the first byte of
        # its entry's value, not at the end of the record.
        data = encode_record(enrollment["record"])
        helper_at = len(MAGIC) + 1 + 5  # format version, helper TLV head
        assert data[helper_at] == HELPER_VERSION
        with pytest.raises(FormatError) as err:
            decode_record(data[:helper_at] + b"\x07" + data[helper_at + 1 :])
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION
        assert err.value.position == 10
        assert "unsupported helper version 7" in str(err.value)

        sketch_at = helper_at + len(encode_helper(enrollment["record"].helper)) + 5
        assert data[sketch_at - 5] == 0x02  # the sketch's tag
        with pytest.raises(FormatError) as err:
            decode_record(data[:sketch_at] + b"\x09" + data[sketch_at + 1 :])
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION
        assert err.value.position == sketch_at
        assert "unknown sketch variant 9" in str(err.value)

    def test_encrypted_sketch_record_fails_closed(self, enrollment):
        data = with_encrypted_sketch(encode_record(enrollment["record"]))
        with pytest.raises(FormatError) as err:
            decode_record(data)
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION
        assert "unknown sketch variant 2" in str(err.value)

    def test_empty_body_reports_missing_tags(self):
        with pytest.raises(FormatError) as err:
            decode_record(MAGIC + bytes([0x01]))
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION


class TestNoSecretsAtRest:
    def test_record_never_contains_key_or_secret(self, enrollment):
        data = encode_record(enrollment["record"])
        assert enrollment["key"].key not in data
        assert enrollment["secret"].secret not in data


def _parser_corpus():
    """Each parser of retained bytes with its encoder and canonical inputs."""
    records = [_random_record(random.Random(seed).randbytes) for seed in range(4)]
    cred = issue_agecred(generate_issuer_keys(seed=5), bytes(range(16)), 18, 1_750_000_000, 86400)
    return [
        (decode_record, encode_record, [encode_record(r) for r in records]),
        (decode_helper, encode_helper, [encode_helper(r.helper) for r in records]),
        (decode_sketch, encode_sketch, [encode_sketch(r.sketch) for r in records]),
        (decode_bound, encode_bound, [encode_bound(r.bound) for r in records]),
        (decode_agecred, encode_agecred, [encode_agecred(cred)]),
    ]


_PARSER_CORPUS = _parser_corpus()


@st.composite
def _mutated_encodings(draw):
    decode, encode, bases = draw(st.sampled_from(_PARSER_CORPUS))
    data = bytearray(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return decode, encode, bytes(data)


class TestFailClosed:
    @settings(max_examples=400, deadline=None)
    @given(_mutated_encodings())
    def test_mutated_bytes_reject_or_reencode_exactly(self, case):
        # Only the documented rejection types may escape a parser, and any
        # input it accepts must be the canonical encoding of what it returns.
        decode, encode, data = case
        try:
            value = decode(data)
        except (FormatError, ValueError):
            return
        assert encode(value) == data
