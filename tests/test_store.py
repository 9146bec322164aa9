import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds.binding import BoundCredential, KeyDigest, Sketch, SketchVariant
from bbcreds.ecc import CodeParams
from bbcreds.fextract import HelperData
from bbcreds.quantize import BitString, QuantizerConfig
from bbcreds.store import (
    DeviceRecord,
    FormatError,
    FormatReason,
    MAGIC,
    decode_record,
    encode_record,
    load_record,
    save_record,
)


def _random_record(rng=None) -> DeviceRecord:
    rng = rng or os.urandom
    n = 511
    offset_bits = bytearray(rng(64))
    offset_bits[-1] &= 0xFE  # zero padding bit
    variant = SketchVariant.XOR if rng(1)[0] % 2 == 0 else SketchVariant.ENCRYPTED
    payload = rng(32) if variant is SketchVariant.XOR else rng(60)
    return DeviceRecord(
        helper=HelperData(
            salt=rng(16),
            offset=BitString(bytes(offset_bits), n),
            code=CodeParams(511, 259, 30),
            quant=QuantizerConfig.default(512, n),
        ),
        sketch=Sketch(variant, payload),
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

    def test_file_objects(self, tmp_path, enrollment):
        path = tmp_path / "probe.bbc"
        with open(path, "wb") as sink:
            count = save_record(enrollment["record"], sink)
        assert count == path.stat().st_size
        with open(path, "rb") as source:
            assert load_record(source) == enrollment["record"]

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

    @pytest.mark.parametrize("t", [29, 300])
    def test_unsupported_code_rejected(self, enrollment, t):
        # t=29 keeps k=259, which that code does not have; t=300 has 2t >= n.
        data = encode_record(enrollment["record"])
        pos = len(MAGIC) + 1 + 5 + 1 + 16 + 4  # TLV head, helper version, salt, n, k
        assert int.from_bytes(data[pos : pos + 2], "big") == 30
        patched = data[:pos] + t.to_bytes(2, "big") + data[pos + 2 :]
        with pytest.raises(FormatError) as err:
            decode_record(patched)
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION

    def test_empty_body_reports_missing_tags(self):
        with pytest.raises(FormatError) as err:
            decode_record(MAGIC + bytes([0x01]))
        assert err.value.reason is FormatReason.INVARIANT_VIOLATION


class TestNoSecretsAtRest:
    def test_record_never_contains_key_or_secret(self, enrollment):
        data = encode_record(enrollment["record"])
        assert enrollment["key"].key not in data
        assert enrollment["secret"].secret not in data

    def test_stream_writer_returns_byte_count(self, enrollment):
        sink = io.BytesIO()
        count = save_record(enrollment["record"], sink)
        assert count == len(sink.getvalue())
