import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds.credential import (
    CRED_VERSION,
    AgeCred,
    ENCODED_LEN,
    IssuerKeyPair,
    RejectReason,
    decode_agecred,
    encode_agecred,
    generate_issuer_keys,
    issue_agecred,
    issuer_id_for,
    verify_agecred,
)

from conftest import NOW

SUBJECT = bytes(range(16))


@st.composite
def agecreds(draw):
    """Any credential the constructor accepts, with every field at its bounds."""
    issued_at = draw(st.integers(0, (1 << 64) - 2))
    return AgeCred(
        draw(st.binary(min_size=16, max_size=16)),
        draw(st.binary(min_size=16, max_size=16)),
        draw(st.integers(0, 255)),
        issued_at,
        draw(st.integers(issued_at + 1, (1 << 64) - 1)),
        draw(st.binary(min_size=64, max_size=64)),
    )


@pytest.fixture(scope="module")
def keys():
    return generate_issuer_keys(seed=0xFEED)


@pytest.fixture(scope="module")
def cred(keys):
    return issue_agecred(keys, SUBJECT, 18, NOW, 86400)


class TestEncoding:
    def test_encoded_length_is_114(self, cred):
        assert ENCODED_LEN == 114
        assert len(encode_agecred(cred)) == 114

    def test_roundtrip(self, cred):
        assert decode_agecred(encode_agecred(cred)) == cred

    def test_age_over_sits_at_offset_33(self, keys):
        a = issue_agecred(keys, SUBJECT, 18, NOW, 86400)
        b = issue_agecred(keys, SUBJECT, 21, NOW, 86400)
        ea, eb = encode_agecred(a), encode_agecred(b)
        prefix_diff = [i for i in range(50) if ea[i] != eb[i]]
        assert prefix_diff == [33]

    @settings(max_examples=200)
    @given(agecreds())
    def test_every_accepted_credential_roundtrips(self, c):
        data = encode_agecred(c)
        assert len(data) == ENCODED_LEN and data[0] == CRED_VERSION
        assert decode_agecred(data) == c

    def test_wrong_length_rejected(self, cred):
        with pytest.raises(ValueError):
            decode_agecred(encode_agecred(cred)[:-1])

    @pytest.mark.parametrize("version", [0, 2, 7, 255])
    def test_unknown_version_rejected(self, cred, version):
        with pytest.raises(ValueError, match="version"):
            decode_agecred(bytes([version]) + encode_agecred(cred)[1:])


class TestIssuance:
    def test_fresh_credential_verifies(self, keys, cred):
        assert verify_agecred(cred, keys.public, NOW + 1, 18).granted

    def test_deterministic_signature(self, keys):
        a = issue_agecred(keys, SUBJECT, 18, NOW, 86400)
        b = issue_agecred(keys, SUBJECT, 18, NOW, 86400)
        assert a == b

    def test_ed25519_reference_vector(self):
        # RFC 8032 test vector 1 pins the deterministic signature scheme.
        private = bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
        )
        expected_public = bytes.fromhex(
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        )
        expected_sig = bytes.fromhex(
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        )
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        key = Ed25519PrivateKey.from_private_bytes(private)
        assert key.public_key().public_bytes_raw() == expected_public
        assert key.sign(b"") == expected_sig

    @pytest.mark.parametrize("age_over", [0, 150, 200])
    def test_age_over_out_of_range(self, keys, age_over):
        with pytest.raises(ValueError):
            issue_agecred(keys, SUBJECT, age_over, NOW, 86400)

    def test_validity_must_be_positive(self, keys):
        with pytest.raises(ValueError):
            issue_agecred(keys, SUBJECT, 18, NOW, 0)

    @pytest.mark.parametrize(
        "issued_at, validity",
        [(-1, 86400), (1 << 64, 86400), (NOW, (1 << 64) - NOW), (NOW, -NOW - 1)],
        ids=["issued-negative", "issued-2-64", "expires-2-64", "expires-negative"],
    )
    def test_times_outside_u64_rejected(self, keys, issued_at, validity):
        with pytest.raises(ValueError):
            issue_agecred(keys, SUBJECT, 18, issued_at, validity)

    def test_issuer_id_derived_from_public_key(self, keys, cred):
        assert cred.issuer_id == issuer_id_for(keys.public)
        assert len(cred.issuer_id) == 16


class TestVerification:
    def test_threshold_is_inclusive(self, keys, cred):
        assert verify_agecred(cred, keys.public, NOW + 1, 18).granted

    def test_expiry_boundary_is_exclusive(self, keys, cred):
        verdict = verify_agecred(cred, keys.public, cred.expires_at, 18)
        assert not verdict.granted
        assert verdict.reason is RejectReason.EXPIRED

    def test_not_yet_valid(self, keys, cred):
        verdict = verify_agecred(cred, keys.public, NOW - 1, 18)
        assert verdict.reason is RejectReason.NOT_YET_VALID

    def test_threshold_not_met(self, keys, cred):
        verdict = verify_agecred(cred, keys.public, NOW + 1, 21)
        assert verdict.reason is RejectReason.THRESHOLD_NOT_MET

    def test_every_signature_byte_is_load_bearing(self, keys, cred):
        for index in range(64):
            sig = bytearray(cred.signature)
            sig[index] ^= 0x01
            tampered = AgeCred(
                cred.issuer_id,
                cred.subject_id,
                cred.age_over,
                cred.issued_at,
                cred.expires_at,
                bytes(sig),
            )
            verdict = verify_agecred(tampered, keys.public, NOW + 1, 18)
            assert verdict.reason is RejectReason.BAD_SIGNATURE

    def test_wrong_issuer_key_rejected(self, cred):
        other = generate_issuer_keys(seed=123)
        verdict = verify_agecred(cred, other.public, NOW + 1, 18)
        assert verdict.reason is RejectReason.BAD_SIGNATURE

    def test_monotone_in_required_age(self, keys):
        cred = issue_agecred(keys, SUBJECT, 21, NOW, 86400)
        required = range(1, 40)
        accepted = [verify_agecred(cred, keys.public, NOW + 1, r).granted for r in required]
        # Accept at threshold r implies accept at every lower threshold.
        first_reject = accepted.index(False) if False in accepted else len(accepted)
        assert all(accepted[:first_reject])
        assert not any(accepted[first_reject:])
        assert required[first_reject] == 22  # inclusive at age_over

    @pytest.mark.parametrize("required", [-5, 0, 150])
    def test_required_age_out_of_range_raises(self, keys, cred, required):
        # 0 or below would grant every credential; issuance refuses the same values.
        with pytest.raises(ValueError, match="required age"):
            verify_agecred(cred, keys.public, NOW + 1, required)


class TestKeyPairs:
    def test_generated_pair_is_consistent(self):
        keys = generate_issuer_keys()
        assert len(keys.public) == 32 and len(keys.private) == 32

    def test_seeded_generation_deterministic(self):
        assert generate_issuer_keys(seed=5) == generate_issuer_keys(seed=5)
        assert generate_issuer_keys(seed=5) != generate_issuer_keys(seed=6)

    def test_issuer_id_is_derived_not_compared(self):
        keys = generate_issuer_keys(seed=5)
        assert keys.issuer_id == issuer_id_for(keys.public)
        assert "issuer_id" not in repr(keys) and repr(keys.issuer_id) not in repr(keys)
        other = IssuerKeyPair(public=keys.public, private=keys.private)
        object.__setattr__(other, "issuer_id", bytes(16))
        assert other == keys and hash(other) == hash(keys)
        with pytest.raises(TypeError):
            IssuerKeyPair(public=keys.public, private=keys.private, issuer_id=keys.issuer_id)

    @pytest.mark.parametrize("short", ["public", "private"])
    def test_31_byte_key_rejected(self, short):
        keys = generate_issuer_keys(seed=5)
        pair = {"public": keys.public, "private": keys.private}
        pair[short] = pair[short][:31]
        with pytest.raises(ValueError, match="^Ed25519 keys are 32 bytes each$"):
            IssuerKeyPair(**pair)

    def test_mismatched_pair_rejected(self):
        a = generate_issuer_keys(seed=1)
        b = generate_issuer_keys(seed=2)
        with pytest.raises(ValueError):
            IssuerKeyPair(public=a.public, private=b.private)


class TestCredInvariants:
    def test_expiry_after_issue_required(self, cred):
        with pytest.raises(ValueError):
            AgeCred(bytes(16), bytes(16), 18, NOW, NOW, bytes(64))

    def test_field_lengths(self, cred):
        with pytest.raises(ValueError):
            AgeCred(bytes(15), bytes(16), 18, NOW, NOW + 1, bytes(64))
        with pytest.raises(ValueError):
            AgeCred(bytes(16), bytes(16), 18, NOW, NOW + 1, bytes(63))
        with pytest.raises(ValueError):
            AgeCred(bytes(16), bytes(16), 256, NOW, NOW + 1, bytes(64))

    @pytest.mark.parametrize("issued_at", [-1, 1 << 64], ids=["negative", "2-64"])
    def test_issued_at_outside_u64_rejected(self, issued_at):
        # issue_agecred refuses these when it packs the prefix, before any
        # AgeCred exists, so the constructor's own check is tested here.
        with pytest.raises(ValueError, match="^issued_at must be an unsigned 64-bit value$"):
            AgeCred(bytes(16), bytes(16), 18, issued_at, issued_at + 1, bytes(64))

    def test_disjoint_from_random_key_material(self, cred):
        # No credential field may carry biometric-derived bytes; the
        # integration suite checks against live keys, this pins the layout.
        blob = encode_agecred(cred)
        assert os.urandom(32) not in blob
