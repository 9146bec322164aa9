import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcreds import binding
from bbcreds.binding import (
    AuthFailure,
    BOUND_VERSION,
    BoundCredential,
    FailureReason,
    KEYHASH_LABEL,
    Sketch,
    StableSecret,
    bind_enroll,
    decode_bound,
    decode_sketch,
    encode_bound,
    encode_sketch,
    hash_key,
    recover_secret,
    unbind_auth,
)
from bbcreds.credential import generate_issuer_keys, issue_agecred
from bbcreds.fextract import StableKey
from bbcreds.kdf import tagged_hash

from conftest import NOW


@pytest.fixture(scope="module")
def cred(issuer_keys):
    return issue_agecred(issuer_keys, os.urandom(16), 18, NOW, 86400)


def _key(byte=0x5A):
    return StableKey(bytes([byte]) * 32)


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


class TestHashKey:
    def test_deterministic(self):
        assert hash_key(_key()) == hash_key(_key())

    def test_digest_is_32_bytes(self):
        assert len(hash_key(_key()).digest) == 32

    def test_no_collisions_over_random_keys(self):
        digests = {hash_key(StableKey(os.urandom(32))).digest for _ in range(10000)}
        assert len(digests) == 10000

    def test_uses_its_domain_label(self):
        assert hash_key(_key()).digest == tagged_hash(KEYHASH_LABEL, _key().key)


class TestBindUnbindRoundtrip:
    def test_roundtrip_many_credentials(self, issuer_keys):
        for i in range(100):
            cred = issue_agecred(issuer_keys, os.urandom(16), 18 + i % 30, NOW + i, 3600)
            key = StableKey(os.urandom(32))
            sketch, digest, bound = bind_enroll(key, cred, rng_seed=i)
            assert unbind_auth(key, sketch, digest, bound) == cred

    def test_retained_set_shapes(self, cred):
        sketch, digest, bound = bind_enroll(_key(), cred, 7)
        assert len(sketch.payload) == 32
        assert len(digest.digest) == 32
        assert len(bound.nonce) == 12
        assert len(bound.ciphertext) == 114 + 16

    def test_zero_key_xor_sketch_equals_secret(self, cred):
        # The zero key's sketch is the seed's secret itself, so any key's
        # sketch at that seed is the key XOR that same secret.
        zero, _, _ = bind_enroll(StableKey(bytes(32)), cred, 1234)
        for byte in (0x01, 0x5A, 0xFF):
            key = _key(byte)
            sketch, _, _ = bind_enroll(key, cred, 1234)
            assert bytes(a ^ b for a, b in zip(sketch.payload, zero.payload)) == key.key

    def test_deterministic_in_seed(self, cred):
        a = bind_enroll(_key(), cred, 99)
        b = bind_enroll(_key(), cred, 99)
        assert a == b
        c = bind_enroll(_key(), cred, 100)
        assert a != c

    def test_outputs_never_contain_key_or_secret(self, cred):
        for seed in range(200):
            key = StableKey(os.urandom(32))
            sketch, digest, bound = bind_enroll(key, cred, seed)
            secret = recover_secret(key, sketch, digest).secret
            blob = encode_sketch(sketch) + digest.digest + encode_bound(bound)
            assert key.key not in blob
            assert secret not in blob


def _must_not_run(*args):
    raise AssertionError("stage ran out of order")


def _recoveries(sketch, digest, bound):
    """Both entry points to the unlock stages, each as a function of the key:
    ``recover_secret`` runs stage (a), ``unbind_auth`` all three."""
    return (
        lambda key: recover_secret(key, sketch, digest),
        lambda key: unbind_auth(key, sketch, digest, bound),
    )


class TestUnbindStages:
    def test_any_single_key_bit_flip_hits_hash_check(self, cred):
        key = _key()
        sketch, digest, bound = bind_enroll(key, cred, 5)
        for unlock in _recoveries(sketch, digest, bound):
            for bit in range(256):
                tampered = bytearray(key.key)
                tampered[bit // 8] ^= 1 << (bit % 8)
                with pytest.raises(AuthFailure) as err:
                    unlock(StableKey(bytes(tampered)))
                assert err.value.reason is FailureReason.HASH_MISMATCH

    def test_random_keys_rejected_at_hash_stage(self, cred):
        sketch, digest, bound = bind_enroll(_key(), cred, 5)
        for unlock in _recoveries(sketch, digest, bound):
            for _ in range(10000):
                with pytest.raises(AuthFailure) as err:
                    unlock(StableKey(os.urandom(32)))
                assert err.value.reason is FailureReason.HASH_MISMATCH

    def test_ciphertext_tamper_hits_decrypt_stage(self, cred):
        key = _key()
        sketch, digest, bound = bind_enroll(key, cred, 6)
        for index in range(len(bound.ciphertext)):
            tampered = BoundCredential(
                nonce=bound.nonce,
                ciphertext=_flip(bound.ciphertext, index),
            )
            with pytest.raises(AuthFailure) as err:
                unbind_auth(key, sketch, digest, tampered)
            assert err.value.reason is FailureReason.DECRYPT_FAILED

    def test_nonce_tamper_hits_decrypt_stage(self, cred):
        key = _key()
        sketch, digest, bound = bind_enroll(key, cred, 6)
        for index in range(len(bound.nonce)):
            tampered = BoundCredential(
                nonce=_flip(bound.nonce, index),
                ciphertext=bound.ciphertext,
            )
            with pytest.raises(AuthFailure) as err:
                unbind_auth(key, sketch, digest, tampered)
            assert err.value.reason is FailureReason.DECRYPT_FAILED

    def test_sketch_tamper_hits_decrypt_stage(self, cred):
        # A flipped pad byte passes the hash check but opens to a wrong
        # secret, under which the credential's AEAD fails.
        key = _key()
        sketch, digest, bound = bind_enroll(key, cred, 6)
        for index in range(len(sketch.payload)):
            tampered = Sketch(_flip(sketch.payload, index))
            assert recover_secret(key, tampered, digest).secret != recover_secret(
                key, sketch, digest
            ).secret
            with pytest.raises(AuthFailure) as err:
                unbind_auth(key, tampered, digest, bound)
            assert err.value.reason is FailureReason.DECRYPT_FAILED

    def test_recover_secret_never_reads_the_credential(self, cred, monkeypatch):
        key = _key()
        sketch, digest, _ = bind_enroll(key, cred, 6)
        monkeypatch.setattr(binding, "_cred_cipher", _must_not_run)
        secret = recover_secret(key, sketch, digest).secret
        assert secret == bytes(a ^ b for a, b in zip(key.key, sketch.payload))

    def test_hash_check_precedes_decryption(self, cred):
        # Wrong key plus tampered ciphertext must still report the hash stage.
        key = _key()
        sketch, digest, bound = bind_enroll(key, cred, 6)
        tampered = BoundCredential(
            nonce=bound.nonce,
            ciphertext=_flip(bound.ciphertext, 0),
        )
        with pytest.raises(AuthFailure) as err:
            unbind_auth(_key(0xA5), sketch, digest, tampered)
        assert err.value.reason is FailureReason.HASH_MISMATCH


@settings(max_examples=200)
@given(a=st.binary(min_size=32, max_size=32), b=st.binary(min_size=32, max_size=32))
def test_xor_involution(a, b):
    sk = Sketch(b)
    recovered = bytes(x ^ y for x, y in zip(a, b))
    assert bytes(x ^ y for x, y in zip(recovered, b)) == a
    assert len(sk.payload) == 32


class TestCanonicalEncodings:
    def test_sketch_roundtrip(self, cred):
        sketch, _, _ = bind_enroll(_key(), cred, 3)
        data = encode_sketch(sketch)
        assert data[:5] == bytes([1, 0, 0, 0, 32])  # variant 1, length 32
        assert decode_sketch(data) == sketch

    def test_bound_roundtrip(self, cred):
        _, _, bound = bind_enroll(_key(), cred, 3)
        data = encode_bound(bound)
        assert data[0] == BOUND_VERSION
        assert decode_bound(data) == bound

    def test_strict_parsing(self, cred):
        sketch, _, bound = bind_enroll(_key(), cred, 3)
        with pytest.raises(ValueError):
            decode_sketch(encode_sketch(sketch)[:-1])
        with pytest.raises(ValueError, match="unknown sketch variant 7"):
            decode_sketch(b"\x07" + encode_sketch(sketch)[1:])
        # Variant 2, an AEAD-wrapped secret of 60 bytes, is refused.
        with pytest.raises(ValueError, match="unknown sketch variant 2"):
            decode_sketch(b"\x02" + (60).to_bytes(4, "big") + bytes(60))
        with pytest.raises(ValueError):
            decode_bound(encode_bound(bound) + b"\x00")
        with pytest.raises(ValueError, match="unsupported bound credential version 2"):
            decode_bound(b"\x02" + encode_bound(bound)[1:])


class TestTypeInvariants:
    def test_sketch_payload_length(self):
        with pytest.raises(ValueError):
            Sketch(bytes(31))
        with pytest.raises(ValueError):
            Sketch(bytes(60))

    def test_secret_length(self):
        with pytest.raises(ValueError):
            StableSecret(bytes(16))

    def test_bound_lengths(self):
        with pytest.raises(ValueError):
            BoundCredential(nonce=bytes(11), ciphertext=bytes(130))
        with pytest.raises(ValueError):
            BoundCredential(nonce=bytes(12), ciphertext=bytes(129))


@pytest.mark.parametrize(
    "holder, secret",
    [
        (generate_issuer_keys(seed=1), lambda keys: keys.private),
        (StableKey(bytes(range(32))), lambda key: key.key),
        (StableSecret(bytes(range(32, 64))), lambda secret: secret.secret),
    ],
    ids=["issuer-private-key", "stable-key", "stable-secret"],
)
def test_secrets_stay_out_of_repr(holder, secret):
    # A traceback, log line or debugger view formats these with repr.
    text = repr(holder)
    assert repr(secret(holder)) not in text
    assert secret(holder).hex() not in text
