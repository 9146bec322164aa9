import struct

import pytest

from bbcreds.binding import recover_secret, unbind_auth
from bbcreds.credential import generate_issuer_keys
from bbcreds.ecc import CodeParams
from bbcreds.fextract import fe_reproduce
from bbcreds.parties import AgePolicy, InProcessAsp, ProtocolConfig, device_enroll
from bbcreds.synthbio import DEFAULT_DIM, new_identity

# Fixed clock for everything time-dependent: 2025-06-15T15:20:00Z.
NOW = 1_750_000_800

SMALL_CODE = CodeParams(n=15, t=2)


@pytest.fixture(scope="session")
def issuer_keys():
    return generate_issuer_keys(seed=0xB10C5EED)


@pytest.fixture(scope="session")
def default_cfg():
    return ProtocolConfig()


@pytest.fixture()
def asp(issuer_keys):
    return InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW)


def recover_secrets(identity, record):
    """The stable key and secret of a record, recovered the way anyone
    holding the record and a genuine capture could: the key is the
    extractor's output on the reference embedding, and ``recover_secret``
    checks it against the digest and XORs it with the sketch's pad.
    Unlocking the credential proves both, since its AEAD opens only under
    the secret that ``recover_secret`` returns."""
    key = fe_reproduce(identity, record.helper)
    secret = recover_secret(key, record.sketch, record.digest)
    unbind_auth(key, record.sketch, record.digest, record.bound)
    return key, secret


def _rewrite_entry(data, tag, rewrite):
    """Record bytes ``data`` with the value of entry ``tag`` replaced by
    ``rewrite(value)`` and its length field to match."""
    out, pos = bytearray(data[:5]), 5
    while pos < len(data):
        entry_tag, length = data[pos], int.from_bytes(data[pos + 1 : pos + 5], "big")
        value = data[pos + 5 : pos + 5 + length]
        if entry_tag == tag:
            value = rewrite(value)
        out += bytes([entry_tag]) + len(value).to_bytes(4, "big") + value
        pos += 5 + length
    return bytes(out)


def with_encrypted_sketch(data):
    """Record bytes ``data`` with the sketch entry rewritten in the ENCRYPTED
    form that earlier versions wrote: variant byte 2 and a 60-byte payload
    (a 12-byte nonce, then the secret under ChaCha20-Poly1305 with its tag)."""
    value = b"\x02" + (60).to_bytes(4, "big") + bytes(range(60))
    return _rewrite_entry(data, 0x02, lambda _: value)


def with_large_code(data):
    """Record bytes ``data`` with the helper entry rewritten as earlier
    versions wrote it for the code (1023, 1, 511) over 1024-d embeddings:
    version and salt kept, then that header and a 128-byte offset. Its key
    came from a 1-bit message."""
    header = struct.pack(">4H", 1023, 1, 511, 1024)
    return _rewrite_entry(data, 0x01, lambda value: value[:17] + header + bytes(128))


@pytest.fixture(scope="session")
def enrollment(issuer_keys, default_cfg):
    """One shared enrollment, with its key and secret recovered for audits."""
    identity = new_identity(424242, DEFAULT_DIM)
    record = device_enroll(
        identity,
        InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW),
        default_cfg,
        rng_seed=777001,
    )
    key, secret = recover_secrets(identity, record)
    return {"identity": identity, "record": record, "key": key, "secret": secret}
