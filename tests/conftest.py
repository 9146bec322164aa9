import struct

import pytest

from bbcreds.binding import recover_secret, unbind_auth
from bbcreds.credential import generate_issuer_keys
from bbcreds.ecc import CodeParams
from bbcreds.fextract import fe_reproduce
from bbcreds.parties import AgePolicy, InProcessAsp, ProtocolConfig, device_enroll
from bbcreds.synthbio import new_identity

# Fixed clock for everything time-dependent: 2025-06-15T15:20:00Z.
NOW = 1_750_000_800

SMALL_CODE = CodeParams(n=15, t=2)

# Helper headers (n, k, t, dim) other than the one operating point
# (511, 259, 30, 512); ``decode_helper`` refuses each one.
UNSUPPORTED_HEADERS = [
    (511, 259, 29, 512),
    (511, 259, 300, 512),
    (511, 0, 30, 512),
    (511, 258, 30, 512),
    (511, 300, 30, 512),
    (511, 512, 30, 512),
    (511, 259, 30, 7),
    (1023, 1, 511, 1024),
]
UNSUPPORTED_HEADER_IDS = ["29", "300", "k0", "k258", "k300", "k512", "dim7", "bch1023"]


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


def with_helper_header(data, n, k, t, dim):
    """Record bytes ``data`` with the helper entry's (n, k, t, dim) header
    replaced, version and salt kept. An n of 511 keeps the offset; any other
    n gets a zero offset of n bits, as earlier versions wrote the code
    (1023, 1, 511) over 1024-d embeddings, whose key came from a 1-bit
    message."""

    def rewrite(value):
        offset = value[25:] if n == 511 else bytes((n + 7) // 8)
        return value[:17] + struct.pack(">4H", n, k, t, dim) + offset

    return _rewrite_entry(data, 0x01, rewrite)


@pytest.fixture(scope="session")
def enrollment(issuer_keys, default_cfg):
    """One shared enrollment, with its key and secret recovered for audits."""
    identity = new_identity(424242)
    record = device_enroll(
        identity,
        InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW),
        default_cfg,
        rng_seed=777001,
    )
    key, secret = recover_secrets(identity, record)
    return {"identity": identity, "record": record, "key": key, "secret": secret}
