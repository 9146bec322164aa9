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


def with_encrypted_sketch(data):
    """Record bytes ``data`` with the sketch entry rewritten in the ENCRYPTED
    form that earlier versions wrote: variant byte 2 and a 60-byte payload
    (a 12-byte nonce, then the secret under ChaCha20-Poly1305 with its tag)."""
    out, pos = bytearray(data[:5]), 5
    while pos < len(data):
        tag, length = data[pos], int.from_bytes(data[pos + 1 : pos + 5], "big")
        entry = data[pos : pos + 5 + length]
        if tag == 0x02:
            value = b"\x02" + (60).to_bytes(4, "big") + bytes(range(60))
            entry = bytes([tag]) + len(value).to_bytes(4, "big") + value
        out += entry
        pos += 5 + length
    return bytes(out)


@pytest.fixture(scope="session")
def enrollment(issuer_keys, default_cfg):
    """One shared enrollment, with its key and secret recovered for audits."""
    identity = new_identity(424242, default_cfg.dim)
    record = device_enroll(
        identity,
        InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW),
        default_cfg,
        rng_seed=777001,
    )
    key, secret = recover_secrets(identity, record)
    return {"identity": identity, "record": record, "key": key, "secret": secret}
