import pytest

from bbcreds.binding import SketchVariant, StableSecret, hash_key, unbind_auth
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
    """The stable key and secret of an XOR-sketch record, recovered the way
    anyone holding the record and a genuine capture could: the key is the
    extractor's output on the reference embedding, and the secret is that
    key XOR the sketch. The key is proven to be the enrolled one by its
    digest and by unlocking the credential, which also proves the secret,
    since the credential's AEAD opens only under it."""
    assert record.sketch.variant is SketchVariant.XOR
    key = fe_reproduce(identity, record.helper)
    assert hash_key(key) == record.digest
    unbind_auth(key, record.sketch, record.digest, record.bound)
    secret = bytes(a ^ b for a, b in zip(key.key, record.sketch.payload))
    return key, StableSecret(secret)


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
