from dataclasses import replace

import pytest

from bbcreds.binding import SketchVariant, recover_secret, unbind_auth
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
    """The stable key and secret of a record of either sketch variant,
    recovered the way anyone holding the record and a genuine capture
    could: the key is the extractor's output on the reference embedding,
    and ``recover_secret`` checks it against the digest and opens the
    sketch with it. Unlocking the credential proves both, since its AEAD
    opens only under the secret that ``recover_secret`` returns."""
    key = fe_reproduce(identity, record.helper)
    secret = recover_secret(key, record.sketch, record.digest)
    unbind_auth(key, record.sketch, record.digest, record.bound)
    return key, secret


def _audited_enrollment(issuer_keys, cfg):
    identity = new_identity(424242, cfg.dim)
    record = device_enroll(
        identity,
        InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW),
        cfg,
        rng_seed=777001,
    )
    key, secret = recover_secrets(identity, record)
    return {"identity": identity, "record": record, "key": key, "secret": secret}


@pytest.fixture(scope="session")
def enrollment(issuer_keys, default_cfg):
    """One shared XOR-sketch enrollment, with its key and secret recovered for audits."""
    assert default_cfg.sketch_variant is SketchVariant.XOR
    return _audited_enrollment(issuer_keys, default_cfg)


@pytest.fixture(scope="session")
def enrollments(enrollment, issuer_keys, default_cfg):
    """The shared enrollment and its ENCRYPTED-sketch twin (same identity and
    seed), by variant, for the privacy audits that cover both variants."""
    encrypted = replace(default_cfg, sketch_variant=SketchVariant.ENCRYPTED)
    return {
        SketchVariant.XOR: enrollment,
        SketchVariant.ENCRYPTED: _audited_enrollment(issuer_keys, encrypted),
    }
