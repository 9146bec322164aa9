"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion; any assertion failure marks that criterion red.

The ``test_known_defect_*`` tests at the end are not criteria. Each records
a property of the construction as it stands that the paper's claims rule
out, so that the change which removes the defect must turn its test round.
"""

import itertools
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bbcreds
from bbcreds.binding import (
    AuthFailure,
    BoundCredential,
    FailureReason,
    KeyDigest,
    Sketch,
    bind_enroll,
    recover_secret,
    unbind_auth,
)
from bbcreds.credential import decode_agecred, encode_agecred, issue_agecred
from bbcreds.ecc import codec_for
from bbcreds.evaluate import estimate_far, estimate_frr
from bbcreds.fextract import CODE, StableKey, fe_generate
from bbcreds.parties import (
    SIGMA_DEFAULT,
    AgePolicy,
    InProcessAsp,
    ProtocolConfig,
    device_authenticate,
    device_enroll,
    rp_check_access,
)
from bbcreds.quantize import BitString
from bbcreds.store import FormatError, decode_record, encode_record
from bbcreds.synthbio import DEFAULT_DIM, NoiseModel, new_identity, sample_genuine

from conftest import NOW, SMALL_CODE

SEED = 0xACCE97
CFG = ProtocolConfig()


def _passed(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {label}: PASS")


def test_criterion_01_key_size_contract():
    # 256-bit keys from the 512-dimension pipeline, always.
    assert DEFAULT_DIM == 512 and CODE.k >= 256
    for seed in range(25):
        embedding = new_identity(seed)
        key, helper = fe_generate(embedding, seed)
        assert len(key.key) == 32
        assert helper.offset.n == CODE.n
    with pytest.raises(ValueError):
        StableKey(bytes(33))
    with pytest.raises(ValueError):
        StableKey(bytes(31))
    _passed(1, "key-size-contract")


def test_criterion_02_zero_noise_soundness():
    report = estimate_frr(replace(CFG, sigma=0.0), 1000, SEED)
    assert report.frr == 0.0
    assert report.stage_counts["Success"] == 1000
    _passed(2, "zero-noise-soundness")


def test_criterion_03_calibrated_genuine_acceptance():
    report = estimate_frr(replace(CFG, sigma=SIGMA_DEFAULT), 1000, SEED)
    assert report.frr_hi <= 0.01, (
        f"FRR at calibrated sigma {SIGMA_DEFAULT}: {report.frr:.4f}, "
        f"Wilson upper {report.frr_hi:.4f} exceeds 1%"
    )
    _passed(3, "calibrated-genuine-acceptance")


def test_criterion_04_impostor_rejection():
    report = estimate_far(CFG, 10000, SEED)
    assert report.far == 0.0
    allowed = {"Extract", "HashMismatch"}
    observed = {stage for stage, count in report.stage_counts.items() if count > 0}
    assert observed <= allowed, f"impostor failures outside {allowed}: {observed}"
    assert sum(report.stage_counts.values()) == 10000
    _passed(4, "impostor-rejection")


def test_criterion_05_ecc_exhaustive_oracle():
    codec = codec_for(SMALL_CODE)
    n, k, t = SMALL_CODE.n, SMALL_CODE.k, SMALL_CODE.t
    flips = [0]
    for weight in range(1, t + 1):
        flips.extend(sum(1 << p for p in positions)
                     for positions in itertools.combinations(range(n), weight))
    for value in range(1 << k):
        message = BitString.from_int(value, k)
        codeword = codec.encode(message).as_int()
        for flip in flips:
            assert codec.decode(BitString.from_int(codeword ^ flip, n)) == message
    _passed(5, "ecc-exhaustive-oracle")


def test_criterion_06_sketch_algebra(issuer_keys):
    # The sketch is key XOR the secret that recover_secret returns.
    rng = np.random.default_rng(SEED)
    cred = issue_agecred(issuer_keys, os.urandom(16), 18, NOW, 86400)
    for seed in rng.integers(0, 2**63, size=50).tolist():
        key = StableKey(bytes(rng.integers(0, 256, size=32, dtype=np.uint8)))
        sketch, digest, _ = bind_enroll(key, cred, seed)
        secret = recover_secret(key, sketch, digest).secret
        assert sketch.payload == bytes(x ^ y for x, y in zip(key.key, secret))
    _passed(6, "sketch-algebra")


def test_criterion_07_tamper_rejection(issuer_keys):
    cred = issue_agecred(issuer_keys, os.urandom(16), 18, NOW, 86400)
    key = StableKey(os.urandom(32))
    sketch, digest, bound = bind_enroll(key, cred, SEED)

    for index in range(len(bound.ciphertext)):
        mutated = bytearray(bound.ciphertext)
        mutated[index] ^= 0x40
        tampered = BoundCredential(bound.nonce, bytes(mutated))
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, sketch, digest, tampered)
        assert err.value.reason is FailureReason.DECRYPT_FAILED

    for index in range(len(bound.nonce)):
        mutated = bytearray(bound.nonce)
        mutated[index] ^= 0x40
        tampered = BoundCredential(bytes(mutated), bound.ciphertext)
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, sketch, digest, tampered)
        assert err.value.reason is FailureReason.DECRYPT_FAILED

    # A flipped pad byte passes the hash check and opens to a wrong secret,
    # under which the credential's AEAD fails.
    for index in range(len(sketch.payload)):
        mutated = bytearray(sketch.payload)
        mutated[index] ^= 0x40
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, Sketch(bytes(mutated)), digest, bound)
        assert err.value.reason is FailureReason.DECRYPT_FAILED

    for index in range(len(digest.digest)):
        mutated = bytearray(digest.digest)
        mutated[index] ^= 0x40
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, sketch, KeyDigest(bytes(mutated)), bound)
        assert err.value.reason is FailureReason.HASH_MISMATCH
    _passed(7, "tamper-rejection")


def test_criterion_08_retained_artifact_audit(enrollment):
    data = encode_record(enrollment["record"])
    tags = []
    pos = 5
    while pos < len(data):
        tags.append(data[pos])
        length = int.from_bytes(data[pos + 1 : pos + 5], "big")
        pos += 5 + length
    assert tags == [0x01, 0x02, 0x03, 0x04]  # helper, sketch, digest, bound

    key, secret = enrollment["key"].key, enrollment["secret"].secret
    # Substring search covers every 32-byte window of the record.
    assert key not in data and secret not in data
    for window_start in range(len(data) - 31):
        window = data[window_start : window_start + 32]
        assert window != key and window != secret
    _passed(8, "retained-artifact-audit")


def test_criterion_09_cli_end_to_end(tmp_path):
    # The CLI subprocess imports the same package as this test, however the
    # test process found it (PYTHONPATH or pytest's pythonpath setting).
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(bbcreds.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bbcreds.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    prefix = str(tmp_path / "issuer")
    record_a = str(tmp_path / "a.bbc")
    record_b = str(tmp_path / "b.bbc")
    common = [
        "--keys", prefix,
        "--identity-seed", "31415",
        "--dob", "1990-01-01",
        "--seed", "271828",
        "--clock", str(NOW),
    ]

    assert run("asp-keygen", "--out", prefix, "--seed", "11").returncode == 0
    assert run("enroll", *common, "--out", record_a).returncode == 0
    assert run("enroll", *common, "--out", record_b).returncode == 0
    with open(record_a, "rb") as fa, open(record_b, "rb") as fb:
        assert fa.read() == fb.read()

    auth = run(
        "auth",
        "--record", record_a,
        "--keys", prefix,
        "--identity-seed", "31415",
        "--seed", "555",
        "--clock", str(NOW + 60),
    )
    assert auth.returncode == 0, auth.stderr
    assert "GRANT age_over=18" in auth.stdout

    impostor = run(
        "auth",
        "--record", record_a,
        "--keys", prefix,
        "--impostor",
        "--seed", "556",
        "--clock", str(NOW + 60),
    )
    assert impostor.returncode == 5
    _passed(9, "cli-end-to-end")


def test_criterion_10_store_format():
    rng = np.random.default_rng(SEED)

    def taker(k):
        return bytes(rng.integers(0, 256, size=k, dtype=np.uint8))

    from test_store import _random_record

    records = [_random_record(taker) for _ in range(100)]
    for record in records:
        assert decode_record(encode_record(record)) == record

    data = encode_record(records[0])
    for cut in range(len(data)):
        with pytest.raises(FormatError):
            decode_record(data[:cut])
    _passed(10, "store-format")


def test_known_defect_unlocked_credential_is_bearer_token(enrollment, issuer_keys):
    # Known defect, not a gate: the paper says only the physically present
    # user can use the credential, but an RP checks only the issuer's
    # signature, the validity window and the threshold. So the bytes of one
    # genuine unlock are granted to whoever replays them, for as long as the
    # credential is valid, and every RP receives the same bytes, which
    # links one user across RPs. Holder binding would make this test fail.
    identity, record = enrollment["identity"], enrollment["record"]
    noise = NoiseModel(SIGMA_DEFAULT)
    unlocked = device_authenticate(sample_genuine(identity, noise, 1), record, CFG.liveness)
    presented = encode_agecred(unlocked)
    replayed = decode_agecred(presented)
    for later in (1, 86400, 30 * 86400):
        assert rp_check_access(replayed, issuer_keys.public, NOW + later, 18).granted

    to_second_rp = device_authenticate(sample_genuine(identity, noise, 2), record, CFG.liveness)
    assert encode_agecred(to_second_rp) == presented


def test_known_defect_helper_data_links_enrollments(issuer_keys):
    # Known defect, not a gate: code-offset helper data over a linear code
    # is not unlinkable. offset1 ^ offset2 = (q1 ^ q2) ^ (c1 ^ c2), and
    # c1 ^ c2 is a codeword, so the XOR of two enrollments of one person
    # decodes, while that of two different people does not. Anyone holding
    # two records can tell whether they belong to one person.
    asp = InProcessAsp(issuer_keys, AgePolicy(threshold=18), now=NOW)
    cfg = ProtocolConfig(sigma=0.003)

    def offset(person, enroll_seed):
        record = device_enroll(new_identity(person), asp, cfg, enroll_seed)
        return np.frombuffer(record.helper.offset.data, np.uint8)

    same = [offset(p, 2 * p) ^ offset(p, 2 * p + 1) for p in range(20)]
    different = [offset(p, 2 * p + 100) ^ offset(p + 20, 2 * p + 101) for p in range(20)]
    ok, _ = codec_for(CODE).decode_batch(np.stack(same + different))
    assert ok[:20].all()
    assert not ok[20:].any()
