"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion; any assertion failure marks that criterion red.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import bbcreds
from bbcreds.binding import (
    AuthFailure,
    BoundCredential,
    FailureReason,
    KeyDigest,
    SketchVariant,
    StableSecret,
    bind_enroll,
    bind_oneway,
    derive_stable_secret,
    unbind_auth,
)
from bbcreds.credential import issue_agecred
from bbcreds.ecc import CodeParams, codec_for
from bbcreds.evaluate import estimate_far, estimate_frr
from bbcreds.fextract import StableKey, fe_generate
from bbcreds.kdf import tagged_hash
from bbcreds.parties import SIGMA_DEFAULT, ProtocolConfig
from bbcreds.quantize import BitString, QuantizerConfig
from bbcreds.store import FormatError, decode_record, encode_record
from bbcreds.synthbio import new_identity

from conftest import NOW, SMALL_CODE

SEED = 0xACCE97
CFG = ProtocolConfig()


def _passed(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {label}: PASS")


def test_criterion_01_key_size_contract():
    # 256-bit keys from the 512-dimension pipeline, always.
    quant = QuantizerConfig.default(512, CFG.code.n)
    assert CFG.dim == 512 and CFG.code.k >= 256
    for seed in range(25):
        embedding = new_identity(seed, 512).mean
        key, helper = fe_generate(embedding, CFG.code, quant, seed)
        assert len(key.key) == 32
        assert helper.quant.dim == 512
    with pytest.raises(ValueError):
        StableKey(bytes(33))
    with pytest.raises(ValueError):
        StableKey(bytes(31))
    _passed(1, "key-size-contract")


def test_criterion_02_zero_noise_soundness():
    report = estimate_frr(CFG, 0.0, 1000, SEED)
    assert report.frr == 0.0
    assert report.stage_counts["Success"] == 1000
    _passed(2, "zero-noise-soundness")


def test_criterion_03_calibrated_genuine_acceptance():
    report = estimate_frr(CFG, SIGMA_DEFAULT, 1000, SEED)
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
    patterns = [()]
    for weight in range(1, t + 1):
        patterns.extend(itertools.combinations(range(n), weight))
    for value in range(1 << k):
        message = BitString.from_int(value, k)
        codeword = codec.encode(message).bits()
        for positions in patterns:
            noisy = codeword.copy()
            noisy[list(positions)] ^= 1
            assert codec.decode(BitString.from_bits(noisy)) == message
    _passed(5, "ecc-exhaustive-oracle")


def test_criterion_06_sketch_algebra():
    rng = np.random.default_rng(SEED)
    blobs = rng.integers(0, 256, size=(100000, 2, 32), dtype=np.uint8)
    a, b = blobs[:, 0, :], blobs[:, 1, :]
    assert np.array_equal((a ^ b) ^ b, a)

    # One-way variation: with sketch = key XOR secret, the derived token
    # equals the key's hash under the matching domain label.
    for seed in range(50):
        key = StableKey(bytes(rng.integers(0, 256, size=32, dtype=np.uint8)))
        secret = derive_stable_secret(seed)
        payload = bytes(x ^ y for x, y in zip(key.key, secret.secret))
        from bbcreds.binding import ONEWAY_LABEL, Sketch

        token = bind_oneway(secret, Sketch(SketchVariant.XOR, payload))
        assert token == tagged_hash(ONEWAY_LABEL, key.key)
    _passed(6, "sketch-algebra")


def test_criterion_07_tamper_rejection(issuer_keys):
    cred = issue_agecred(issuer_keys, os.urandom(16), 18, NOW, 86400)
    key = StableKey(os.urandom(32))
    sketch, digest, bound = bind_enroll(key, cred, SketchVariant.XOR, SEED)

    for index in range(len(bound.ciphertext)):
        mutated = bytearray(bound.ciphertext)
        mutated[index] ^= 0x40
        tampered = BoundCredential(bound.nonce, bytes(mutated), bound.aad_version)
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, sketch, digest, tampered)
        assert err.value.reason is FailureReason.DECRYPT_FAILED

    for index in range(len(bound.nonce)):
        mutated = bytearray(bound.nonce)
        mutated[index] ^= 0x40
        tampered = BoundCredential(bytes(mutated), bound.ciphertext, bound.aad_version)
        with pytest.raises(AuthFailure) as err:
            unbind_auth(key, sketch, digest, tampered)
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
