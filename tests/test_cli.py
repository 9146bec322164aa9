import hashlib
import os
import re
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from bbcreds.binding import encode_bound
from bbcreds.cli import (
    EXIT_AUTH_FAILED,
    EXIT_ISSUANCE_DENIED,
    EXIT_LIVENESS,
    EXIT_OK,
    EXIT_RP_DENIED,
    EXIT_USAGE,
    main,
)
from bbcreds.ecc import CodeParams, codec_for
from bbcreds.fextract import _random_message
from bbcreds.kdf import subseed
from bbcreds.store import decode_record, encode_record
from bbcreds.synthbio import new_identity

from conftest import NOW, recover_secrets, with_encrypted_sketch

ADULT_DOB = "1990-01-01"
CHILD_DOB = "2015-06-15"
KEY_SEED = "11"
RUN_SEED = "271828"
IDENTITY_SEED = "31415"
UNSEEDED = "<no --seed>"  # test_bad_settings_are_usage_errors drops --seed

# SHA-256 of the record written by the pinned enrollment in
# TestEnroll.test_record_bytes_pinned. Any change to the on-disk format or
# to a derivation feeding the record changes it.
GOLDEN_RECORD_SHA256 = "b75192c71d41b707c05c60be4924185a75075447676cadc93649fce2ae8fcb6f"


def _mode(path: Path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.fixture()
def keys_prefix(tmp_path):
    prefix = str(tmp_path / "issuer")
    assert main(["asp-keygen", "--out", prefix, "--seed", KEY_SEED]) == EXIT_OK
    return prefix


@pytest.fixture()
def record_path(tmp_path, keys_prefix):
    path = str(tmp_path / "alice.bbc")
    code = main(
        [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", path,
            "--seed", RUN_SEED,
            "--clock", str(NOW),
        ]
    )
    assert code == EXIT_OK
    return path


class TestKeygen:
    def test_creates_two_parseable_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "k")
        assert main(["asp-keygen", "--out", prefix, "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        pub = bytes.fromhex((tmp_path / "k.pub").read_text().strip())
        priv = bytes.fromhex((tmp_path / "k.key").read_text().strip())
        assert len(pub) == 32 and len(priv) == 32
        assert f"public={pub.hex()}" in out

    def test_seeded_determinism(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["asp-keygen", "--out", a, "--seed", "9"])
        main(["asp-keygen", "--out", b, "--seed", "9"])
        assert (tmp_path / "a.pub").read_text() == (tmp_path / "b.pub").read_text()
        assert (tmp_path / "a.key").read_text() == (tmp_path / "b.key").read_text()

    def test_refuses_overwrite_without_force(self, tmp_path):
        prefix = str(tmp_path / "k")
        main(["asp-keygen", "--out", prefix, "--seed", "1"])
        before = (tmp_path / "k.key").read_text()
        assert main(["asp-keygen", "--out", prefix, "--seed", "2"]) == EXIT_USAGE
        assert (tmp_path / "k.key").read_text() == before
        assert main(["asp-keygen", "--out", prefix, "--seed", "2", "--force"]) == EXIT_OK
        assert (tmp_path / "k.key").read_text() != before

    def test_unseeded_runs_print_no_seed_and_differ(self, tmp_path, capsys):
        # Without --seed the signing key comes from the OS: no seed is
        # printed that would reproduce it, and two runs write different keys.
        keys = []
        for name in ("a", "b"):
            assert main(["asp-keygen", "--out", str(tmp_path / name)]) == EXIT_OK
            assert "seed=" not in capsys.readouterr().out
            keys.append((tmp_path / f"{name}.key").read_text())
        assert keys[0] != keys[1]

    def test_private_key_owner_only(self, tmp_path):
        """The signing key is mode 0o600, also after --force over a 0o644
        key; the public key gets the mode any new file gets."""
        prefix, key = str(tmp_path / "k"), tmp_path / "k.key"
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["asp-keygen", "--out", prefix, "--seed", "1"]) == EXIT_OK
        assert _mode(key) == 0o600
        assert _mode(tmp_path / "k.pub") == _mode(plain)
        key.chmod(0o644)
        assert main(["asp-keygen", "--out", prefix, "--seed", "2", "--force"]) == EXIT_OK
        assert _mode(key) == 0o600


class TestEnroll:
    def test_unseeded_output_cannot_rebuild_the_salt(self, tmp_path, keys_prefix, capsys):
        """A seeded record's public salt is rebuilt from its seed, which
        checks any guess of the seed offline. An unseeded enroll draws the
        salt, message and secret from the OS and prints no seed, and no
        integer on its stdout rebuilds the salt."""
        argv = ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB, "--clock", str(NOW)]

        def salt_from(seed, path):
            k = decode_record(path.read_bytes()).helper.code.k
            return _random_message(subseed(seed, "bbcreds/device/fe/v1"), k)[0]

        seeded, unseeded = tmp_path / "seeded.bbc", tmp_path / "unseeded.bbc"
        assert main(argv + ["--out", str(seeded), "--seed", RUN_SEED]) == EXIT_OK
        assert salt_from(int(RUN_SEED), seeded) == decode_record(seeded.read_bytes()).helper.salt
        capsys.readouterr()
        assert main(argv + ["--out", str(unseeded)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "seed=" not in out and err == ""
        salt = decode_record(unseeded.read_bytes()).helper.salt
        assert all(salt_from(int(number), unseeded) != salt for number in re.findall(r"\d+", out))

    def test_happy_path_writes_record(self, tmp_path, keys_prefix, capsys):
        path = tmp_path / "r.bbc"
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(path),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
            ]
        )
        assert code == EXIT_OK
        assert path.exists() and path.stat().st_size > 0
        assert "enrolled" in capsys.readouterr().out

    def test_large_code_builds_no_decoder(self, tmp_path, keys_prefix):
        """Enrollment only encodes, so ``enroll`` with code (1023, 1, 511),
        whose decoder tables take 114 MiB, allocates under 8 MiB at peak."""
        config = tmp_path / "big.conf"
        config.write_text("dim=1024\ncode_n=1023\ncode_k=1\ncode_t=511\n")
        path = tmp_path / "big.bbc"
        argv = [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(path),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
            "--config", str(config),
        ]
        codec_for.cache_clear()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert decode_record(path.read_bytes()).helper.code == CodeParams(1023, 511)
        assert peak < 8 << 20

    def test_code_k_may_be_left_out(self, tmp_path, keys_prefix, capsys):
        """code_n and code_t determine k, so a config may leave code_k out,
        and the record equals the one written with code_k=1 stated."""
        records = {}
        for name, k_line in (("derived", ""), ("stated", "code_k=1\n")):
            config = tmp_path / f"{name}.conf"
            config.write_text(f"dim=1024\ncode_n=1023\n{k_line}code_t=511\n")
            path = tmp_path / f"{name}.bbc"
            argv = [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(path),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
                "--config", str(config),
            ]
            assert main(argv) == EXIT_OK
            records[name] = path.read_bytes()
        assert records["derived"] == records["stated"]
        capsys.readouterr()
        assert main(["inspect", "--record", str(tmp_path / "derived.bbc")]) == EXIT_OK
        assert "code: n=1023 k=1 t=511" in capsys.readouterr().out.splitlines()

    def test_underage_denied(self, tmp_path, keys_prefix, capsys):
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", CHILD_DOB,
                "--out", str(tmp_path / "x.bbc"),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
            ]
        )
        assert code == EXIT_ISSUANCE_DENIED
        assert "issuance denied" in capsys.readouterr().err

    def test_liveness_failure(self, tmp_path, keys_prefix):
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(tmp_path / "x.bbc"),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
                "--liveness", "fail",
            ]
        )
        assert code == EXIT_LIVENESS

    def test_missing_keys_is_usage_error(self, tmp_path):
        code = main(
            [
                "enroll",
                "--keys", str(tmp_path / "nope"),
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(tmp_path / "x.bbc"),
                "--seed", RUN_SEED,
            ]
        )
        assert code == EXIT_USAGE

    def test_record_owner_only(self, record_path):
        assert _mode(Path(record_path)) == 0o600

    def test_failed_write_keeps_old_record(self, tmp_path, keys_prefix, record_path,
                                           monkeypatch, capsys):
        before = Path(record_path).read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", record_path,
                "--seed", "1",
                "--clock", str(NOW),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: cannot write record: replace refused\n"
        assert Path(record_path).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alice.bbc", "issuer.key", "issuer.pub"
        ]

    def test_record_byte_identical_across_reruns(self, tmp_path, keys_prefix):
        paths = [tmp_path / "a.bbc", tmp_path / "b.bbc"]
        for path in paths:
            assert (
                main(
                    [
                        "enroll",
                        "--keys", keys_prefix,
                        "--identity-seed", IDENTITY_SEED,
                        "--dob", ADULT_DOB,
                        "--out", str(path),
                        "--seed", RUN_SEED,
                        "--clock", str(NOW),
                    ]
                )
                == EXIT_OK
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_bytes_pinned(self, tmp_path):
        prefix = str(tmp_path / "golden")
        assert main(["asp-keygen", "--out", prefix, "--seed", "1"]) == EXIT_OK
        path = tmp_path / "golden.bbc"
        code = main(
            [
                "enroll",
                "--keys", prefix,
                "--identity-seed", "3",
                "--dob", "1990-01-01",
                "--out", str(path),
                "--seed", "4",
                "--clock", "1750000000",
            ]
        )
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_RECORD_SHA256

    def test_no_key_material_on_any_stream(self, tmp_path, keys_prefix, capsys):
        path = tmp_path / "scan.bbc"
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(path),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        streams = (captured.out + captured.err).lower()

        # Recover the key and secret from the record the CLI wrote.
        record_bytes = path.read_bytes()
        key, secret = recover_secrets(
            new_identity(int(IDENTITY_SEED), 512), decode_record(record_bytes)
        )
        assert key.key not in record_bytes
        assert secret.secret not in record_bytes
        assert key.key.hex() not in streams
        assert secret.secret.hex() not in streams

    def test_sketch_variant_knob_is_gone(self, tmp_path, keys_prefix, capsys):
        # Every record's sketch is the XOR pad: neither the --variant flag nor
        # the variant config key exists.
        config = tmp_path / "variant.conf"
        config.write_text("variant=xor\n")
        argv = [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(tmp_path / "x.bbc"),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
        ]
        capsys.readouterr()
        assert main(argv + ["--config", str(config)]) == EXIT_USAGE
        assert "unknown config key 'variant'" in capsys.readouterr().err
        assert main(argv + ["--variant", "xor"]) == EXIT_USAGE
        assert "unrecognized arguments: --variant xor" in capsys.readouterr().err
        assert not (tmp_path / "x.bbc").exists()


class TestAuth:
    def _auth(self, record_path, keys_prefix, *extra):
        return main(
            [
                "auth",
                "--record", record_path,
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--seed", "555",
                "--clock", str(NOW + 100),
                *extra,
            ]
        )

    def test_genuine_grant(self, record_path, keys_prefix, capsys):
        assert self._auth(record_path, keys_prefix) == EXIT_OK
        out = capsys.readouterr().out
        assert "GRANT age_over=18" in out
        assert "credential:" in out

    def test_impostor_rejected(self, record_path, keys_prefix, capsys):
        code = self._auth(record_path, keys_prefix, "--impostor")
        assert code == EXIT_AUTH_FAILED
        err = capsys.readouterr().err
        assert "authentication failed" in err
        assert "Extract" in err or "HashMismatch" in err

    def test_impostor_with_enrolled_identity_seed_rejected(self, record_path, keys_prefix):
        # The impostor stream is separate from the identity stream, so an
        # impostor drawn with the enrolled identity's seed is a stranger.
        code = main(
            [
                "auth",
                "--record", record_path,
                "--keys", keys_prefix,
                "--seed", IDENTITY_SEED,
                "--clock", str(NOW + 100),
                "--impostor",
            ]
        )
        assert code == EXIT_AUTH_FAILED

    def test_expired_credential_denied(self, record_path, keys_prefix, capsys):
        code = main(
            [
                "auth",
                "--record", record_path,
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--seed", "555",
                "--clock", str(NOW + 400 * 86400),
            ]
        )
        assert code == EXIT_RP_DENIED
        assert "DENY Expired" in capsys.readouterr().out

    def test_required_age_not_met(self, record_path, keys_prefix, capsys):
        code = self._auth(record_path, keys_prefix, "--required-age", "21")
        assert code == EXIT_RP_DENIED
        assert "DENY ThresholdNotMet" in capsys.readouterr().out

    def test_liveness_failure(self, record_path, keys_prefix):
        assert self._auth(record_path, keys_prefix, "--liveness", "fail") == EXIT_LIVENESS

    @pytest.mark.parametrize("t", [29, 300])
    def test_unsupported_code_in_record_is_usage_error(self, tmp_path, record_path,
                                                       keys_prefix, capsys, t):
        data = Path(record_path).read_bytes()
        pos = 4 + 1 + 5 + 1 + 16 + 4  # magic, version, TLV head, helper version, salt, n, k
        patched = tmp_path / "patched.bbc"
        patched.write_bytes(data[:pos] + t.to_bytes(2, "big") + data[pos + 2 :])
        capsys.readouterr()
        assert self._auth(str(patched), keys_prefix) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad record: InvariantViolation")

    @pytest.mark.parametrize("impostor", [False, True])
    def test_record_below_sampler_dim_is_usage_error(self, tmp_path, record_path,
                                                     keys_prefix, capsys, impostor):
        data = Path(record_path).read_bytes()
        pos = 4 + 1 + 5 + 1 + 16 + 6  # magic, version, TLV head, helper version, salt, n, k, t
        patched = tmp_path / "dim7.bbc"
        patched.write_bytes(data[:pos] + (7).to_bytes(2, "big") + data[pos + 2 :])
        capsys.readouterr()
        extra = ["--impostor"] if impostor else []
        assert self._auth(str(patched), keys_prefix, *extra) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad record: InvariantViolation")

    def test_unsupported_bound_version_is_usage_error(self, tmp_path, record_path,
                                                      keys_prefix, capsys):
        data = Path(record_path).read_bytes()
        record = decode_record(data)
        pos = len(data) - len(encode_bound(record.bound))  # the bound credential's version
        patched = tmp_path / "bound2.bbc"
        patched.write_bytes(data[:pos] + b"\x02" + data[pos + 1 :])
        capsys.readouterr()
        assert self._auth(str(patched), keys_prefix) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad record: InvariantViolation")

    def test_corrupt_record_reports_reason(self, tmp_path, record_path, keys_prefix, capsys):
        stub = tmp_path / "cut.bbc"
        stub.write_bytes(Path(record_path).read_bytes()[:60])
        code = main(
            [
                "auth",
                "--record", str(stub),
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--seed", "555",
            ]
        )
        assert code == EXIT_USAGE
        assert "Truncated" in capsys.readouterr().err


class TestEval:
    def test_writes_csv_with_requested_rows(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(
            [
                "eval",
                "--sigmas", "0.0,0.002",
                "--trials", "100",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma,trials,frr,frr_lo,frr_hi,far,far_lo,far_hi,seed"
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert (
                main(
                    [
                        "eval",
                        "--sigmas", "0.0",
                        "--trials", "100",
                        "--seed", "42",
                        "--out", str(path),
                    ]
                )
                == EXIT_OK
            )
        assert a.read_bytes() == b.read_bytes()

    def test_negative_sigma_is_usage_error(self, tmp_path):
        code = main(
            ["eval", "--sigmas", "-1", "--trials", "100", "--seed", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_empty_sigma_list_is_usage_error(self, tmp_path):
        code = main(
            ["eval", "--sigmas", ",", "--trials", "100", "--seed", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_write_no_file(self, tmp_path, capsys, trials):
        out = tmp_path / "x.csv"
        code = main(
            ["eval", "--sigmas", "0.0", "--trials", trials, "--seed", "1",
             "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "trials must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestInspect:
    def test_shows_metadata_without_plaintext(self, record_path, capsys):
        assert main(["inspect", "--record", record_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=511" in out and "k=259" in out and "t=30" in out
        assert re.search(r"digest=[0-9a-f]{64}", out)
        assert "ciphertext_bytes=130" in out
        # no decrypted credential fields
        assert "age_over" not in out and "subject" not in out

    def test_encrypted_sketch_record_is_bad_record(self, tmp_path, record_path,
                                                   keys_prefix, capsys):
        # A record whose sketch is variant 2, the AEAD-wrapped secret that
        # earlier versions could write, is refused by every reader.
        old = tmp_path / "encrypted.bbc"
        old.write_bytes(with_encrypted_sketch(Path(record_path).read_bytes()))
        capsys.readouterr()
        for argv in (["inspect", "--record", str(old)],
                     ["auth", "--record", str(old), "--keys", keys_prefix, "--seed", "1",
                      "--identity-seed", IDENTITY_SEED, "--clock", str(NOW)]):
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: bad record: InvariantViolation")
            assert "unknown sketch variant 2" in err

    def test_truncated_record_fails(self, tmp_path, record_path, capsys):
        stub = tmp_path / "cut.bbc"
        stub.write_bytes(Path(record_path).read_bytes()[:100])
        assert main(["inspect", "--record", str(stub)]) == EXIT_USAGE
        assert "Truncated" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, keys_prefix, capsys):
        config = tmp_path / "bb.conf"
        config.write_text("age_threshold=21\nsigma_default=0.001\n")
        path = tmp_path / "c.bbc"
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(path),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
                "--config", str(config),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        # The record now carries an age_over=21 credential.
        code = main(
            [
                "auth",
                "--record", str(path),
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--seed", "556",
                "--clock", str(NOW + 10),
                "--required-age", "21",
                "--config", str(config),
            ]
        )
        assert code == EXIT_OK
        assert "GRANT age_over=21" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, keys_prefix, capsys):
        config = tmp_path / "bb.conf"
        config.write_text("age_threshold=21\n")
        path = tmp_path / "d.bbc"
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(path),
                "--seed", RUN_SEED,
                "--clock", str(NOW),
                "--config", str(config),
                "--threshold", "18",
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(
            [
                "auth",
                "--record", str(path),
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--seed", "557",
                "--clock", str(NOW + 10),
            ]
        )
        assert code == EXIT_OK
        assert "GRANT age_over=18" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, keys_prefix):
        config = tmp_path / "bad.conf"
        config.write_text("nope=1\n")
        code = main(
            [
                "enroll",
                "--keys", keys_prefix,
                "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB,
                "--out", str(tmp_path / "x.bbc"),
                "--seed", RUN_SEED,
                "--config", str(config),
            ]
        )
        assert code == EXIT_USAGE

    # enroll refuses each of these values (test_bad_settings_are_usage_errors),
    # so a subcommand that read the key would exit 2.
    @pytest.mark.parametrize("entry", ["code_n=100", "dim=4"])
    def test_auth_skips_keys_it_does_not_read(self, tmp_path, record_path, keys_prefix,
                                              capsys, entry):
        config = tmp_path / "shared.conf"
        config.write_text(entry + "\n")
        argv = [
            "auth",
            "--record", record_path,
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--seed", "555",
            "--clock", str(NOW + 100),
        ]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr()
        assert main(argv + ["--config", str(config)]) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize(
        "entry", ["age_threshold=0", "sigma_default=2", "validity_seconds=0"]
    )
    def test_eval_skips_keys_it_does_not_read(self, tmp_path, capsys, entry):
        config = tmp_path / "shared.conf"
        config.write_text(entry + "\n")
        out = tmp_path / "rates.csv"
        argv = ["eval", "--sigmas", "0.003", "--trials", "20", "--seed", "42", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr(), out.read_bytes()
        out.unlink()
        assert main(argv + ["--config", str(config)]) == EXIT_OK
        assert (capsys.readouterr(), out.read_bytes()) == plain


@pytest.mark.parametrize(
    "command, extra",
    [
        ("enroll", ["--threshold", "0"]),
        ("enroll", ["--sigma", "-1"]),
        ("auth", ["--sigma", "-1"]),
        ("enroll", ["--config", "dim4.conf"]),
        ("enroll", ["--sigma", "nan"]),
        ("enroll", ["--sigma", "1e300"]),
        ("auth", ["--sigma", "1e300"]),
        ("enroll", ["--config", "bch1023.conf"]),
        # issued_at and expires_at are unsigned 64-bit fields, and the ASP
        # reads the clock as a calendar date.
        ("enroll", ["--clock", str(1 << 64)]),
        ("enroll", ["--clock", "99999999999999"]),
        ("enroll", ["--clock", "-5", "--dob", "1940-01-01"]),
        ("enroll", ["--config", "validity.conf"]),
        # 9999-12-31 23:59:59 UTC is the last second; the next is year 10000.
        ("enroll", ["--clock", "253402300800"]),
        # The clock is checked before the record is read and authenticated.
        ("auth", ["--clock", "-5"]),
        ("auth", ["--impostor", "--clock", "-5"]),
        # Without --seed auth prints the seed it drew, but only once every
        # setting has been checked. Enroll prints no seed, so its unseeded
        # run is enroll-clock-negative.
        ("auth", [UNSEEDED, "--clock", "-5"]),
        # The helper header stores dim in 2 bytes.
        ("enroll", ["--config", "dim70000.conf"]),
        # enroll reads every key of a config file, also those auth or eval skip.
        ("enroll", ["--config", "n100.conf"]),
        ("enroll", ["--config", "threshold0.conf"]),
        ("enroll", ["--config", "sigma2.conf"]),
        ("enroll", ["--config", "validity0.conf"]),
        # A required age the RP cannot check would grant any credential.
        ("auth", ["--required-age", "-5"]),
        ("auth", ["--required-age", "0"]),
        ("auth", ["--required-age", "150"]),
        ("auth", [UNSEEDED, "--required-age", "0"]),
    ],
    ids=["enroll-threshold-0", "enroll-sigma-negative", "auth-sigma-negative", "config-dim-4",
         "enroll-sigma-nan", "enroll-sigma-huge", "auth-sigma-huge", "config-code-1023",
         "enroll-clock-2-64", "enroll-clock-past-9999", "enroll-clock-negative",
         "config-validity-huge", "enroll-clock-year-10000", "auth-clock-negative",
         "auth-impostor-clock-negative", "auth-unseeded-clock-negative", "config-dim-70000",
         "config-code-n-100", "config-threshold-0", "config-sigma-2", "config-validity-0",
         "auth-required-age-negative", "auth-required-age-0", "auth-required-age-150",
         "auth-unseeded-required-age-0"],
)
def test_bad_settings_are_usage_errors(tmp_path, keys_prefix, record_path, capsys,
                                       command, extra):
    (tmp_path / "dim4.conf").write_text("dim=4\n")
    (tmp_path / "dim70000.conf").write_text("dim=70000\n")
    # Length 1023 with t=1 has k=1013, so (1023, 1, 1) is no BCH code.
    (tmp_path / "bch1023.conf").write_text("dim=1024\ncode_n=1023\ncode_k=1\ncode_t=1\n")
    (tmp_path / "validity.conf").write_text("validity_seconds=99999999999999999999\n")
    for name, entry in [("n100", "code_n=100"), ("threshold0", "age_threshold=0"),
                        ("sigma2", "sigma_default=2"), ("validity0", "validity_seconds=0")]:
        (tmp_path / f"{name}.conf").write_text(entry + "\n")
    seeded = UNSEEDED not in extra
    extra = [str(tmp_path / a) if a.endswith(".conf") else a for a in extra if a != UNSEEDED]
    if command == "enroll":
        argv = [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(tmp_path / "bad.bbc"),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
        ]
    else:
        argv = [
            "auth",
            "--record", record_path,
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--seed", "558",
            "--clock", str(NOW + 10),
        ]
    if not seeded:
        at = argv.index("--seed")
        del argv[at : at + 2]
    capsys.readouterr()
    assert main(argv + extra) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "bad.bbc").exists()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["enroll"]) == EXIT_USAGE
    capsys.readouterr()


def _write_flipped_digest(record_path, out):
    record = decode_record(Path(record_path).read_bytes())
    digest = bytes([record.digest.digest[0] ^ 0x01]) + record.digest.digest[1:]
    out.write_bytes(encode_record(replace(record, digest=replace(record.digest, digest=digest))))


@pytest.mark.parametrize(
    "command, extra, code, line",
    [
        ("enroll", ["--liveness", "fail"], EXIT_LIVENESS,
         "liveness check failed: policy AlwaysFail"),
        ("enroll", ["--dob", CHILD_DOB], EXIT_ISSUANCE_DENIED, "issuance denied: UnderAge"),
        ("auth", ["--liveness", "fail"], EXIT_LIVENESS,
         "liveness check failed: policy AlwaysFail"),
        ("auth", ["--impostor"], EXIT_AUTH_FAILED, "authentication failed: Extract"),
        # The last --record wins: the enrolled record with one digest byte flipped.
        ("auth", ["--record", "flipped.bbc"], EXIT_AUTH_FAILED,
         "authentication failed: HashMismatch"),
    ],
    ids=["enroll-liveness", "enroll-underage", "auth-liveness", "auth-impostor",
         "auth-digest-flipped"],
)
def test_refusal_exit_code_and_line(tmp_path, keys_prefix, record_path, capsys,
                                    command, extra, code, line):
    out_path = tmp_path / "refused.bbc"
    if command == "enroll":
        argv = [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(out_path),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
        ]
    else:
        _write_flipped_digest(record_path, tmp_path / "flipped.bbc")
        extra = [str(tmp_path / a) if a.endswith(".bbc") else a for a in extra]
        argv = [
            "auth",
            "--record", record_path,
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--seed", "555",
            "--clock", str(NOW + 100),
        ]
    capsys.readouterr()
    assert main(argv + extra) == code
    assert capsys.readouterr() == ("", line + "\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["enroll", "auth", "eval"])
def test_non_utf8_config_is_usage_error(tmp_path, keys_prefix, record_path, capsys, command):
    config = tmp_path / "utf16.conf"
    config.write_bytes(b"\xff\xfe" + "dim=512\n".encode("utf-16-le"))
    out_path = tmp_path / "out.file"
    argv = {
        "enroll": ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                   "--dob", ADULT_DOB, "--out", str(out_path), "--clock", str(NOW)],
        "auth": ["auth", "--record", record_path, "--keys", keys_prefix,
                 "--identity-seed", IDENTITY_SEED, "--clock", str(NOW + 100)],
        "eval": ["eval", "--sigmas", "0.003", "--trials", "100", "--out", str(out_path)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--seed", RUN_SEED, "--config", str(config)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read config file:")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["enroll", "auth", "eval"])
def test_unknown_and_repeated_keys_refused_by_every_subcommand(tmp_path, keys_prefix,
                                                                record_path, capsys, command):
    # Each subcommand reads its own keys from a file shared by all of them,
    # so each refuses a key none of them knows and a key stated twice.
    out_path = tmp_path / "out.file"
    argv = {
        "enroll": ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                   "--dob", ADULT_DOB, "--out", str(out_path), "--clock", str(NOW)],
        "auth": ["auth", "--record", record_path, "--keys", keys_prefix,
                 "--identity-seed", IDENTITY_SEED, "--clock", str(NOW + 100)],
        "eval": ["eval", "--sigmas", "0.003", "--trials", "20", "--out", str(out_path)],
    }[command]
    config = tmp_path / "shared.conf"
    for text, line in [
        ("dim=512\nnope=1\n", f"error: {config}:2: unknown config key 'nope'\n"),
        ("code_n=100\ncode_n=511\n", f"error: {config}:2: duplicate config key 'code_n'\n"),
    ]:
        config.write_text(text)
        capsys.readouterr()
        assert main(argv + ["--seed", RUN_SEED, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", line)
        assert not out_path.exists()


def test_duplicate_config_key_rejected(tmp_path, keys_prefix, capsys):
    config = tmp_path / "dup.conf"
    config.write_text("# two dims\ndim=512\ndim=600\n")
    out_path = tmp_path / "dup.bbc"
    capsys.readouterr()
    code = main(
        [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(out_path),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
            "--config", str(config),
        ]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {config}:3: duplicate config key 'dim'\n")
    assert not out_path.exists()
