import errno
import hashlib
import os
import re
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from bbcreds import binding, evaluate
from bbcreds.cli import (
    EXIT_AUTH_FAILED,
    EXIT_ISSUANCE_DENIED,
    EXIT_LIVENESS,
    EXIT_OK,
    EXIT_RP_DENIED,
    EXIT_USAGE,
    _CONFIG_FILE_BYTES,
    _KEY_FILE_BYTES,
    main,
)
from bbcreds.ecc import codec_for
from bbcreds.evaluate import CSV_HEADER
from bbcreds.fextract import CODE, _random_message
from bbcreds.kdf import subseed
from bbcreds.store import RECORD_BYTES, decode_record, encode_record
from bbcreds.synthbio import new_identity

from conftest import (
    BOUND_VERSION_AT,
    NOW,
    UNSUPPORTED_HEADER_IDS,
    UNSUPPORTED_HEADERS,
    recover_secrets,
    with_encrypted_sketch,
    with_helper_header,
)

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


@pytest.fixture()
def read_sizes(monkeypatch):
    """Counts what each read of a watched file returns: ``read_sizes(path)``
    watches ``path`` and returns the list its reads append their sizes to."""
    real_open = Path.open
    watched: dict[Path, list[int]] = {}

    class Counted:
        def __init__(self, file, sizes):
            self.file, self.sizes = file, sizes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def read(self, size=-1):
            data = self.file.read(size)
            self.sizes.append(len(data))
            return data

    def counted_open(path, *args, **kwargs):
        file = real_open(path, *args, **kwargs)
        return Counted(file, watched[path]) if path in watched else file

    monkeypatch.setattr(Path, "open", counted_open)
    return lambda path: watched.setdefault(Path(path), [])


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

    def test_failed_key_write_keeps_the_old_pair(self, tmp_path, monkeypatch, capsys):
        """A --force run whose private-key write fails for want of space
        leaves both old files, so the .pub never names another key than
        the .key holds, and leaves no temporary file."""
        prefix = str(tmp_path / "k")
        assert main(["asp-keygen", "--out", prefix, "--seed", "1"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_open = os.open

        def full_disk(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if ".k.key." in os.fspath(path):  # the key's file, written after the .pub
                os.close(fd)
                fd = real_open("/dev/full", os.O_WRONLY)
            return fd

        monkeypatch.setattr(os, "open", full_disk)
        capsys.readouterr()
        assert main(["asp-keygen", "--out", prefix, "--seed", "2", "--force"]) == EXIT_USAGE
        no_space = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert capsys.readouterr() == ("", f"error: cannot write key files: {no_space}\n")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_known_defect_failed_second_rename_splits_the_pair(self, tmp_path, monkeypatch,
                                                               capsys):
        """A --force run whose second rename fails leaves the new .pub next
        to the old .key. enroll reads only the .key, so it still signs; the
        split shows where the .pub is read: auth denies the credential."""
        prefix = str(tmp_path / "k")
        assert main(["asp-keygen", "--out", prefix, "--seed", "1"]) == EXIT_OK
        old_key = (tmp_path / "k.key").read_bytes()
        real_replace, renames = os.replace, []

        def second_fails(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError("replace refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        capsys.readouterr()
        assert main(["asp-keygen", "--out", prefix, "--seed", "2", "--force"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: cannot write key files: replace refused\n")
        monkeypatch.undo()
        assert (tmp_path / "k.key").read_bytes() == old_key
        record = str(tmp_path / "r.bbc")
        assert main(["enroll", "--keys", prefix, "--identity-seed", IDENTITY_SEED,
                     "--dob", ADULT_DOB, "--out", record, "--seed", RUN_SEED,
                     "--clock", str(NOW)]) == EXIT_OK
        capsys.readouterr()
        assert main(["auth", "--record", record, "--keys", prefix, "--identity-seed",
                     IDENTITY_SEED, "--seed", "555", "--clock", str(NOW + 100)]) == EXIT_RP_DENIED
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "DENY BadSignature" and err == ""


class TestEnroll:
    @pytest.mark.parametrize("pub", ["missing", "foreign"])
    def test_reads_only_the_private_key(self, tmp_path, keys_prefix, record_path, pub):
        # The public key is derived from the private one, so enroll never
        # opens the .pub: without it, or with another issuer's, the record
        # is the one the pair gives.
        pub_path = Path(keys_prefix + ".pub")
        if pub == "missing":
            pub_path.unlink()
        else:
            other = str(tmp_path / "other")
            assert main(["asp-keygen", "--out", other, "--seed", "12"]) == EXIT_OK
            pub_path.write_bytes(Path(other + ".pub").read_bytes())
        out = tmp_path / "again.bbc"
        assert main(["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                     "--dob", ADULT_DOB, "--out", str(out), "--seed", RUN_SEED,
                     "--clock", str(NOW)]) == EXIT_OK
        assert out.read_bytes() == Path(record_path).read_bytes()

    @pytest.mark.parametrize(
        "text, line",
        [
            (bytes(31).hex(), "error: issuer private key must be 32 bytes, got 31\n"),
            ("not hex", "error: cannot load issuer private key '{prefix}': non-hexadecimal "
                        "number found in fromhex() arg at position 0\n"),
        ],
        ids=["short", "non-hex"],
    )
    def test_bad_private_key_file_is_usage_error(self, tmp_path, capsys, text, line):
        prefix = str(tmp_path / "bad")
        (tmp_path / "bad.key").write_text(text + "\n")
        out = tmp_path / "x.bbc"
        capsys.readouterr()
        assert main(["enroll", "--keys", prefix, "--identity-seed", IDENTITY_SEED,
                     "--dob", ADULT_DOB, "--out", str(out), "--seed", RUN_SEED]) == EXIT_USAGE
        assert capsys.readouterr() == ("", line.format(prefix=prefix))
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", ".", "/", "sub/", "sub/."],
                             ids=["empty", "dot", "root", "trailing-slash", "slash-dot"])
    def test_out_without_file_name_is_refused(self, tmp_path, keys_prefix, monkeypatch,
                                              capsys, out):
        # Each names a directory, not a record file, and is refused before
        # any file is written, as eval refuses such an --out.
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                     "--dob", ADULT_DOB, "--out", out, "--seed", RUN_SEED,
                     "--clock", str(NOW)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: cannot write record: no file name in {out!r}\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_unseeded_output_cannot_rebuild_the_salt(self, tmp_path, keys_prefix, capsys):
        """A seeded record's public salt is rebuilt from its seed, which
        checks any guess of the seed offline. An unseeded enroll draws the
        salt, message and secret from the OS and prints no seed, and no
        integer on its stdout rebuilds the salt."""
        argv = ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                "--dob", ADULT_DOB, "--clock", str(NOW)]

        def salt_from(seed):
            return _random_message(subseed(seed, "bbcreds/device/fe/v1"))[0]

        seeded, unseeded = tmp_path / "seeded.bbc", tmp_path / "unseeded.bbc"
        assert main(argv + ["--out", str(seeded), "--seed", RUN_SEED]) == EXIT_OK
        assert salt_from(int(RUN_SEED)) == decode_record(seeded.read_bytes()).helper.salt
        capsys.readouterr()
        assert main(argv + ["--out", str(unseeded)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "seed=" not in out and err == ""
        salt = decode_record(unseeded.read_bytes()).helper.salt
        assert all(salt_from(int(number)) != salt for number in re.findall(r"\d+", out))

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
        """Enrollment only encodes, so ``enroll`` builds none of the code's
        decoder tables, which take 2.75 MiB, and allocates under 1 MiB at peak."""
        path = tmp_path / "r.bbc"
        argv = [
            "enroll",
            "--keys", keys_prefix,
            "--identity-seed", IDENTITY_SEED,
            "--dob", ADULT_DOB,
            "--out", str(path),
            "--seed", RUN_SEED,
            "--clock", str(NOW),
        ]
        codec_for.cache_clear()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        decoder_tables = {"_syndrome_table", "_root_table", "_root_ints"}
        assert not decoder_tables & vars(codec_for(CODE)).keys()
        assert peak < 1 << 20

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
            new_identity(int(IDENTITY_SEED)), decode_record(record_bytes)
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

    def test_code_and_dim_settings_are_gone(self, tmp_path, keys_prefix, record_path, capsys):
        # Every record is BCH(511, 259, 30) over 512-d embeddings: no config
        # key names the code or the dim, and eval takes no config file. A
        # record of another code is refused by
        # TestAuth::test_unsupported_code_in_record_is_usage_error.
        argv = {
            "enroll": ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                       "--dob", ADULT_DOB, "--out", str(tmp_path / "x.bbc"), "--clock", str(NOW)],
            "auth": ["auth", "--record", record_path, "--keys", keys_prefix,
                     "--identity-seed", IDENTITY_SEED, "--clock", str(NOW + 100)],
        }
        config = tmp_path / "code.conf"
        for key in ("dim", "code_n", "code_k", "code_t"):
            config.write_text(f"{key}=512\n")
            for command in argv.values():
                capsys.readouterr()
                assert main(command + ["--seed", RUN_SEED, "--config", str(config)]) == EXIT_USAGE
                line = f"error: {config}:1: unknown config key {key!r}\n"
                assert capsys.readouterr() == ("", line)
        assert not (tmp_path / "x.bbc").exists()
        eval_argv = ["eval", "--sigmas", "0.003", "--trials", "20", "--seed", RUN_SEED,
                     "--out", str(tmp_path / "x.csv")]
        assert main(eval_argv + ["--config", str(config)]) == EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    @pytest.mark.parametrize("header", UNSUPPORTED_HEADERS, ids=UNSUPPORTED_HEADER_IDS)
    def test_unsupported_code_in_record_is_usage_error(self, tmp_path, record_path,
                                                       keys_prefix, capsys, header):
        # Every record is BCH(511, 259, 30) over 512-d embeddings; a record
        # stating another header, as earlier versions could write, is refused
        # before any codec is built, on the genuine and the impostor path.
        patched = tmp_path / "patched.bbc"
        patched.write_bytes(with_helper_header(Path(record_path).read_bytes(), *header))
        for extra in ([], ["--impostor"]):
            codec_for.cache_clear()
            capsys.readouterr()
            assert self._auth(str(patched), keys_prefix, *extra) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            # another n changes the helper's length, whose last byte is byte 9
            at = 10 if header[0] == CODE.n else 9
            assert err.startswith(f"error: bad record: InvariantViolation at byte {at}")
            assert codec_for.cache_info().currsize == 0

    @pytest.mark.parametrize("impostor", [False, True])
    def test_record_below_sampler_dim_is_usage_error(self, tmp_path, record_path,
                                                     keys_prefix, capsys, impostor):
        patched = tmp_path / "dim7.bbc"
        patched.write_bytes(with_helper_header(Path(record_path).read_bytes(), 511, 259, 30, 7))
        codec_for.cache_clear()
        capsys.readouterr()
        extra = ["--impostor"] if impostor else []
        assert self._auth(str(patched), keys_prefix, *extra) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad record: InvariantViolation at byte 10")
        assert codec_for.cache_info().currsize == 0

    def test_unsupported_bound_version_is_usage_error(self, tmp_path, record_path,
                                                      keys_prefix, capsys):
        data = Path(record_path).read_bytes()
        pos = BOUND_VERSION_AT
        patched = tmp_path / "bound2.bbc"
        patched.write_bytes(data[:pos] + b"\x02" + data[pos + 1 :])
        capsys.readouterr()
        assert self._auth(str(patched), keys_prefix) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad record: InvariantViolation")

    def test_short_issuer_public_key_is_usage_error(self, tmp_path, record_path,
                                                    keys_prefix, capsys):
        (tmp_path / "short.pub").write_text(bytes(31).hex() + "\n")
        capsys.readouterr()
        assert self._auth(record_path, str(tmp_path / "short")) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: issuer public key must be 32 bytes, got 31\n")

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

    def test_internal_fault_is_not_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # Every input sweep checks is checked before the CSV opens, so a
        # ValueError from inside a trial is a fault and keeps its traceback.
        def fault(samples, helpers):
            raise ValueError("internal fault in a trial")

        monkeypatch.setattr(evaluate, "fe_reproduce_batch", fault)
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="internal fault in a trial"):
            main(["eval", "--sigmas", "0.003", "--trials", "5", "--seed", "1",
                  "--out", str(out)])
        assert capsys.readouterr().err == ""
        assert out.read_text() == CSV_HEADER + "\n"


class TestInspect:
    def test_oversized_file_is_read_to_one_byte_past_a_record(self, tmp_path, record_path,
                                                              keys_prefix, read_sizes, capsys):
        big = tmp_path / "big.bbc"
        big.write_bytes(Path(record_path).read_bytes() + bytes(1 << 20))
        reads = read_sizes(big)
        capsys.readouterr()
        for argv in (["inspect", "--record", str(big)],
                     ["auth", "--record", str(big), "--keys", keys_prefix, "--seed", "1",
                      "--identity-seed", IDENTITY_SEED, "--clock", str(NOW)]):
            reads.clear()
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: bad record: InvariantViolation at byte {RECORD_BYTES}: ")
            assert sum(reads) == RECORD_BYTES + 1

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
        # earlier versions could write, is refused by every reader at the
        # sketch entry's length.
        old = tmp_path / "encrypted.bbc"
        old.write_bytes(with_encrypted_sketch(Path(record_path).read_bytes()))
        capsys.readouterr()
        for argv in (["inspect", "--record", str(old)],
                     ["auth", "--record", str(old), "--keys", keys_prefix, "--seed", "1",
                      "--identity-seed", IDENTITY_SEED, "--clock", str(NOW)]):
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: bad record: InvariantViolation at byte 103: "
                                  "sketch length is 65, expected 37")

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
    @pytest.mark.parametrize("entry", ["age_threshold=0", "validity_seconds=0"])
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
    "command, extra",
    [
        ("enroll", ["--threshold", "0"]),
        ("enroll", ["--sigma", "-1"]),
        ("auth", ["--sigma", "-1"]),
        ("enroll", ["--sigma", "nan"]),
        ("enroll", ["--sigma", "1e300"]),
        ("auth", ["--sigma", "1e300"]),
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
        ("enroll", ["--config", "threshold0.conf"]),
        ("enroll", ["--config", "sigma2.conf"]),
        ("enroll", ["--config", "validity0.conf"]),
        # A required age the RP cannot check would grant any credential.
        ("auth", ["--required-age", "-5"]),
        ("auth", ["--required-age", "0"]),
        ("auth", ["--required-age", "150"]),
        ("auth", [UNSEEDED, "--required-age", "0"]),
    ],
    ids=["enroll-threshold-0", "enroll-sigma-negative", "auth-sigma-negative",
         "enroll-sigma-nan", "enroll-sigma-huge", "auth-sigma-huge",
         "enroll-clock-2-64", "enroll-clock-past-9999", "enroll-clock-negative",
         "config-validity-huge", "enroll-clock-year-10000", "auth-clock-negative",
         "auth-impostor-clock-negative", "auth-unseeded-clock-negative",
         "config-threshold-0", "config-sigma-2", "config-validity-0",
         "auth-required-age-negative", "auth-required-age-0", "auth-required-age-150",
         "auth-unseeded-required-age-0"],
)
def test_bad_settings_are_usage_errors(tmp_path, keys_prefix, record_path, capsys,
                                       command, extra):
    (tmp_path / "validity.conf").write_text("validity_seconds=99999999999999999999\n")
    for name, entry in [("threshold0", "age_threshold=0"),
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


@pytest.mark.parametrize("command", ["auth", "eval"])
def test_unseeded_run_prints_the_seed_that_repeats_it(tmp_path, keys_prefix, record_path,
                                                      capsys, command):
    # Without --seed, auth and eval draw a seed and print it on a line of its
    # own; rerun with that seed, each prints the rest again, and eval writes
    # the same CSV.
    csv = tmp_path / "rates.csv"
    argv = {
        "auth": ["auth", "--record", record_path, "--keys", keys_prefix,
                 "--identity-seed", IDENTITY_SEED, "--clock", str(NOW + 100)],
        "eval": ["eval", "--sigmas", "0.003", "--trials", "20", "--out", str(csv)],
    }[command]
    capsys.readouterr()
    code = main(argv)
    first, *rest = capsys.readouterr().out.splitlines()
    seed = re.fullmatch(r"seed=(\d+)", first).group(1)
    assert not any(line.startswith("seed=") for line in rest)
    written = csv.read_bytes() if command == "eval" else None
    assert main(argv + ["--seed", seed]) == code
    assert capsys.readouterr().out.splitlines() == rest
    assert (csv.read_bytes() if command == "eval" else None) == written


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


def _write_credential_version_2(keys_prefix, out):
    encode = binding.encode_agecred
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(binding, "encode_agecred", lambda cred: b"\x02" + encode(cred)[1:])
        assert main(["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                     "--dob", ADULT_DOB, "--out", str(out), "--seed", RUN_SEED,
                     "--clock", str(NOW)]) == EXIT_OK


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
        # A record enrolled like the fixture's, but whose bound credential has
        # version byte 2: it decrypts under its own secret and fails to decode.
        ("auth", ["--record", "version2.bbc"], EXIT_AUTH_FAILED,
         "authentication failed: MalformedCredential"),
    ],
    ids=["enroll-liveness", "enroll-underage", "auth-liveness", "auth-impostor",
         "auth-digest-flipped", "auth-credential-version"],
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
        _write_credential_version_2(keys_prefix, tmp_path / "version2.bbc")
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


@pytest.mark.parametrize(
    "argv, line",
    [
        (["auth", "--record", "{tmp}/missing.bbc", "--keys", "{keys}"],
         "error: cannot read record: "),
        (["inspect", "--record", "{tmp}/missing.bbc"], "error: cannot read record: "),
        (["auth", "--record", "{record}", "--keys", "{tmp}/nonhex"],
         "error: cannot load issuer public key "),
        (["asp-keygen", "--out", "{tmp}/missing/issuer"], "error: cannot write key files: "),
        # Unseeded, eval draws and prints its seed only once the CSV is open.
        (["eval", "--sigmas", "0.003", "--trials", "10", "--out", "{tmp}/missing/x.csv"],
         "error: cannot write CSV: "),
    ],
    ids=["auth-missing-record", "inspect-missing-record", "auth-non-hex-public-key",
         "keygen-missing-directory", "eval-unseeded-missing-directory"],
)
def test_unusable_path_is_usage_error(tmp_path, keys_prefix, record_path, capsys, argv, line):
    (tmp_path / "nonhex.pub").write_text("not hex\n")
    argv = [a.format(tmp=tmp_path, keys=keys_prefix, record=record_path) for a in argv]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(line)
    assert not (tmp_path / "missing").exists() and not (tmp_path / "missing.bbc").exists()


def _config_argv(command, keys_prefix, record_path, out_path):
    """An enroll writing ``out_path``, or an auth of ``record_path``, that
    reads a config file; --seed and --config are left to the caller."""
    return {
        "enroll": ["enroll", "--keys", keys_prefix, "--identity-seed", IDENTITY_SEED,
                   "--dob", ADULT_DOB, "--out", str(out_path), "--clock", str(NOW)],
        "auth": ["auth", "--record", record_path, "--keys", keys_prefix,
                 "--identity-seed", IDENTITY_SEED, "--clock", str(NOW + 100)],
    }[command]


@pytest.mark.parametrize("command", ["enroll", "auth"])
def test_non_utf8_config_is_usage_error(tmp_path, keys_prefix, record_path, capsys, command):
    config = tmp_path / "utf16.conf"
    config.write_bytes(b"\xff\xfe" + "sigma_default=0.003\n".encode("utf-16-le"))
    out_path = tmp_path / "out.file"
    argv = _config_argv(command, keys_prefix, record_path, out_path)
    capsys.readouterr()
    assert main(argv + ["--seed", RUN_SEED, "--config", str(config)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read config file:")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["enroll", "auth"])
def test_empty_config_path_is_usage_error(tmp_path, keys_prefix, record_path, capsys, command):
    # An empty path names no file; it is not the absence of --config.
    out_path = tmp_path / "out.file"
    argv = _config_argv(command, keys_prefix, record_path, out_path)
    capsys.readouterr()
    assert main(argv + ["--seed", RUN_SEED, "--config", ""]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read config file:")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command, flag, big, line, limit",
    [("enroll", ["--config", "{tmp}/big.conf"], "big.conf", "cannot read config file: ",
      _CONFIG_FILE_BYTES),
     ("auth", ["--config", "{tmp}/big.conf"], "big.conf", "cannot read config file: ",
      _CONFIG_FILE_BYTES),
     ("enroll", ["--keys", "{tmp}/big"], "big.key",
      "cannot load issuer private key '{tmp}/big': ", _KEY_FILE_BYTES),
     ("auth", ["--keys", "{tmp}/big"], "big.pub",
      "cannot load issuer public key '{tmp}/big': ", _KEY_FILE_BYTES)],
    ids=["enroll-config", "auth-config", "enroll-private-key", "auth-public-key"],
)
def test_oversized_text_file_is_read_to_one_byte_past_its_limit(
        tmp_path, keys_prefix, record_path, read_sizes, capsys, command, flag, big, line, limit):
    """A config or key file longer than its limit is refused once one byte
    past the limit is read, though the file would parse if read whole."""
    for suffix in (".pub", ".key"):
        key = Path(keys_prefix + suffix).read_text()
        (tmp_path / f"big{suffix}").write_text(key + "\n" * (1 << 20))
    (tmp_path / "big.conf").write_text("# padding\n" * (1 << 17))
    out_path = tmp_path / "out.file"
    argv = _config_argv(command, keys_prefix, record_path, out_path)
    reads = read_sizes(tmp_path / big)
    capsys.readouterr()
    flag = [arg.format(tmp=tmp_path) for arg in flag]
    assert main(argv + ["--seed", RUN_SEED, *flag]) == EXIT_USAGE
    line = line.format(tmp=tmp_path)
    assert capsys.readouterr() == ("", f"error: {line}file is longer than {limit} bytes\n")
    assert sum(reads) == limit + 1
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["enroll", "auth"])
def test_unknown_and_repeated_keys_refused_by_every_subcommand(tmp_path, keys_prefix,
                                                                record_path, capsys, command):
    # Each subcommand reads its own keys from a file shared by all of them,
    # so each refuses a key none of them knows, a key stated twice and a
    # line that is no key=value entry.
    out_path = tmp_path / "out.file"
    argv = _config_argv(command, keys_prefix, record_path, out_path)
    config = tmp_path / "shared.conf"
    for text, line in [
        ("sigma_default=0.003\nnope=1\n", f"error: {config}:2: unknown config key 'nope'\n"),
        ("age_threshold=18\nage_threshold=21\n",
         f"error: {config}:2: duplicate config key 'age_threshold'\n"),
        ("sigma_default=0.003\nnope\n", f"error: {config}:2: expected key=value\n"),
    ]:
        config.write_text(text)
        capsys.readouterr()
        assert main(argv + ["--seed", RUN_SEED, "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", line)
        assert not out_path.exists()


def test_duplicate_config_key_rejected(tmp_path, keys_prefix, capsys):
    config = tmp_path / "dup.conf"
    config.write_text("# two thresholds\nage_threshold=18\nage_threshold=21\n")
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
    assert capsys.readouterr() == ("", f"error: {config}:3: duplicate config key 'age_threshold'\n")
    assert not out_path.exists()
