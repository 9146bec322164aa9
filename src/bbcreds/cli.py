"""Command-line driver for the age-credential protocol.

Subcommands cover the full lifecycle: issuer key generation, enrollment
against an in-process ASP, device authentication plus the relying-party
decision, record inspection, and the FRR/FAR evaluation sweep.

Exit codes: 0 success, 2 usage/I-O/format problems, 3 issuance denied,
4 liveness rejection, 5 authentication failure (key extraction, or the
record's key-hash check, credential decryption or credential decode),
6 relying-party denial.
Without --seed, asp-keygen and enroll draw every key and secret from the OS
and print nothing; with it, each is a function of that 64-bit seed
(SEED_MASK), fit only for reproducible experiments. The seeds of auth and
eval pick synthetic samples and write no key or secret; when omitted, one
is drawn and printed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from datetime import date
from pathlib import Path

from .binding import AuthFailure
from .credential import MAX_AGE_OVER, IssuerKeyPair, generate_issuer_keys
from .evaluate import sweep
from .fextract import CODE, HELPER_VERSION, ExtractFailure
from .kdf import SEED_MASK
from .parties import (
    LATEST_CLOCK,
    AgePolicy,
    AlwaysFail,
    AlwaysPass,
    DateOfBirthEvidence,
    InProcessAsp,
    IssuanceDenied,
    LivenessFailed,
    ProtocolConfig,
    device_authenticate,
    device_enroll,
    rp_check_access,
)
from .store import RECORD_BYTES, FormatError, decode_record, encode_record
from .synthbio import DEFAULT_DIM, NoiseModel, new_identity, sample_genuine, sample_impostor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ISSUANCE_DENIED = 3
EXIT_LIVENESS = 4
EXIT_AUTH_FAILED = 5
EXIT_RP_DENIED = 6

class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# Each config key: the argparse dest of the flag that overrides it (None if
# no flag does), the settings class and field it sets, and its parser.
_SETTINGS = {
    "sigma_default": ("sigma", ProtocolConfig, "sigma", float),
    "age_threshold": ("threshold", AgePolicy, "threshold", int),
    "validity_seconds": (None, AgePolicy, "validity_seconds", int),
}
# enroll and auth refuse a key unknown to both, as they share one file, but
# each resolves only the keys it reads (its parser's config_keys).
_AUTH_KEYS = ("sigma_default",)

_KEY_SUFFIX = {"public": ".pub", "private": ".key"}  # the issuer's two key files
_KEY_FILE_BYTES = 1 << 10  # the most read of a key file (64 hex digits and a newline)
_CONFIG_FILE_BYTES = 1 << 16  # the most read of a config file


def _read_head(path: str, limit: int) -> bytes:
    """At most ``limit`` + 1 bytes of a file, so a longer one reads a byte too long."""
    with Path(path).open("rb") as file:
        return file.read(limit + 1)


def _read_text(path: str, limit: int) -> str:
    """A UTF-8 file of at most ``limit`` bytes; ValueError for a longer one."""
    data = _read_head(path, limit)
    if len(data) > limit:
        raise ValueError(f"file is longer than {limit} bytes")
    return data.decode("utf-8")


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = _read_text(path, _CONFIG_FILE_BYTES)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise CliError(f"{path}:{lineno}: duplicate config key {key!r}")
        entries[key] = value
    return entries


def _resolve_config(args: argparse.Namespace) -> tuple[ProtocolConfig, AgePolicy]:
    """Protocol and issuance settings: defaults, then the file's config_keys, then flags."""
    entries = _parse_config_file(args.config) if args.config is not None else {}
    entries = {key: value for key, value in entries.items() if key in args.config_keys}
    fields: dict[type, dict[str, object]] = {ProtocolConfig: {}, AgePolicy: {}}
    try:
        for key, (flag, owner, name, parse) in _SETTINGS.items():
            value = vars(args).get(flag)
            if value is None:
                value = entries.get(key)
            if value is not None:
                fields[owner][name] = parse(value)
        return ProtocolConfig(**fields[ProtocolConfig]), AgePolicy(**fields[AgePolicy])
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc


def _run_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed & SEED_MASK
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed={seed}")
    return seed


def _clock(args: argparse.Namespace) -> int:
    """--clock, or else the current time, in unix seconds.

    The ASP reads the clock as a UTC calendar date and the credential
    stores it unsigned, so it must fall between 1970 and the end of 9999.
    """
    clock = args.clock if args.clock is not None else int(time.time())
    if not 0 <= clock <= LATEST_CLOCK:
        raise CliError(f"clock must be in [0, {LATEST_CLOCK}] (1970 to 9999), got {clock}")
    return clock


def _liveness(args: argparse.Namespace):
    return AlwaysFail() if args.liveness == "fail" else AlwaysPass()


def _write_files(files: list[tuple[Path, bytes, int]]) -> None:
    """Replace each (path, data, mode) file, created under mode less the umask.
    All are written to temporary files before any is renamed into place, so
    a failed write leaves every target as it was, and no temporary file."""
    temps: list[Path] = []
    try:
        for path, data, mode in files:
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
            out = open(temp, "xb", opener=lambda name, flags: os.open(name, flags, mode))
            temps.append(temp)
            with out:
                out.write(data)
        for temp, (path, _, _) in zip(temps, files):
            os.replace(temp, path)
    except OSError:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _read_key(prefix: str, kind: str) -> bytes:
    """The 32-byte issuer key, in hex in <prefix>.pub ("public") or <prefix>.key ("private")."""
    try:
        key = bytes.fromhex(_read_text(prefix + _KEY_SUFFIX[kind], _KEY_FILE_BYTES).strip())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load issuer {kind} key {prefix!r}: {exc}") from exc
    if len(key) != 32:
        raise CliError(f"issuer {kind} key must be 32 bytes, got {len(key)}")
    return key


def cmd_asp_keygen(args: argparse.Namespace) -> int:
    pub_path, key_path = (Path(args.out + _KEY_SUFFIX[kind]) for kind in ("public", "private"))
    if not args.force:
        existing = [str(p) for p in (pub_path, key_path) if p.exists()]
        if existing:
            raise CliError(f"refusing to overwrite {', '.join(existing)} (use --force)")
    keys = generate_issuer_keys(args.seed)
    try:
        _write_files([(pub_path, f"{keys.public.hex()}\n".encode(), 0o666),
                      (key_path, f"{keys.private.hex()}\n".encode(), 0o600)])
    except OSError as exc:
        raise CliError(f"cannot write key files: {exc}") from exc
    print(f"public={keys.public.hex()}")
    print(f"wrote {pub_path} and {key_path}")
    return EXIT_OK


def cmd_enroll(args: argparse.Namespace) -> int:
    cfg, policy = _resolve_config(args)
    cfg = replace(cfg, liveness=_liveness(args))
    asp = InProcessAsp(IssuerKeyPair(_read_key(args.keys, "private")), policy, now=_clock(args))
    identity = new_identity(args.identity_seed)
    record = device_enroll(identity, asp, cfg, args.seed, evidence=DateOfBirthEvidence(args.dob))
    data = encode_record(record)
    try:
        if os.path.basename(args.out) in ("", ".", ".."):  # Path would drop a trailing / or .
            raise IsADirectoryError(f"no file name in {args.out!r}")
        _write_files([(Path(args.out), data, 0o600)])
    except OSError as exc:
        raise CliError(f"cannot write record: {exc}") from exc
    print(
        f"enrolled: record={args.out} bytes={len(data)} "
        f"code=({CODE.n},{CODE.k},{CODE.t})"
    )
    return EXIT_OK


def _read_record_file(path: str):
    try:
        return decode_record(_read_head(path, RECORD_BYTES))
    except OSError as exc:
        raise CliError(f"cannot read record: {exc}") from exc
    except FormatError as exc:
        raise CliError(f"bad record: {exc}") from exc


def cmd_auth(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    now = _clock(args)
    if not 0 < args.required_age < MAX_AGE_OVER:
        raise CliError(f"required age must be in (0, {MAX_AGE_OVER}), got {args.required_age}")
    record = _read_record_file(args.record)
    issuer_public = _read_key(args.keys, "public")
    seed = _run_seed(args)

    if args.impostor:
        sample = sample_impostor(seed)
    else:
        sample = sample_genuine(new_identity(args.identity_seed), NoiseModel(cfg.sigma), seed)

    cred = device_authenticate(sample, record, _liveness(args))
    print(
        f"credential: issuer={cred.issuer_id.hex()} subject={cred.subject_id.hex()} "
        f"age_over={cred.age_over} issued_at={cred.issued_at} expires_at={cred.expires_at}"
    )
    decision = rp_check_access(cred, issuer_public, now, args.required_age)
    if decision.granted:
        print(f"GRANT age_over={cred.age_over}")
        return EXIT_OK
    assert decision.reason is not None
    print(f"DENY {decision.reason.value}")
    return EXIT_RP_DENIED


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        sigmas = [NoiseModel(float(part)).sigma for part in args.sigmas.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad sigma list: {exc}") from exc
    if not sigmas:
        raise CliError("sigma list is empty")
    if args.trials <= 0:
        # sweep checks this too, but the CSV is opened before sweep runs.
        raise CliError("trials must be positive")
    try:
        with open(args.out, "w") as sink:
            seed = _run_seed(args)  # printed only once the CSV is open
            sweep(ProtocolConfig(), sigmas, args.trials, seed, sink)
    except OSError as exc:
        raise CliError(f"cannot write CSV: {exc}") from exc
    print(f"wrote {args.out} rows={len(sigmas)} seed={seed}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    record = _read_record_file(args.record)
    print(f"record: {args.record}")
    print(f"helper_version={HELPER_VERSION}")
    print(f"code: n={CODE.n} k={CODE.k} t={CODE.t}")
    print(f"dim={DEFAULT_DIM}")
    print(f"digest={record.digest.digest.hex()}")
    print(f"ciphertext_bytes={len(record.bound.ciphertext)}")
    return EXIT_OK


def _add_seed(parser: argparse.ArgumentParser, secrets: bool = False) -> None:
    text = ("64-bit seed every key and secret is then a function of, fit only for "
            "reproducible experiments; without it they come from the OS and nothing "
            "is printed" if secrets else "64-bit run seed; drawn and printed when omitted")
    parser.add_argument("--seed", type=int, default=None, help=text)


def _add_clock(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clock", type=int, default=None,
                        help="override the current time (unix seconds)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbcreds",
        description="Biometric-bound age credentials: enrollment, "
                    "authentication, and evaluation.",
        epilog="Ages use calendar dates in UTC with the inclusive-birthday "
               "rule: on the day someone turns N they count as N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("asp-keygen", help="generate the issuer signing keypair")
    keygen.add_argument("--out", required=True, help="path prefix for .pub/.key files")
    keygen.add_argument("--force", action="store_true", help="overwrite existing files")
    _add_seed(keygen, secrets=True)
    keygen.set_defaults(handler=cmd_asp_keygen)

    enroll = sub.add_parser("enroll", help="enroll an identity and bind a credential")
    enroll.add_argument("--keys", required=True, help="issuer key path prefix (.key used)")
    enroll.add_argument("--identity-seed", type=int, required=True,
                        help="seed of the synthetic identity to enroll")
    enroll.add_argument("--dob", type=date.fromisoformat, required=True,
                        help="claimed date of birth, YYYY-MM-DD")
    enroll.add_argument("--out", required=True, help="output record path (.bbc)")
    enroll.add_argument("--sigma", type=float, default=None, help="capture noise level")
    enroll.add_argument("--threshold", type=int, default=None,
                        help="age threshold the issuer certifies")
    enroll.add_argument("--liveness", choices=["pass", "fail"], default="pass")
    _add_seed(enroll, secrets=True)
    _add_clock(enroll)
    enroll.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")
    enroll.set_defaults(handler=cmd_enroll, config_keys=_SETTINGS)

    auth = sub.add_parser("auth", help="authenticate against a record and query the RP")
    auth.add_argument("--record", required=True, help="device record path")
    auth.add_argument("--keys", required=True, help="issuer key path prefix (.pub used)")
    auth.add_argument("--identity-seed", type=int, default=0,
                      help="seed of the identity supplying the sample")
    auth.add_argument("--impostor", action="store_true",
                      help="sample an independent identity instead")
    auth.add_argument("--sigma", type=float, default=None, help="capture noise level")
    auth.add_argument("--required-age", type=int, default=18,
                      help="age threshold the relying party demands")
    auth.add_argument("--liveness", choices=["pass", "fail"], default="pass")
    _add_seed(auth)
    _add_clock(auth)
    auth.add_argument("--config", default=None,
                      help=f"key=value config file; auth reads only {', '.join(_AUTH_KEYS)} "
                           "(--sigma takes precedence)")
    auth.set_defaults(handler=cmd_auth, config_keys=_AUTH_KEYS)

    evaluate = sub.add_parser("eval", help="run the FRR/FAR sweep and write CSV")
    evaluate.add_argument("--sigmas", required=True,
                          help="comma-separated noise levels, e.g. 0.001,0.003")
    evaluate.add_argument("--trials", type=int, default=1000, help="trials per rate")
    evaluate.add_argument("--out", required=True, help="output CSV path")
    _add_seed(evaluate)
    evaluate.set_defaults(handler=cmd_eval)

    inspect = sub.add_parser("inspect", help="print record metadata without decrypting")
    inspect.add_argument("--record", required=True, help="device record path")
    inspect.set_defaults(handler=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except LivenessFailed as exc:
        print(f"liveness check failed: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    except IssuanceDenied as exc:
        print(f"issuance denied: {exc.reason.value}", file=sys.stderr)
        return EXIT_ISSUANCE_DENIED
    except (ExtractFailure, AuthFailure) as exc:
        print(f"authentication failed: {exc.stage}", file=sys.stderr)
        return EXIT_AUTH_FAILED


if __name__ == "__main__":
    sys.exit(main())
