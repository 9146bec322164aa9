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
import tempfile
import time
from dataclasses import replace
from datetime import date
from pathlib import Path

from .binding import AuthFailure
from .credential import MAX_AGE_OVER, IssuerKeyPair, generate_issuer_keys
from .evaluate import sweep
from .fextract import HELPER_VERSION, ExtractFailure
from .kdf import SEED_MASK
from .parties import (
    DEFAULT_CODE,
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
from .store import FormatError, decode_record, encode_record
from .synthbio import NoiseModel, new_identity, sample_genuine, sample_impostor

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
    "dim": (None, ProtocolConfig, "dim", int),
    "sigma_default": ("sigma", ProtocolConfig, "sigma", float),
    "age_threshold": ("threshold", AgePolicy, "threshold", int),
    "validity_seconds": (None, AgePolicy, "validity_seconds", int),
}
# code_n and code_t set ProtocolConfig.code, a missing one keeping its
# default; code_k may be left out, and when given must be the k they fix.
_CODE_KEYS = ("code_n", "code_k", "code_t")
_CONFIG_KEYS = {*_SETTINGS, *_CODE_KEYS}
# Every subcommand refuses a key unknown to all of them, as they share one
# file, but resolves only the keys it reads (its parser's config_keys).
_AUTH_KEYS = ("sigma_default",)
_EVAL_KEYS = ("dim", *_CODE_KEYS)


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise CliError(f"{path}:{lineno}: duplicate config key {key!r}")
        entries[key] = value
    return entries


def _resolve_config(args: argparse.Namespace) -> tuple[ProtocolConfig, AgePolicy]:
    """Protocol and issuance settings: defaults, then the file's config_keys, then flags."""
    entries = _parse_config_file(args.config) if args.config else {}
    entries = {key: value for key, value in entries.items() if key in args.config_keys}
    fields: dict[type, dict[str, object]] = {ProtocolConfig: {}, AgePolicy: {}}
    try:
        code = {key.removeprefix("code_"): int(entries[key])
                for key in _CODE_KEYS if key in entries}
        k = code.pop("k", None)
        fields[ProtocolConfig]["code"] = params = replace(DEFAULT_CODE, **code)
        if k is not None:
            params.check_k(k)
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


def _write_owner_only(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` under mode 0o600, whatever its old mode.

    ``mkstemp`` creates the temporary file owner-only next to the target,
    and one rename puts it in place, so a failed write leaves the target
    as it was and removes the temporary file."""
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        os.replace(temp, path)
    except OSError:
        os.unlink(temp)
        raise


def _key_paths(prefix: str) -> tuple[Path, Path]:
    return Path(prefix + ".pub"), Path(prefix + ".key")


def _load_issuer_keys(prefix: str) -> IssuerKeyPair:
    pub_path, key_path = _key_paths(prefix)
    try:
        public = bytes.fromhex(pub_path.read_text().strip())
        private = bytes.fromhex(key_path.read_text().strip())
        return IssuerKeyPair(public=public, private=private)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load issuer keys {prefix!r}: {exc}") from exc


def _load_issuer_public(prefix: str) -> bytes:
    pub_path, _ = _key_paths(prefix)
    try:
        public = bytes.fromhex(pub_path.read_text().strip())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load issuer public key {prefix!r}: {exc}") from exc
    if len(public) != 32:
        raise CliError(f"issuer public key must be 32 bytes, got {len(public)}")
    return public


def cmd_asp_keygen(args: argparse.Namespace) -> int:
    pub_path, key_path = _key_paths(args.out)
    if not args.force:
        existing = [str(p) for p in (pub_path, key_path) if p.exists()]
        if existing:
            raise CliError(f"refusing to overwrite {', '.join(existing)} (use --force)")
    keys = generate_issuer_keys(args.seed)
    try:
        pub_path.write_text(keys.public.hex() + "\n")
        _write_owner_only(key_path, (keys.private.hex() + "\n").encode())
    except OSError as exc:
        raise CliError(f"cannot write key files: {exc}") from exc
    print(f"public={keys.public.hex()}")
    print(f"wrote {pub_path} and {key_path}")
    return EXIT_OK


def cmd_enroll(args: argparse.Namespace) -> int:
    cfg, policy = _resolve_config(args)
    cfg = replace(cfg, liveness=_liveness(args))
    keys = _load_issuer_keys(args.keys)
    asp = InProcessAsp(keys, policy, now=_clock(args))
    identity = new_identity(args.identity_seed, cfg.dim)
    record = device_enroll(identity, asp, cfg, args.seed, evidence=DateOfBirthEvidence(args.dob))
    data = encode_record(record)
    try:
        _write_owner_only(Path(args.out), data)
    except OSError as exc:
        raise CliError(f"cannot write record: {exc}") from exc
    print(
        f"enrolled: record={args.out} bytes={len(data)} "
        f"code=({cfg.code.n},{cfg.code.k},{cfg.code.t})"
    )
    return EXIT_OK


def _read_record_file(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read record: {exc}") from exc
    try:
        return decode_record(data)
    except FormatError as exc:
        raise CliError(f"bad record: {exc}") from exc


def cmd_auth(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    now = _clock(args)
    if not 0 < args.required_age < MAX_AGE_OVER:
        raise CliError(f"required age must be in (0, {MAX_AGE_OVER}), got {args.required_age}")
    record = _read_record_file(args.record)
    issuer_public = _load_issuer_public(args.keys)
    seed = _run_seed(args)
    dim = record.helper.quant.dim

    if args.impostor:
        sample = sample_impostor(seed, dim)
    else:
        sample = sample_genuine(new_identity(args.identity_seed, dim), NoiseModel(cfg.sigma), seed)

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
    cfg, _ = _resolve_config(args)
    try:
        sigmas = [NoiseModel(float(part)).sigma for part in args.sigmas.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad sigma list: {exc}") from exc
    if not sigmas:
        raise CliError("sigma list is empty")
    if args.trials <= 0:
        # sweep checks this too, but the CSV is opened before sweep runs.
        raise CliError("trials must be positive")
    seed = _run_seed(args)
    try:
        with open(args.out, "w") as sink:
            sweep(cfg, sigmas, args.trials, seed, sink)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot write CSV: {exc}") from exc
    print(f"wrote {args.out} rows={len(sigmas)} seed={seed}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    record = _read_record_file(args.record)
    helper = record.helper
    print(f"record: {args.record}")
    print(f"helper_version={HELPER_VERSION}")
    print(f"code: n={helper.code.n} k={helper.code.k} t={helper.code.t}")
    print(f"dim={helper.quant.dim}")
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
    enroll.add_argument("--keys", required=True, help="issuer key path prefix")
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
                        help="key=value config file; flags take precedence, and "
                             "code_k may be left out, as code_n and code_t determine it")
    enroll.set_defaults(handler=cmd_enroll, config_keys=_CONFIG_KEYS)

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
                           "(--sigma takes precedence), as the record holds dim and code")
    auth.set_defaults(handler=cmd_auth, config_keys=_AUTH_KEYS)

    evaluate = sub.add_parser("eval", help="run the FRR/FAR sweep and write CSV")
    evaluate.add_argument("--sigmas", required=True,
                          help="comma-separated noise levels, e.g. 0.001,0.003")
    evaluate.add_argument("--trials", type=int, default=1000, help="trials per rate")
    evaluate.add_argument("--out", required=True, help="output CSV path")
    _add_seed(evaluate)
    evaluate.add_argument("--config", default=None,
                          help=f"key=value config file; eval reads only {', '.join(_EVAL_KEYS)} "
                               "(--sigmas sets the noise levels)")
    evaluate.set_defaults(handler=cmd_eval, config_keys=_EVAL_KEYS)

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
