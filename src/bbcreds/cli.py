"""Command-line driver for the age-credential protocol.

Subcommands cover the full lifecycle: issuer key generation, enrollment
against an in-process ASP, device authentication plus the relying-party
decision, record inspection, and the FRR/FAR evaluation sweep.

Exit codes: 0 success, 2 usage/I-O/format problems, 3 issuance denied,
4 liveness rejection, 5 authentication failure, 6 relying-party denial.
Every source of randomness flows from --seed; when omitted, a seed is
drawn and printed so the run can be reproduced afterwards.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from datetime import date, datetime, timezone
from pathlib import Path

from .binding import AuthFailure, SketchVariant
from .credential import IssuerKeyPair, generate_issuer_keys
from .ecc import CodeParams
from .evaluate import sweep
from .fextract import ExtractFailure
from .kdf import SEED_MASK
from .parties import (
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

_CONFIG_KEYS = {
    "dim",
    "code_n",
    "code_k",
    "code_t",
    "variant",
    "sigma_default",
    "age_threshold",
    "validity_seconds",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
        entries[key] = value
    return entries


def _parse_variant(value: str) -> SketchVariant:
    try:
        return SketchVariant[value.upper()]
    except KeyError:
        raise CliError(f"unknown sketch variant {value!r} (use xor or encrypted)") from None


def _resolve_config(args: argparse.Namespace) -> tuple[ProtocolConfig, AgePolicy]:
    """Protocol and issuance settings: defaults, then the config file, then flags."""
    settings: dict[str, object] = (
        _parse_config_file(args.config) if getattr(args, "config", None) else {}
    )
    flags = {"sigma_default": "sigma", "age_threshold": "threshold", "variant": "variant"}
    for key, flag in flags.items():
        if getattr(args, flag, None) is not None:
            settings[key] = getattr(args, flag)
    protocol, policy = ProtocolConfig(), AgePolicy()
    protocol_fields: dict[str, object] = {}
    policy_fields: dict[str, object] = {}
    try:
        if "dim" in settings:
            protocol_fields["dim"] = int(settings["dim"])
        if {"code_n", "code_k", "code_t"} & settings.keys():
            protocol_fields["code"] = CodeParams(
                int(settings.get("code_n", protocol.code.n)),
                int(settings.get("code_k", protocol.code.k)),
                int(settings.get("code_t", protocol.code.t)),
            )
        if "variant" in settings:
            protocol_fields["sketch_variant"] = _parse_variant(str(settings["variant"]))
        if "sigma_default" in settings:
            protocol_fields["sigma"] = float(settings["sigma_default"])
        if "age_threshold" in settings:
            policy_fields["threshold"] = int(settings["age_threshold"])
        if "validity_seconds" in settings:
            policy_fields["validity_seconds"] = int(settings["validity_seconds"])
        return replace(protocol, **protocol_fields), replace(policy, **policy_fields)
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
    latest = int(datetime.max.replace(tzinfo=timezone.utc).timestamp())
    if not 0 <= clock <= latest:
        raise CliError(f"clock must be in [0, {latest}] (1970 to 9999), got {clock}")
    return clock


def _liveness(args: argparse.Namespace):
    return AlwaysFail() if args.liveness == "fail" else AlwaysPass()


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
    keys = generate_issuer_keys(_run_seed(args))
    try:
        pub_path.write_text(keys.public.hex() + "\n")
        key_path.write_text(keys.private.hex() + "\n")
    except OSError as exc:
        raise CliError(f"cannot write key files: {exc}") from exc
    print(f"public={keys.public.hex()}")
    print(f"wrote {pub_path} and {key_path}")
    return EXIT_OK


def cmd_enroll(args: argparse.Namespace) -> int:
    cfg, policy = _resolve_config(args)
    cfg = replace(cfg, liveness=_liveness(args))
    keys = _load_issuer_keys(args.keys)
    seed = _run_seed(args)
    asp = InProcessAsp(keys, policy, now=_clock(args))
    profile = new_identity(args.identity_seed, cfg.dim)
    try:
        record = device_enroll(
            profile, asp, cfg, seed, evidence=DateOfBirthEvidence(args.dob)
        )
    except LivenessFailed as exc:
        print(f"liveness check failed: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    except IssuanceDenied as exc:
        print(f"issuance denied: {exc.reason.value}", file=sys.stderr)
        return EXIT_ISSUANCE_DENIED

    data = encode_record(record)
    try:
        Path(args.out).write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write record: {exc}") from exc
    print(
        f"enrolled: record={args.out} bytes={len(data)} "
        f"code=({cfg.code.n},{cfg.code.k},{cfg.code.t}) variant={cfg.sketch_variant.name}"
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
    record = _read_record_file(args.record)
    issuer_public = _load_issuer_public(args.keys)
    seed = _run_seed(args)
    dim = record.helper.quant.dim

    if args.impostor:
        sample = sample_impostor(seed, dim)
    else:
        profile = new_identity(args.identity_seed, dim)
        sample = sample_genuine(profile, NoiseModel(cfg.sigma), seed)

    try:
        cred = device_authenticate(sample, record, _liveness(args))
    except LivenessFailed as exc:
        print(f"liveness check failed: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    except ExtractFailure:
        print("authentication failed: Extract", file=sys.stderr)
        return EXIT_AUTH_FAILED
    except AuthFailure as exc:
        print(f"authentication failed: {exc.reason.value}", file=sys.stderr)
        return EXIT_AUTH_FAILED

    print(
        f"credential: issuer={cred.issuer_id.hex()} subject={cred.subject_id.hex()} "
        f"age_over={cred.age_over} issued_at={cred.issued_at} expires_at={cred.expires_at}"
    )
    decision = rp_check_access(cred, issuer_public, _clock(args), args.required_age)
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
        # Checked here, not only by wilson_interval, so no CSV is left behind.
        raise CliError("trials must be positive")
    seed = _run_seed(args)
    try:
        with open(args.out, "w") as sink:
            rows = sweep(cfg, sigmas, args.trials, seed, sink)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot write CSV: {exc}") from exc
    print(f"wrote {args.out} rows={len(rows)} seed={seed}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    record = _read_record_file(args.record)
    helper = record.helper
    print(f"record: {args.record}")
    print(f"helper_version={helper.version}")
    print(f"code: n={helper.code.n} k={helper.code.k} t={helper.code.t}")
    print(f"dim={helper.quant.dim}")
    print(f"sketch_variant={record.sketch.variant.name}")
    print(f"digest={record.digest.digest.hex()}")
    print(f"ciphertext_bytes={len(record.bound.ciphertext)}")
    return EXIT_OK


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit run seed; drawn and printed when omitted")


def _add_clock(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clock", type=int, default=None,
                        help="override the current time (unix seconds)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")


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
    _add_seed(keygen)
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
    enroll.add_argument("--variant", choices=["xor", "encrypted"], default=None,
                        help="sketch protection variant")
    enroll.add_argument("--liveness", choices=["pass", "fail"], default="pass")
    _add_seed(enroll)
    _add_clock(enroll)
    _add_config(enroll)
    enroll.set_defaults(handler=cmd_enroll)

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
    _add_config(auth)
    auth.set_defaults(handler=cmd_auth)

    evaluate = sub.add_parser("eval", help="run the FRR/FAR sweep and write CSV")
    evaluate.add_argument("--sigmas", required=True,
                          help="comma-separated noise levels, e.g. 0.001,0.003")
    evaluate.add_argument("--trials", type=int, default=1000, help="trials per rate")
    evaluate.add_argument("--out", required=True, help="output CSV path")
    _add_seed(evaluate)
    _add_config(evaluate)
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


if __name__ == "__main__":
    sys.exit(main())
