"""Three-party protocol simulation: issuer (ASP), device, relying party.

The device captures a sample, gates it on liveness, derives the stable
key, asks the ASP for an age credential, and binds it locally; the only
bytes that ever cross to the ASP are the issuance request fields. Post
issuance, authentication is entirely device-local and the relying party
sees only the recovered credential.

The ASP is reached through anything with a ``handle(IssuanceRequest) ->
AgeCred`` method that raises ``IssuanceDenied`` on refusal;
``InProcessAsp`` is that implementation.
"""

from __future__ import annotations

import enum
import struct
import threading
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Callable, Protocol, Union

from .binding import (
    BoundCredential,
    Sketch,
    SketchVariant,
    StableSecret,
    bind_enroll,
    derive_stable_secret,
    unbind_auth,
)
from .credential import (
    MAX_AGE_OVER,
    AgeCred,
    IssuerKeyPair,
    RejectReason,
    issue_agecred,
    verify_agecred,
)
from .ecc import CodeParams
from .fextract import StableKey, fe_generate, fe_reproduce
from .kdf import expand_seed, subseed
from .quantize import QuantizerConfig
from .store import DeviceRecord
from .synthbio import DEFAULT_DIM, MIN_DIM, Embedding, IdentityProfile, NoiseModel, sample_genuine

__all__ = [
    "DEFAULT_CODE",
    "SIGMA_DEFAULT",
    "REQUEST_VERSION",
    "ProtocolConfig",
    "AlwaysPass",
    "AlwaysFail",
    "LivenessPolicy",
    "liveness_check",
    "LivenessFailed",
    "DateOfBirthEvidence",
    "AlwaysApproveEvidence",
    "Evidence",
    "IssuanceRequest",
    "DenyReason",
    "IssuanceDenied",
    "AgePolicy",
    "age_in_years",
    "asp_handle_issuance",
    "AspAccess",
    "InProcessAsp",
    "AccessDecision",
    "device_enroll",
    "device_authenticate",
    "rp_check_access",
    "encode_issuance_request",
]

# Production operating point. The code is the largest-t length-511 BCH code
# that still carries 256 key bits; sigma is calibrated with the evaluation
# sweep as the largest grid value whose FRR Wilson-95 upper bound stays
# under 1% (see the calibration entry in CHANGES.md).
DEFAULT_CODE = CodeParams(n=511, k=259, t=30)
SIGMA_DEFAULT = 0.003

REQUEST_VERSION = 1


# --- liveness gate -----------------------------------------------------------


@dataclass(frozen=True)
class AlwaysPass:
    pass


@dataclass(frozen=True)
class AlwaysFail:
    pass


LivenessPolicy = Union[AlwaysPass, AlwaysFail]


class LivenessFailed(Exception):
    """The sample was not accepted as coming from a present person."""


def liveness_check(policy: LivenessPolicy) -> bool:
    """Whether the policy accepts this capture as coming from a present person."""
    if isinstance(policy, AlwaysPass):
        return True
    if isinstance(policy, AlwaysFail):
        return False
    raise TypeError(f"unknown liveness policy {policy!r}")


# --- issuance (ASP role) -----------------------------------------------------


@dataclass(frozen=True)
class DateOfBirthEvidence:
    """Mock age evidence: a claimed date of birth, taken at face value."""

    dob: date


@dataclass(frozen=True)
class AlwaysApproveEvidence:
    """Mock stand-in for out-of-band channels that always verify."""


Evidence = Union[DateOfBirthEvidence, AlwaysApproveEvidence]


@dataclass(frozen=True)
class IssuanceRequest:
    subject_id: bytes
    evidence: Evidence
    request_nonce: bytes

    def __post_init__(self) -> None:
        if len(self.subject_id) != 16:
            raise ValueError("subject_id must be 16 bytes")
        if len(self.request_nonce) != 16:
            raise ValueError("request_nonce must be 16 bytes")


class DenyReason(enum.Enum):
    UNDER_AGE = "UnderAge"
    BAD_EVIDENCE = "BadEvidence"
    REPLAYED_NONCE = "ReplayedNonce"


class IssuanceDenied(Exception):
    def __init__(self, reason: DenyReason):
        super().__init__(reason.value)
        self.reason = reason


@dataclass(frozen=True)
class AgePolicy:
    threshold: int = 18
    validity_seconds: int = 365 * 86400

    def __post_init__(self) -> None:
        if not 0 < self.threshold < MAX_AGE_OVER:
            raise ValueError(f"threshold must be in (0, {MAX_AGE_OVER}), got {self.threshold}")
        # Below 2^63, expires_at = issued_at + validity_seconds fits the
        # credential's unsigned 64-bit field for any issuance clock below 2^63.
        if not 0 < self.validity_seconds < 1 << 63:
            raise ValueError(f"validity_seconds must be in (0, 2^63), got {self.validity_seconds}")


def age_in_years(dob: date, on: date) -> int:
    """Completed years between dob and the given day, birthday inclusive."""
    return on.year - dob.year - ((on.month, on.day) < (dob.month, dob.day))


def asp_handle_issuance(
    req: IssuanceRequest,
    policy: AgePolicy,
    keys: IssuerKeyPair,
    now: int,
) -> AgeCred:
    """Check the age evidence and sign a credential, or raise IssuanceDenied.

    Date-of-birth evidence is evaluated against the policy threshold with
    the inclusive-birthday rule in UTC; on your 18th birthday you are 18.
    Replayed nonces are the caller's to refuse (``InProcessAsp.handle``).
    """
    if isinstance(req.evidence, AlwaysApproveEvidence):
        pass
    elif isinstance(req.evidence, DateOfBirthEvidence):
        today = datetime.fromtimestamp(now, tz=timezone.utc).date()
        if req.evidence.dob > today:
            raise IssuanceDenied(DenyReason.BAD_EVIDENCE)
        if age_in_years(req.evidence.dob, today) < policy.threshold:
            raise IssuanceDenied(DenyReason.UNDER_AGE)
    else:
        raise IssuanceDenied(DenyReason.BAD_EVIDENCE)

    return issue_agecred(
        keys,
        subject_id=req.subject_id,
        age_over=policy.threshold,
        issued_at=now,
        validity_seconds=policy.validity_seconds,
    )


class AspAccess(Protocol):
    def handle(self, req: IssuanceRequest) -> AgeCred: ...


class InProcessAsp:
    """Default issuance access: a local ASP with a fixed clock.

    The replay set is the only mutable state; it is updated under a lock
    so the handler is safe for concurrent requests.
    """

    def __init__(self, keys: IssuerKeyPair, policy: AgePolicy, now: int):
        self._keys = keys
        self._policy = policy
        self._now = now
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    def handle(self, req: IssuanceRequest) -> AgeCred:
        with self._lock:
            if req.request_nonce in self._seen:
                raise IssuanceDenied(DenyReason.REPLAYED_NONCE)
            self._seen.add(req.request_nonce)
        return asp_handle_issuance(req, self._policy, self._keys, self._now)


# --- canonical request encoding ----------------------------------------------

_EVIDENCE_DOB = 1
_EVIDENCE_ALWAYS = 2
_DOB_LAYOUT = struct.Struct(">HBB")
_REQ_HEAD = struct.Struct(">B16sBH")


def encode_issuance_request(req: IssuanceRequest) -> bytes:
    if isinstance(req.evidence, DateOfBirthEvidence):
        tag = _EVIDENCE_DOB
        body = _DOB_LAYOUT.pack(
            req.evidence.dob.year, req.evidence.dob.month, req.evidence.dob.day
        )
    else:
        tag = _EVIDENCE_ALWAYS
        body = b""
    return (
        _REQ_HEAD.pack(REQUEST_VERSION, req.subject_id, tag, len(body))
        + body
        + req.request_nonce
    )


# --- device role --------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Device-side parameters for enrollment and authentication."""

    dim: int = DEFAULT_DIM
    code: CodeParams = DEFAULT_CODE
    sketch_variant: SketchVariant = SketchVariant.XOR
    sigma: float = SIGMA_DEFAULT
    liveness: LivenessPolicy = field(default_factory=AlwaysPass)

    def __post_init__(self) -> None:
        NoiseModel(self.sigma)  # the one bound on sigma
        if self.dim < max(MIN_DIM, self.code.n):
            raise ValueError(
                f"dim must be >= max({MIN_DIM}, code length {self.code.n}), got {self.dim}"
            )

    def quantizer(self) -> QuantizerConfig:
        return QuantizerConfig.default(self.dim, self.code.n)


def device_enroll(
    profile: IdentityProfile,
    asp: AspAccess,
    cfg: ProtocolConfig,
    rng_seed: int,
    evidence: Evidence = AlwaysApproveEvidence(),
    secret_observer: Callable[[StableKey, StableSecret], None] | None = None,
) -> DeviceRecord:
    """Full enrollment: capture, liveness gate, key generation, issuance,
    binding. Returns the four retained artifacts and nothing else; the
    stable key and secret are dropped on exit.

    ``secret_observer`` is test instrumentation: it receives the key and
    secret before they are discarded so tests can assert they leak into
    no output. Production callers leave it unset.
    """
    capture = sample_genuine(
        profile, NoiseModel(cfg.sigma), subseed(rng_seed, "bbcreds/device/capture/v1")
    )
    if not liveness_check(cfg.liveness):
        raise LivenessFailed(f"policy {type(cfg.liveness).__name__}")

    key, helper = fe_generate(
        capture, cfg.code, cfg.quantizer(), subseed(rng_seed, "bbcreds/device/fe/v1")
    )

    request = IssuanceRequest(
        subject_id=expand_seed(rng_seed, "bbcreds/device/subject/v1", 16),
        evidence=evidence,
        request_nonce=expand_seed(rng_seed, "bbcreds/device/nonce/v1", 16),
    )
    cred = asp.handle(request)

    bind_seed = subseed(rng_seed, "bbcreds/device/bind/v1")
    sketch, digest, bound = bind_enroll(
        key, cred, cfg.sketch_variant, bind_seed
    )
    if secret_observer is not None:
        secret_observer(key, derive_stable_secret(bind_seed))
    return DeviceRecord(helper=helper, sketch=sketch, digest=digest, bound=bound)


def device_authenticate(
    sample: Embedding,
    record: DeviceRecord,
    liveness: LivenessPolicy,
) -> AgeCred:
    """Device-local authentication; never contacts the ASP.

    Raises LivenessFailed, ExtractFailure or AuthFailure from the first
    stage that rejects.
    """
    if not liveness_check(liveness):
        raise LivenessFailed(f"policy {type(liveness).__name__}")
    key = fe_reproduce(sample, record.helper)
    return unbind_auth(key, record.sketch, record.digest, record.bound)


# --- relying-party role -------------------------------------------------------


@dataclass(frozen=True)
class AccessDecision:
    granted: bool
    reason: RejectReason | None = None

    def __post_init__(self) -> None:
        if self.granted != (self.reason is None):
            raise ValueError("reason must be present exactly when denied")


def rp_check_access(
    cred: AgeCred,
    issuer_public: bytes,
    now: int,
    required_age_over: int,
) -> AccessDecision:
    """Relying-party decision: grant iff the credential verifies."""
    verdict = verify_agecred(cred, issuer_public, now, required_age_over)
    return AccessDecision(granted=verdict.accepted, reason=verdict.reason)
