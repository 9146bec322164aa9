"""Three-party protocol simulation: issuer (ASP), device, relying party.

The device captures a sample of an identity's reference embedding, gates
it on liveness, derives the stable key, asks the ASP for an age
credential, and binds it locally. Enrollment hands out the
``DeviceRecord`` and nothing else: the stable key and secret never leave
``device_enroll``. What reaches the ASP is the ``IssuanceRequest`` object
itself (subject id, evidence, nonce); there is no byte encoding of it.
Post issuance, authentication is entirely device-local and the relying
party sees only the recovered credential.

The ASP is reached through anything with a ``handle(IssuanceRequest) ->
AgeCred`` method that raises ``IssuanceDenied`` on refusal;
``InProcessAsp`` is that implementation.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import ClassVar, Protocol, Union

from .binding import bind_enroll, unbind_auth
from .credential import (
    MAX_AGE_OVER,
    AgeCred,
    IssuerKeyPair,
    Verdict,
    issue_agecred,
    verify_agecred,
)
from .ecc import CodeParams
from .fextract import fe_generate, fe_reproduce
from .kdf import expand_seed, subseed
from .quantize import QuantizerConfig
from .store import DeviceRecord
from .synthbio import DEFAULT_DIM, Embedding, NoiseModel, sample_genuine

__all__ = [
    "DEFAULT_CODE",
    "SIGMA_DEFAULT",
    "ProtocolConfig",
    "AlwaysPass",
    "AlwaysFail",
    "LivenessPolicy",
    "LivenessFailed",
    "DateOfBirthEvidence",
    "AlwaysApproveEvidence",
    "Evidence",
    "IssuanceRequest",
    "DenyReason",
    "IssuanceDenied",
    "AgePolicy",
    "age_in_years",
    "AspAccess",
    "LATEST_CLOCK",
    "InProcessAsp",
    "device_enroll",
    "device_authenticate",
    "rp_check_access",
]

# Production operating point. The code is the largest-t length-511 BCH code
# that still carries 256 key bits; sigma is calibrated with the evaluation
# sweep as the largest grid value whose FRR Wilson-95 upper bound stays
# under 1% (see the calibration entry in CHANGES.md).
DEFAULT_CODE = CodeParams(n=511, t=30)
SIGMA_DEFAULT = 0.003


# --- liveness gate -----------------------------------------------------------


@dataclass(frozen=True)
class AlwaysPass:
    passes: ClassVar[bool] = True


@dataclass(frozen=True)
class AlwaysFail:
    passes: ClassVar[bool] = False


LivenessPolicy = Union[AlwaysPass, AlwaysFail]


class LivenessFailed(Exception):
    """The sample was not accepted as coming from a present person."""

    stage = "Liveness"


def _require_liveness(policy: LivenessPolicy) -> None:
    """The device's liveness gate: raises LivenessFailed unless the policy passes."""
    if not policy.passes:
        raise LivenessFailed(f"policy {type(policy).__name__}")


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


class AspAccess(Protocol):
    def handle(self, req: IssuanceRequest) -> AgeCred: ...


# 9999-12-31 23:59:59 UTC, the last second datetime can read. Computed
# through a float timestamp it would round up to 253402300800, year 10000.
LATEST_CLOCK = 253402300799


class InProcessAsp:
    """Default issuance access: a local ASP with a fixed clock.

    The clock is read as a UTC calendar date and stored in the credential
    unsigned, so it must lie in [0, LATEST_CLOCK]; any other value raises
    ValueError here, whatever evidence a request later carries. The replay
    set is the only mutable state; it is updated under a lock so the
    handler is safe for concurrent requests.
    """

    def __init__(self, keys: IssuerKeyPair, policy: AgePolicy, now: int):
        if not 0 <= now <= LATEST_CLOCK:
            raise ValueError(f"clock must be in [0, {LATEST_CLOCK}], got {now}")
        self._keys = keys
        self._policy = policy
        self._now = now
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    def handle(self, req: IssuanceRequest) -> AgeCred:
        """Check the request and sign a credential, or raise IssuanceDenied.

        The checks run in this order: the nonce is refused if seen before
        and is otherwise recorded, under the lock, so a refused request
        still uses it up; then the evidence is checked; then the
        credential is signed. Date-of-birth evidence is evaluated against
        the policy threshold with the inclusive-birthday rule in UTC; on
        your 18th birthday you are 18.
        """
        with self._lock:
            if req.request_nonce in self._seen:
                raise IssuanceDenied(DenyReason.REPLAYED_NONCE)
            self._seen.add(req.request_nonce)
        if isinstance(req.evidence, DateOfBirthEvidence):
            today = datetime.fromtimestamp(self._now, tz=timezone.utc).date()
            if req.evidence.dob > today:
                raise IssuanceDenied(DenyReason.BAD_EVIDENCE)
            if age_in_years(req.evidence.dob, today) < self._policy.threshold:
                raise IssuanceDenied(DenyReason.UNDER_AGE)
        elif not isinstance(req.evidence, AlwaysApproveEvidence):
            raise IssuanceDenied(DenyReason.BAD_EVIDENCE)
        return issue_agecred(
            self._keys,
            subject_id=req.subject_id,
            age_over=self._policy.threshold,
            issued_at=self._now,
            validity_seconds=self._policy.validity_seconds,
        )


# --- device role --------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Device-side parameters for enrollment and authentication."""

    dim: int = DEFAULT_DIM
    code: CodeParams = DEFAULT_CODE
    sigma: float = SIGMA_DEFAULT
    liveness: LivenessPolicy = field(default_factory=AlwaysPass)

    def __post_init__(self) -> None:
        NoiseModel(self.sigma)  # the one bound on sigma
        QuantizerConfig(self.dim, self.code.n)  # the one bound on dim


def device_enroll(
    identity: Embedding,
    asp: AspAccess,
    cfg: ProtocolConfig,
    rng_seed: int | None,
    evidence: Evidence = AlwaysApproveEvidence(),
) -> DeviceRecord:
    """Full enrollment of the identity with reference embedding ``identity``:
    capture, liveness gate, key generation, issuance, binding. Returns the
    four retained artifacts and nothing else; the stable key and secret are
    dropped on exit. A seed makes every draw a function of its 64 bits, for
    reproducible experiments; None draws them all from the OS's entropy.
    """
    if identity.dim != cfg.dim:
        raise ValueError(f"identity has dim {identity.dim}, config has dim {cfg.dim}")
    capture = sample_genuine(
        identity, NoiseModel(cfg.sigma), subseed(rng_seed, "bbcreds/device/capture/v1")
    )
    _require_liveness(cfg.liveness)
    key, helper = fe_generate(capture, cfg.code, subseed(rng_seed, "bbcreds/device/fe/v1"))

    request = IssuanceRequest(
        subject_id=expand_seed(rng_seed, "bbcreds/device/subject/v1", 16),
        evidence=evidence,
        request_nonce=expand_seed(rng_seed, "bbcreds/device/nonce/v1", 16),
    )
    cred = asp.handle(request)

    sketch, digest, bound = bind_enroll(key, cred, subseed(rng_seed, "bbcreds/device/bind/v1"))
    return DeviceRecord(helper=helper, sketch=sketch, digest=digest, bound=bound)


def device_authenticate(
    sample: Embedding,
    record: DeviceRecord,
    liveness: LivenessPolicy,
) -> AgeCred:
    """Device-local authentication; never contacts the ASP.

    Raises LivenessFailed, ExtractFailure or AuthFailure from the first
    stage that rejects, with that stage's name in ``stage``.
    """
    _require_liveness(liveness)
    key = fe_reproduce(sample, record.helper)
    return unbind_auth(key, record.sketch, record.digest, record.bound)


# --- relying-party role -------------------------------------------------------


def rp_check_access(
    cred: AgeCred,
    issuer_public: bytes,
    now: int,
    required_age_over: int,
) -> Verdict:
    """Relying-party decision: grant iff the credential verifies."""
    return verify_agecred(cred, issuer_public, now, required_age_over)
