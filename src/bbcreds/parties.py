"""Three-party protocol simulation: issuer (ASP), device, relying party.

The device captures a sample, gates it on liveness, derives the stable
key, asks the ASP for an age credential, and binds it locally; the only
bytes that ever cross to the ASP are the issuance request fields. Post
issuance, authentication is entirely device-local and the relying party
sees only the recovered credential.

The ASP transport is an abstract request/response interface: anything
with a ``handle(IssuanceRequest) -> IssuanceResponse`` method works. An
in-process implementation is the default; a framed localhost-socket
adapter uses the canonical wire encodings.
"""

from __future__ import annotations

import enum
import random
import socket
import socketserver
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
    AgeCred,
    ENCODED_LEN,
    IssuerKeyPair,
    RejectReason,
    decode_agecred,
    encode_agecred,
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
    "SeededRandom",
    "LivenessPolicy",
    "liveness_check",
    "LivenessFailed",
    "DateOfBirthEvidence",
    "AlwaysApproveEvidence",
    "Evidence",
    "IssuanceRequest",
    "IssuanceResponse",
    "DenyReason",
    "IssuanceDenied",
    "AgePolicy",
    "age_in_years",
    "asp_handle_issuance",
    "AspAccess",
    "InProcessAsp",
    "AspSocketServer",
    "SocketAspClient",
    "AccessDecision",
    "device_enroll",
    "device_authenticate",
    "rp_check_access",
    "encode_issuance_request",
    "decode_issuance_request",
    "encode_issuance_response",
    "decode_issuance_response",
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


class SeededRandom:
    """Passes a seeded fraction ``rate`` of checks; the draw sequence is a
    pure function of the seed, so runs are reproducible."""

    def __init__(self, rate: float, seed: int):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self._stream = random.Random(seed)

    def draw(self) -> bool:
        return self._stream.random() < self.rate


LivenessPolicy = Union[AlwaysPass, AlwaysFail, SeededRandom]


class LivenessFailed(Exception):
    """The sample was not accepted as coming from a present person."""


def liveness_check(policy: LivenessPolicy) -> bool:
    """Whether the policy accepts this capture as coming from a present person."""
    if isinstance(policy, AlwaysPass):
        return True
    if isinstance(policy, AlwaysFail):
        return False
    if isinstance(policy, SeededRandom):
        return policy.draw()
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


@dataclass(frozen=True)
class IssuanceResponse:
    credential: AgeCred | None = None
    reason: DenyReason | None = None

    def __post_init__(self) -> None:
        if (self.credential is None) == (self.reason is None):
            raise ValueError("exactly one of credential and reason must be set")

    @property
    def issued(self) -> bool:
        return self.credential is not None


class IssuanceDenied(Exception):
    def __init__(self, reason: DenyReason):
        super().__init__(reason.value)
        self.reason = reason


@dataclass(frozen=True)
class AgePolicy:
    threshold: int = 18
    validity_seconds: int = 365 * 86400

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 150:
            raise ValueError(f"threshold must be in (0, 150), got {self.threshold}")
        if self.validity_seconds <= 0:
            raise ValueError("validity_seconds must be positive")


def age_in_years(dob: date, on: date) -> int:
    """Completed years between dob and the given day, birthday inclusive."""
    return on.year - dob.year - ((on.month, on.day) < (dob.month, dob.day))


def asp_handle_issuance(
    req: IssuanceRequest,
    policy: AgePolicy,
    keys: IssuerKeyPair,
    now: int,
) -> IssuanceResponse:
    """Check the age evidence and either sign a credential or deny.

    Date-of-birth evidence is evaluated against the policy threshold with
    the inclusive-birthday rule in UTC; on your 18th birthday you are 18.
    Replayed nonces are the caller's to refuse (``InProcessAsp.handle``).
    """
    if isinstance(req.evidence, AlwaysApproveEvidence):
        pass
    elif isinstance(req.evidence, DateOfBirthEvidence):
        today = datetime.fromtimestamp(now, tz=timezone.utc).date()
        if req.evidence.dob > today:
            return IssuanceResponse(reason=DenyReason.BAD_EVIDENCE)
        if age_in_years(req.evidence.dob, today) < policy.threshold:
            return IssuanceResponse(reason=DenyReason.UNDER_AGE)
    else:
        return IssuanceResponse(reason=DenyReason.BAD_EVIDENCE)

    cred = issue_agecred(
        keys,
        subject_id=req.subject_id,
        age_over=policy.threshold,
        issued_at=now,
        validity_seconds=policy.validity_seconds,
    )
    return IssuanceResponse(credential=cred)


class AspAccess(Protocol):
    def handle(self, req: IssuanceRequest) -> IssuanceResponse: ...


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

    def handle(self, req: IssuanceRequest) -> IssuanceResponse:
        with self._lock:
            if req.request_nonce in self._seen:
                return IssuanceResponse(reason=DenyReason.REPLAYED_NONCE)
            self._seen.add(req.request_nonce)
        return asp_handle_issuance(req, self._policy, self._keys, self._now)


# --- canonical wire encodings ------------------------------------------------

_EVIDENCE_DOB = 1
_EVIDENCE_ALWAYS = 2
_DOB_LAYOUT = struct.Struct(">HBB")
_REQ_HEAD = struct.Struct(">B16sBH")

_STATUS_ISSUED = 0x00
_STATUS_BY_REASON = {
    DenyReason.UNDER_AGE: 0x01,
    DenyReason.BAD_EVIDENCE: 0x02,
    DenyReason.REPLAYED_NONCE: 0x03,
}
_REASON_BY_STATUS = {v: k for k, v in _STATUS_BY_REASON.items()}


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


def decode_issuance_request(data: bytes) -> IssuanceRequest:
    if len(data) < _REQ_HEAD.size:
        raise ValueError(f"request truncated at {len(data)} bytes")
    version, subject_id, tag, length = _REQ_HEAD.unpack_from(data)
    if version != REQUEST_VERSION:
        raise ValueError(f"unsupported request version {version}")
    if len(data) != _REQ_HEAD.size + length + 16:
        raise ValueError("request length does not match evidence length field")
    body = data[_REQ_HEAD.size : _REQ_HEAD.size + length]
    nonce = data[_REQ_HEAD.size + length :]
    evidence: Evidence
    if tag == _EVIDENCE_DOB:
        if length != _DOB_LAYOUT.size:
            raise ValueError("date-of-birth evidence must be 4 bytes")
        year, month, day = _DOB_LAYOUT.unpack(body)
        evidence = DateOfBirthEvidence(date(year, month, day))
    elif tag == _EVIDENCE_ALWAYS:
        if length != 0:
            raise ValueError("always-approve evidence carries no bytes")
        evidence = AlwaysApproveEvidence()
    else:
        raise ValueError(f"unknown evidence tag {tag}")
    return IssuanceRequest(subject_id=subject_id, evidence=evidence, request_nonce=nonce)


def encode_issuance_response(resp: IssuanceResponse) -> bytes:
    if resp.issued:
        assert resp.credential is not None
        return bytes([REQUEST_VERSION, _STATUS_ISSUED]) + encode_agecred(resp.credential)
    return bytes([REQUEST_VERSION, _STATUS_BY_REASON[resp.reason]])


def decode_issuance_response(data: bytes) -> IssuanceResponse:
    if len(data) < 2:
        raise ValueError(f"response truncated at {len(data)} bytes")
    if data[0] != REQUEST_VERSION:
        raise ValueError(f"unsupported response version {data[0]}")
    status = data[1]
    if status == _STATUS_ISSUED:
        if len(data) != 2 + ENCODED_LEN:
            raise ValueError("issued response must carry exactly one credential")
        return IssuanceResponse(credential=decode_agecred(data[2:]))
    if status not in _REASON_BY_STATUS:
        raise ValueError(f"unknown response status {status}")
    if len(data) != 2:
        raise ValueError("denial response carries no credential")
    return IssuanceResponse(reason=_REASON_BY_STATUS[status])


# --- optional socket transport (4-byte big-endian length framing) ------------

# The largest legal message: an issued response carrying one credential.
_MAX_FRAME = 2 + ENCODED_LEN


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        part = sock.recv(count - len(chunks))
        if not part:
            raise ConnectionError("peer closed mid-frame")
        chunks += part
    return bytes(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > _MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds {_MAX_FRAME}")
    return _recv_exact(sock, length)


class AspSocketServer:
    """Serves an ASP over localhost TCP with length-prefixed frames."""

    def __init__(self, asp: AspAccess, host: str = "127.0.0.1", port: int = 0):
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                try:
                    req = decode_issuance_request(_recv_frame(self.request))
                    resp = outer._asp.handle(req)
                except (ValueError, ConnectionError):
                    self.request.close()
                    return
                _send_frame(self.request, encode_issuance_response(resp))

        self._asp = asp
        self._server = socketserver.ThreadingTCPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "AspSocketServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SocketAspClient:
    """Issuance access over the framed socket transport."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = timeout

    def handle(self, req: IssuanceRequest) -> IssuanceResponse:
        with socket.create_connection(self._addr, timeout=self._timeout) as sock:
            _send_frame(sock, encode_issuance_request(req))
            return decode_issuance_response(_recv_frame(sock))


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
    response = asp.handle(request)
    if not response.issued:
        assert response.reason is not None
        raise IssuanceDenied(response.reason)

    bind_seed = subseed(rng_seed, "bbcreds/device/bind/v1")
    sketch, digest, bound = bind_enroll(
        key, response.credential, cfg.sketch_variant, bind_seed
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
