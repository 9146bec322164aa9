"""Biometric-bound age credentials.

A signed age-over attestation is encrypted under a secret that can only
be recovered with a stable key reproduced from the holder's biometric,
via a code-offset fuzzy extractor. The package includes synthetic
identities for exercising the protocol, the three-party enrollment and
authentication flows, persistence of the device record, and a Monte-Carlo
FRR/FAR evaluation harness.
"""

from .binding import (
    AuthFailure,
    BoundCredential,
    FailureReason,
    KeyDigest,
    Sketch,
    SketchVariant,
    StableSecret,
    bind_enroll,
    bind_oneway,
    hash_key,
    unbind_auth,
)
from .credential import (
    AgeCred,
    IssuerKeyPair,
    RejectReason,
    Verdict,
    decode_agecred,
    encode_agecred,
    generate_issuer_keys,
    issue_agecred,
    verify_agecred,
)
from .ecc import CodeParams, decode, encode
from .evaluate import EvalReport, estimate_far, estimate_frr, sweep
from .fextract import (
    ExtractFailure,
    HelperData,
    StableKey,
    fe_generate,
    fe_reproduce,
)
from .parties import (
    AccessDecision,
    AgePolicy,
    AlwaysFail,
    AlwaysPass,
    InProcessAsp,
    IssuanceDenied,
    IssuanceRequest,
    IssuanceResponse,
    LivenessFailed,
    ProtocolConfig,
    SeededRandom,
    device_authenticate,
    device_enroll,
    liveness_check,
    rp_check_access,
)
from .quantize import BitString, QuantizerConfig, hamming, quantize
from .store import DeviceRecord, FormatError, load_record, save_record
from .synthbio import (
    Embedding,
    IdentityProfile,
    NoiseModel,
    new_identity,
    sample_genuine,
    sample_impostor,
)

__version__ = "0.1.0"
