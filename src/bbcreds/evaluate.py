"""Monte-Carlo measurement of false rejection and false acceptance rates.

Genuine trials enroll a fresh identity and authenticate with a new noisy
capture; impostor trials authenticate unrelated captures against one
enrolled record. Enrollment always passes liveness, so the configured
liveness policy gates only each trial's authentication. Every trial
derives its own sub-seed from the harness seed under a label naming its
kind and index, so each trial is a pure function of (seed, index), trial
order cannot change the counts, and the reports at seeds S and S+1 share
no trial.

``frr_trial`` and ``far_trial`` run one trial through
``device_authenticate``. The reports draw the same trials a chunk at a
time as the rows of one sample matrix (``sample_impostors`` for FAR, the
stacked genuine captures for FRR) and pass it through the device's
stages in one go: the liveness gate per trial, one batched key
reproduction (``fe_reproduce_batch``, which decodes with
``BchCodec.decode_batch``), then ``unbind_auth`` for each key that came
out. Each report's counts equal the tally of the single-trial functions
over the same indices.

Each trial is counted under the name of the stage that rejected it, in
the device's own vocabulary: ``"Liveness"`` (LivenessFailed), ``"Extract"``
(ExtractFailure), a ``FailureReason`` value from the binding layer
(``"HashMismatch"``, ``"SketchOpenFailed"``, ``"DecryptFailed"``,
``"MalformedCredential"``), or ``"Success"``. ``OUTCOMES`` lists them in
chain order; every report's ``stage_counts`` has exactly these keys.

Rates carry Wilson 95% intervals, which stay meaningful at the zero
boundary where these measurements usually sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .binding import AuthFailure, FailureReason, unbind_auth
from .credential import generate_issuer_keys
from .ecc import _BATCH_CHUNK
from .fextract import ExtractFailure, fe_reproduce_batch
from .kdf import subseed
from .parties import (
    AgePolicy,
    AlwaysApproveEvidence,
    AlwaysPass,
    InProcessAsp,
    LivenessFailed,
    LivenessPolicy,
    ProtocolConfig,
    device_authenticate,
    device_enroll,
    liveness_check,
)
from .store import DeviceRecord
from .synthbio import (
    Embedding,
    NoiseModel,
    new_identity,
    sample_genuine,
    sample_impostor,
    sample_impostors,
)

__all__ = [
    "OUTCOMES",
    "EvalReport",
    "wilson_interval",
    "estimate_frr",
    "estimate_far",
    "frr_trial",
    "far_trial",
    "sweep",
    "CSV_HEADER",
]

_Z95 = 1.959963984540054

# Fixed issuance clock: evaluation measures the biometric pipeline, so
# credential validity must never interfere.
_EVAL_CLOCK = 1_750_000_000

CSV_HEADER = "sigma,trials,frr,frr_lo,frr_hi,far,far_lo,far_hi,seed"


OUTCOMES = ("Liveness", "Extract", *(r.value for r in FailureReason), "Success")


@dataclass(frozen=True)
class EvalReport:
    sigma: float
    trials: int
    frr: float
    frr_lo: float
    frr_hi: float
    far: float
    far_lo: float
    far_hi: float
    seed: int
    stage_counts: Mapping[str, int]


def wilson_interval(count: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion count/trials."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= count <= trials:
        raise ValueError("count must be within [0, trials]")
    p = count / trials
    z = _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # At count == 0 (count == trials) the lower (upper) bound is exactly 0 (1),
    # but the float subtraction leaves a residue; return the exact value.
    lo = 0.0 if count == 0 else center - half
    hi = 1.0 if count == trials else center + half
    return lo, hi


def _eval_asp(seed: int) -> InProcessAsp:
    keys = generate_issuer_keys(subseed(seed, "bbcreds/eval/issuer/v1"))
    return InProcessAsp(keys, AgePolicy(), now=_EVAL_CLOCK)


def _outcome(sample, record: DeviceRecord, cfg: ProtocolConfig) -> str:
    """The name in ``OUTCOMES`` of the stage that rejected, or ``"Success"``."""
    try:
        device_authenticate(sample, record, cfg.liveness)
    except LivenessFailed:
        return "Liveness"
    except ExtractFailure:
        return "Extract"
    except AuthFailure as failure:
        return failure.reason.value
    return "Success"


def _tally(
    draw: Callable[[list[int]], tuple[np.ndarray, list[DeviceRecord]]],
    trials: int,
    liveness: LivenessPolicy,
) -> dict[str, int]:
    """``_outcome`` counts of trials 0 .. trials-1. ``draw(indices)`` returns
    those trials' samples as the rows of one (len(indices), dim) matrix and
    the record each one authenticates against.

    Trials run one ``decode_batch`` chunk (_BATCH_CHUNK) at a time
    through the device's own stages: the liveness gate per trial, then
    for the trials it passes one sample matrix, one batched key
    reproduction and ``unbind_auth`` for each key that came out. Memory
    grows with the chunk (256 samples take 1 MiB at dim 512) and not with
    the number of trials.
    """
    counts = dict.fromkeys(OUTCOMES, 0)
    for start in range(0, trials, _BATCH_CHUNK):
        chunk = range(start, min(start + _BATCH_CHUNK, trials))
        live = [index for index in chunk if liveness_check(liveness)]
        counts["Liveness"] += len(chunk) - len(live)
        if not live:
            continue
        samples, records = draw(live)
        keys = fe_reproduce_batch(samples, [record.helper for record in records])
        del samples  # the next chunk's matrix is drawn without this one alive
        for record, key in zip(records, keys):
            if key is None:
                counts["Extract"] += 1
                continue
            try:
                unbind_auth(key, record.sketch, record.digest, record.bound)
            except AuthFailure as failure:
                counts[failure.reason.value] += 1
            else:
                counts["Success"] += 1
    return counts


def _genuine_trial(
    cfg: ProtocolConfig, sigma: float, seed: int, index: int, asp: InProcessAsp
) -> tuple[Embedding, DeviceRecord]:
    """Genuine trial ``index``: its enrolled record and fresh capture."""
    base = subseed(seed, f"bbcreds/eval/genuine/{index}/v1")
    profile = new_identity(base, cfg.dim)
    record = device_enroll(
        profile,
        asp,
        replace(cfg, sigma=sigma, liveness=AlwaysPass()),
        subseed(base, "bbcreds/eval/enroll/v1"),
        evidence=AlwaysApproveEvidence(),
    )
    sample = sample_genuine(
        profile, NoiseModel(sigma), subseed(base, "bbcreds/eval/auth/v1")
    )
    return sample, record


def _impostor_seed(seed: int, index: int) -> int:
    return subseed(seed, f"bbcreds/eval/impostor/{index}/v1")


def frr_trial(cfg: ProtocolConfig, sigma: float, seed: int, index: int) -> str:
    """One genuine trial: enroll the identity derived from ``seed`` for trial
    ``index``, then authenticate a fresh capture at the given noise level.

    The ASP is rebuilt deterministically from the seed, so running trials
    individually, reordered, or through ``estimate_frr`` gives the same
    outcomes.
    """
    sample, record = _genuine_trial(cfg, sigma, seed, index, _eval_asp(seed))
    return _outcome(sample, record, cfg)


def far_trial(record: DeviceRecord, cfg: ProtocolConfig, seed: int, index: int) -> str:
    """One impostor trial against an already enrolled record."""
    return _outcome(sample_impostor(_impostor_seed(seed, index), cfg.dim), record, cfg)


def _frr_report(cfg: ProtocolConfig, sigma: float, trials: int, seed: int) -> EvalReport:
    asp = _eval_asp(seed)

    def draw(indices: list[int]) -> tuple[np.ndarray, list[DeviceRecord]]:
        pairs = [_genuine_trial(cfg, sigma, seed, i, asp) for i in indices]
        return np.stack([sample.values for sample, _ in pairs]), [r for _, r in pairs]

    counts = _tally(draw, trials, cfg.liveness)
    failures = trials - counts["Success"]
    lo, hi = wilson_interval(failures, trials)
    return EvalReport(
        sigma=sigma,
        trials=trials,
        frr=failures / trials,
        frr_lo=lo,
        frr_hi=hi,
        far=0.0,
        far_lo=0.0,
        far_hi=0.0,
        seed=seed,
        stage_counts=counts,
    )


def _far_report(cfg: ProtocolConfig, trials: int, seed: int) -> EvalReport:
    profile = new_identity(seed, cfg.dim)
    record = device_enroll(
        profile,
        _eval_asp(seed),
        replace(cfg, liveness=AlwaysPass()),
        subseed(seed, "bbcreds/eval/enroll/v1"),
        evidence=AlwaysApproveEvidence(),
    )
    counts = _tally(
        lambda indices: (
            sample_impostors([_impostor_seed(seed, i) for i in indices], cfg.dim),
            [record] * len(indices),
        ),
        trials,
        cfg.liveness,
    )
    accepts = counts["Success"]
    lo, hi = wilson_interval(accepts, trials)
    return EvalReport(
        sigma=cfg.sigma,
        trials=trials,
        frr=0.0,
        frr_lo=0.0,
        frr_hi=0.0,
        far=accepts / trials,
        far_lo=lo,
        far_hi=hi,
        seed=seed,
        stage_counts=counts,
    )


def estimate_frr(cfg: ProtocolConfig, sigma: float, trials: int, seed: int) -> EvalReport:
    """False rejection rate over fresh genuine identities at one noise level."""
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    return _frr_report(cfg, sigma, trials, seed)


def estimate_far(cfg: ProtocolConfig, trials: int, seed: int) -> EvalReport:
    """False acceptance rate of impostor captures against one enrolled record."""
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    return _far_report(cfg, trials, seed)


def sweep(
    cfg: ProtocolConfig,
    sigmas: Sequence[float],
    trials: int,
    seed: int,
    sink: IO[str],
) -> list[str]:
    """Run FRR and FAR at every noise level and write one CSV row each.

    Both rates use ``trials`` trials per row (the standalone estimators'
    minimum-trial floors do not apply here). Returns the data rows, header
    excluded; rerunning with the same arguments reproduces the output byte
    for byte.
    """
    if not sigmas:
        raise ValueError("sigmas must be nonempty")
    sink.write(CSV_HEADER + "\n")
    rows = []
    for sigma in sigmas:
        frr_report = _frr_report(cfg, sigma, trials, seed)
        far_report = _far_report(replace(cfg, sigma=sigma), trials, seed)
        row = (
            f"{sigma:g},{trials},"
            f"{frr_report.frr:.6f},{frr_report.frr_lo:.6f},{frr_report.frr_hi:.6f},"
            f"{far_report.far:.6f},{far_report.far_lo:.6f},{far_report.far_hi:.6f},"
            f"{seed}"
        )
        sink.write(row + "\n")
        rows.append(row)
    return rows
