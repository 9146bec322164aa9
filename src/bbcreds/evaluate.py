"""Monte-Carlo measurement of false rejection and false acceptance rates.

``estimate_frr`` and ``estimate_far`` are the reports, one per rate, of
any positive number of trials, and ``sweep`` writes both per noise level.
Genuine trials enroll a fresh identity and authenticate a new noisy
capture; impostor trials authenticate unrelated captures against the one
record a FAR report enrolls. Enrollment always passes liveness, so the
configured policy gates only authentication. Genuine trial i derives its
sub-seed from the report seed under a label naming i; impostor trial i is
row i of the impostor stream the seed names. So each trial is a pure
function of (cfg, seed, index), trial order cannot change the counts, and
the reports at seeds S and S+1 share no trial.

``frr_trial`` and ``far_trial``, both ``(cfg, seed, index)``, run trial
``index`` of the report at (cfg, seed) through ``device_authenticate``.
The reports draw the same trials a chunk at a time as the rows of one
sample matrix (a window of the impostor stream for FAR, the stacked
genuine captures for FRR) and pass it through the device's stages in one
go: the liveness gate once per report, one batched key reproduction
(``fe_reproduce_batch``, which decodes with ``BchCodec.decode_batch``),
then ``unbind_auth`` for each key that came out. Each report's counts
equal the tally of its single-trial reference over the same indices.

Each trial is counted under the ``stage`` of the device's refusal that
ended it: ``"Liveness"`` (LivenessFailed), ``"Extract"`` (ExtractFailure)
or an AuthFailure's ``FailureReason`` value (``"HashMismatch"``,
``"DecryptFailed"``, ``"MalformedCredential"``), or else ``"Success"``.
``OUTCOMES`` lists them in chain order; every report's ``stage_counts``
has exactly these keys.

Rates carry Wilson 95% intervals, which stay meaningful at the zero
boundary where these measurements usually sit, and for few trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .binding import AuthFailure, FailureReason, unbind_auth
from .credential import IssuerKeyPair, generate_issuer_keys
from .fextract import ExtractFailure, fe_reproduce_batch
from .kdf import subseed
from .parties import (
    AgePolicy,
    AlwaysPass,
    InProcessAsp,
    LivenessFailed,
    LivenessPolicy,
    ProtocolConfig,
    device_authenticate,
    device_enroll,
)
from .store import DeviceRecord
from .synthbio import (
    Embedding,
    NoiseModel,
    new_identity,
    sample_genuine,
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

# Trials per chunk and decode_batch call, which pays a fixed numpy cost per
# call. With the two-thread impostor fill, estimate_far(cfg, 1000, s) took a
# median 19.1 / 16.9 / 17.3 / 16.2 ms of wall time (22.9 / 20.7 / 21.4 / 20.4
# ms of CPU) at 256 / 512 / 768 / 1024 rows per chunk (512 beat 256 in 59 of
# 60 interleaved calls) and peaked at 1.84 / 3.67 / 5.50 / 7.16 MiB traced,
# on a 2-core machine: past 512 the time falls by at most 4% and the memory
# doubles.
_BATCH_CHUNK = 512

CSV_HEADER = "sigma,trials,frr,frr_lo,frr_hi,far,far_lo,far_hi,seed"


OUTCOMES = (LivenessFailed.stage, ExtractFailure.stage,
            *(r.value for r in FailureReason), "Success")


@dataclass(frozen=True)
class EvalReport:
    sigma: float
    trials: int
    # A report measures one rate; the other rate's three fields are None.
    frr: float | None
    frr_lo: float | None
    frr_hi: float | None
    far: float | None
    far_lo: float | None
    far_hi: float | None
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


def _eval_keys(seed: int) -> IssuerKeyPair:
    return generate_issuer_keys(subseed(seed, "bbcreds/eval/issuer/v1"))


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")


def _outcome(sample, record: DeviceRecord, cfg: ProtocolConfig) -> str:
    """The name in ``OUTCOMES`` of the stage that rejected, or ``"Success"``."""
    try:
        device_authenticate(sample, record, cfg.liveness)
    except (LivenessFailed, ExtractFailure, AuthFailure) as refusal:
        return refusal.stage
    return "Success"


def _tally(
    draw: Callable[[range], tuple[np.ndarray, list[DeviceRecord]]],
    trials: int,
    liveness: LivenessPolicy,
) -> dict[str, int]:
    """``_outcome`` counts of trials 0 .. trials-1. ``draw(indices)`` returns
    those trials' samples as the rows of one (len(indices), DEFAULT_DIM)
    matrix and the record each one authenticates against.

    The liveness policy is a constant, so it is checked once: when it
    fails, every trial counts as ``"Liveness"`` and nothing is drawn.
    Otherwise trials run _BATCH_CHUNK at a time through the device's own
    stages: one sample matrix, one batched key reproduction, which decodes
    the chunk in one ``decode_batch`` call, and ``unbind_auth`` for each
    key that came out. Memory grows with the chunk (512 samples take 2 MiB
    at dim 512, their decode 1.6 MiB at n = 511) and not with the trials,
    as long as ``draw`` keeps nothing, such as an ASP, past its chunk.
    """
    counts = dict.fromkeys(OUTCOMES, 0)
    if not liveness.passes:
        counts[LivenessFailed.stage] = trials
        return counts
    extract, success = ExtractFailure.stage, "Success"
    for start in range(0, trials, _BATCH_CHUNK):
        samples, records = draw(range(start, min(start + _BATCH_CHUNK, trials)))
        keys = fe_reproduce_batch(samples, [record.helper for record in records])
        del samples  # the next chunk's matrix is drawn without this one alive
        for record, key in zip(records, keys):
            if key is None:
                counts[extract] += 1
                continue
            try:
                unbind_auth(key, record.sketch, record.digest, record.bound)
            except AuthFailure as failure:
                counts[failure.stage] += 1
            else:
                counts[success] += 1
    return counts


def _enroll(
    identity: Embedding, keys: IssuerKeyPair, cfg: ProtocolConfig, seed: int
) -> DeviceRecord:
    """A report's enrollment, under ``AlwaysPass`` and through a fresh ASP:
    liveness gates only authentication, and no replay set outlives it."""
    asp = InProcessAsp(keys, AgePolicy(), now=_EVAL_CLOCK)
    cfg = replace(cfg, liveness=AlwaysPass())
    return device_enroll(identity, asp, cfg, subseed(seed, "bbcreds/eval/enroll/v1"))


def _far_record(cfg: ProtocolConfig, seed: int) -> DeviceRecord:
    """The one record every impostor of the FAR report at ``seed`` tries."""
    return _enroll(new_identity(seed), _eval_keys(seed), cfg, seed)


def _genuine_trial(
    cfg: ProtocolConfig, seed: int, index: int, keys: IssuerKeyPair
) -> tuple[Embedding, DeviceRecord]:
    """Genuine trial ``index``: its enrolled record and fresh capture."""
    base = subseed(seed, f"bbcreds/eval/genuine/{index}/v1")
    identity = new_identity(base)
    record = _enroll(identity, keys, cfg, base)
    sample = sample_genuine(
        identity, NoiseModel(cfg.sigma), subseed(base, "bbcreds/eval/auth/v1")
    )
    return sample, record


def _impostor_stream(seed: int) -> int:
    """The impostor stream of the FAR report at ``seed``: trial i is its row i."""
    return subseed(seed, "bbcreds/eval/impostor/v2")


def frr_trial(cfg: ProtocolConfig, seed: int, index: int) -> str:
    """Genuine trial ``index`` of ``estimate_frr(cfg, trials, seed)``: enroll
    the identity derived from (seed, index), then authenticate a fresh
    capture at noise level ``cfg.sigma``."""
    sample, record = _genuine_trial(cfg, seed, index, _eval_keys(seed))
    return _outcome(sample, record, cfg)


def far_trial(cfg: ProtocolConfig, seed: int, index: int) -> str:
    """Impostor trial ``index`` of ``estimate_far(cfg, trials, seed)``: its row
    of the report's impostor stream against the report's record, enrolled anew."""
    sample = Embedding(sample_impostors(_impostor_stream(seed), index, 1)[0])
    return _outcome(sample, _far_record(cfg, seed), cfg)


def _report(
    sigma: float, seed: int, counts: dict[str, int], trials: int, rate: str
) -> EvalReport:
    """The report of one rate, ``"frr"`` (trials not ending in ``"Success"``)
    or ``"far"`` (trials that did), with the other rate's fields None, as it
    was not measured."""
    count = trials - counts["Success"] if rate == "frr" else counts["Success"]
    lo, hi = wilson_interval(count, trials)
    rates = dict.fromkeys(("frr", "frr_lo", "frr_hi", "far", "far_lo", "far_hi"))
    rates.update({rate: count / trials, f"{rate}_lo": lo, f"{rate}_hi": hi})
    return EvalReport(sigma=sigma, trials=trials, seed=seed, stage_counts=counts, **rates)


def estimate_frr(cfg: ProtocolConfig, trials: int, seed: int) -> EvalReport:
    """False rejection rate over ``trials`` fresh genuine identities at noise
    level ``cfg.sigma``: ``frr_trial(cfg, seed, i)`` for i below ``trials``."""
    _check_trials(trials)
    keys = _eval_keys(seed)

    def draw(indices: range) -> tuple[np.ndarray, list[DeviceRecord]]:
        pairs = [_genuine_trial(cfg, seed, i, keys) for i in indices]
        return np.stack([sample.values for sample, _ in pairs]), [r for _, r in pairs]

    return _report(cfg.sigma, seed, _tally(draw, trials, cfg.liveness), trials, "frr")


def estimate_far(cfg: ProtocolConfig, trials: int, seed: int) -> EvalReport:
    """False acceptance rate of ``trials`` impostor captures against one
    enrolled record: ``far_trial(cfg, seed, i)`` for i below ``trials``.

    An independent impostor is accepted only if its quantized bits lie
    within t of the enrolled ones, with chance V(511, 30) / 2**511, about
    2**-350, per trial at the default code. A report of such impostors
    therefore shows that the pipeline rejects them, not how close a
    look-alike may come before it is accepted.
    """
    _check_trials(trials)
    record = _far_record(cfg, seed)
    stream = _impostor_stream(seed)
    counts = _tally(
        lambda indices: (
            sample_impostors(stream, indices.start, len(indices)),
            [record] * len(indices),
        ),
        trials,
        cfg.liveness,
    )
    return _report(cfg.sigma, seed, counts, trials, "far")


def sweep(
    cfg: ProtocolConfig,
    sigmas: Sequence[float],
    trials: int,
    seed: int,
    sink: IO[str],
) -> None:
    """Write one CSV row per noise level: the fields of ``estimate_frr`` and
    ``estimate_far`` at that sigma, after the header. Rerunning with the same
    arguments reproduces the output byte for byte.
    """
    if not sigmas:
        raise ValueError("sigmas must be nonempty")
    _check_trials(trials)
    # Every row's config is built, and so every sigma checked, before the
    # header is written: a bad argument leaves the sink empty.
    row_cfgs = [replace(cfg, sigma=sigma) for sigma in sigmas]
    sink.write(CSV_HEADER + "\n")
    for sigma, row_cfg in zip(sigmas, row_cfgs):
        frr_report = estimate_frr(row_cfg, trials, seed)
        far_report = estimate_far(row_cfg, trials, seed)
        row = (
            f"{sigma:g},{trials},"
            f"{frr_report.frr:.6f},{frr_report.frr_lo:.6f},{frr_report.frr_hi:.6f},"
            f"{far_report.far:.6f},{far_report.far_lo:.6f},{far_report.far_hi:.6f},"
            f"{seed}"
        )
        sink.write(row + "\n")
