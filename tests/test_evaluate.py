import io
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from bbcreds import evaluate, synthbio
from bbcreds.binding import AuthFailure
from bbcreds.evaluate import (
    CSV_HEADER,
    OUTCOMES,
    estimate_far,
    estimate_frr,
    far_trial,
    frr_trial,
    sweep,
    wilson_interval,
)
from bbcreds.fextract import ExtractFailure
from bbcreds.parties import AlwaysFail, LivenessFailed, ProtocolConfig, device_authenticate
from bbcreds.synthbio import new_identity, sample_impostor, sample_impostors

SEED = 0xE7A1
ZERO_COUNTS = dict.fromkeys(OUTCOMES, 0)


@pytest.fixture(scope="module")
def cfg():
    return ProtocolConfig()


class TestWilson:
    def test_against_scipy(self):
        from scipy.stats import binomtest

        for count, trials in [(0, 100), (3, 1000), (17, 200), (1000, 1000), (1, 10000)]:
            lo, hi = wilson_interval(count, trials)
            ref = binomtest(count, trials).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert lo == pytest.approx(ref.low, abs=1e-9)
            assert hi == pytest.approx(ref.high, abs=1e-9)

    def test_zero_boundary_is_informative(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0.0 < hi < 0.005

    def test_boundaries_exact(self):
        assert wilson_interval(0, 7)[0] == 0.0
        for n in (1, 7, 1000, 10**6):
            assert wilson_interval(n, n)[1] == 1.0

    def test_bounds_ordered(self):
        lo, hi = wilson_interval(5, 50)
        assert 0.0 <= lo <= 5 / 50 <= hi <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestFrr:
    def test_zero_noise_means_zero_frr(self, cfg):
        report = estimate_frr(replace(cfg, sigma=0.0), 100, SEED)
        assert report.frr == 0.0
        assert report.stage_counts["Success"] == 100

    def test_deterministic(self, cfg):
        a = estimate_frr(replace(cfg, sigma=0.002), 100, SEED)
        b = estimate_frr(replace(cfg, sigma=0.002), 100, SEED)
        assert a == b

    def test_different_seed_changes_trials(self, cfg):
        a = estimate_frr(replace(cfg, sigma=0.0), 100, SEED)
        b = estimate_frr(replace(cfg, sigma=0.0), 100, SEED + 1)
        assert a.seed != b.seed

    def test_monotone_in_sigma(self, cfg):
        # Monte-Carlo oracle at the operating points fixed by the contract;
        # Wilson overlap absorbs estimation noise between adjacent levels.
        sigmas = (0.01, 0.03, 0.05, 0.10)
        reports = [estimate_frr(replace(cfg, sigma=s), 1000, SEED) for s in sigmas]
        for lower, higher in zip(reports, reports[1:]):
            assert higher.frr >= lower.frr or higher.frr_hi >= lower.frr_lo

    def test_negative_sigma_rejected(self, cfg):
        with pytest.raises(ValueError):
            estimate_frr(replace(cfg, sigma=-0.1), 100, SEED)


class TestFar:
    def test_far_zero_and_stages(self, cfg):
        report = estimate_far(cfg, 1000, SEED)
        assert report.far == 0.0
        observed = {stage for stage, count in report.stage_counts.items() if count}
        assert observed <= {"Extract", "HashMismatch"}

    def test_deterministic(self, cfg):
        assert estimate_far(cfg, 1000, SEED) == estimate_far(cfg, 1000, SEED)


@pytest.mark.parametrize("estimate", [estimate_frr, estimate_far])
@pytest.mark.parametrize("trials", [0, -1])
def test_nonpositive_trials_rejected(cfg, estimate, trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        estimate(cfg, trials, SEED)


def test_reports_leave_the_unmeasured_rate_none(cfg):
    # A report measures one rate; the other reads None, not a rate of 0.
    frr, far = estimate_frr(cfg, 10, SEED), estimate_far(cfg, 10, SEED)
    assert (frr.far, frr.far_lo, frr.far_hi) == (None, None, None)
    assert (far.frr, far.frr_lo, far.frr_hi) == (None, None, None)
    assert None not in (frr.frr, frr.frr_lo, frr.frr_hi, far.far, far.far_lo, far.far_hi)


# Reports recorded with the general 2t-step BCH decoder. Any change to the
# decoder's results, failures included, moves one of these. The FRR rows on
# identity and genuine streams v2 were recounted with test_ecc's
# _reference_decode, which gave the same counts.
PINNED_REPORTS = [
    (
        0xACCE97,
        (0.0, 0.0, 0.0038267584855551234, {"Extract": 1000}),
        (0.01, 0.0027466581335444384, 0.0357217617161768, {"Extract": 2, "Success": 198}),
    ),
    (
        20250909,
        (0.0, 0.0, 0.0038267584855551234, {"Extract": 1000}),
        (0.015, 0.00511423779325831, 0.04316572879269026, {"Extract": 3, "Success": 197}),
    ),
]


@pytest.mark.parametrize("seed, far, frr", PINNED_REPORTS, ids=["acce97", "20250909"])
def test_reports_pinned(cfg, seed, far, frr):
    far_report = estimate_far(cfg, 1000, seed)
    frr_report = estimate_frr(replace(cfg, sigma=0.004), 200, seed)
    nonzero = lambda counts: {name: n for name, n in counts.items() if n}
    assert (far_report.far, far_report.far_lo, far_report.far_hi,
            nonzero(far_report.stage_counts)) == far
    assert (frr_report.frr, frr_report.frr_lo, frr_report.frr_hi,
            nonzero(frr_report.stage_counts)) == frr


class TestTrialIndependence:
    def test_frr_outcomes_order_invariant(self, cfg):
        noisy = replace(cfg, sigma=0.004)
        forward = [frr_trial(noisy, SEED, i) for i in range(100)]
        backward = [frr_trial(noisy, SEED, i) for i in reversed(range(100))]
        assert Counter(forward) == Counter(backward)
        assert forward == list(reversed(backward))

    def test_adjacent_seeds_share_no_trial(self, cfg, monkeypatch):
        enrolled, impostors = [], []

        def recording_identity(seed, dim):
            enrolled.append(seed)
            return new_identity(seed, dim)

        def recording_impostors(stream, first, count, dim):
            impostors.extend((stream, i) for i in range(first, first + count))
            return sample_impostors(stream, first, count, dim)

        trials = [pair for i in range(5) for pair in ((SEED, i + 1), (SEED + 1, i))]
        monkeypatch.setattr(evaluate, "sample_impostors", recording_impostors)
        for seed, index in trials:
            far_trial(cfg, seed, index)
        # Identities are recorded for genuine trials only, since every
        # far_trial enrolls the same record of its report again.
        monkeypatch.setattr(evaluate, "new_identity", recording_identity)
        for seed, index in trials:
            frr_trial(replace(cfg, sigma=0.003), seed, index)
        assert len(set(enrolled)) == len(enrolled) == 10
        assert len(set(impostors)) == len(impostors) == 10


class TestBatchedReportsEqualTrials:
    """Reports decode their trials in batches; each count must equal the
    tally of the single-trial functions, which authenticate one by one."""

    @pytest.mark.parametrize("seed", [SEED, 0xACCE97])
    def test_far(self, cfg, seed):
        report = estimate_far(cfg, 1000, seed)
        trials = Counter(far_trial(cfg, seed, i) for i in range(1000))
        assert Counter(report.stage_counts) == trials

    def test_frr_with_mixed_outcomes(self, cfg):
        # 200 trials fit in one chunk; _BATCH_CHUNK + 1 crosses a chunk boundary.
        for count in (200, evaluate._BATCH_CHUNK + 1):
            noisy = replace(cfg, sigma=0.005)
            report = estimate_frr(noisy, count, SEED)
            trials = Counter(frr_trial(noisy, SEED, i) for i in range(count))
            assert Counter(report.stage_counts) == trials
            assert trials["Extract"] and trials["Success"]

    @pytest.mark.parametrize("trials", [1, 15, 16, 17, evaluate._BATCH_CHUNK + 1])
    def test_any_trial_count(self, cfg, trials):
        # 17 FAR trials end one row into the second 16-row impostor block;
        # _BATCH_CHUNK + 1 ends one trial into the second chunk.
        noisy = replace(cfg, sigma=0.005)
        frr = estimate_frr(noisy, trials, SEED)
        far = estimate_far(noisy, trials, SEED)
        assert frr.trials == far.trials == trials
        assert Counter(frr.stage_counts) == Counter(
            frr_trial(noisy, SEED, i) for i in range(trials)
        )
        assert Counter(far.stage_counts) == Counter(
            far_trial(noisy, SEED, i) for i in range(trials)
        )

    def test_liveness_failure(self, cfg):
        # The harness enrolls under AlwaysPass, so authentication is what fails.
        failing = replace(cfg, liveness=AlwaysFail())
        far = estimate_far(failing, 1000, SEED)
        frr = estimate_frr(replace(failing, sigma=0.003), 100, SEED)
        assert Counter(far.stage_counts) == Counter(
            far_trial(failing, SEED, i) for i in range(1000)
        ) == {"Liveness": 1000}
        assert Counter(frr.stage_counts) == Counter(
            frr_trial(replace(failing, sigma=0.003), SEED, i) for i in range(100)
        ) == {"Liveness": 100}


class TestSweep:
    def test_header_and_row_count(self, cfg):
        sink = io.StringIO()
        assert sweep(cfg, [0.0, 0.002], 100, SEED, sink) is None
        lines = sink.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "sigma,trials,frr,frr_lo,frr_hi,far,far_lo,far_hi,seed"
        assert len(lines) == 3

    def test_byte_identical_reruns(self, cfg):
        a, b = io.StringIO(), io.StringIO()
        sweep(cfg, [0.0, 0.003], 100, SEED, a)
        sweep(cfg, [0.0, 0.003], 100, SEED, b)
        assert a.getvalue() == b.getvalue()

    def test_row_order_matches_input(self, cfg):
        sink = io.StringIO()
        sweep(cfg, [0.003, 0.0], 100, SEED, sink)
        rows = sink.getvalue().splitlines()[1:]
        assert rows[0].startswith("0.003,") and rows[1].startswith("0,")

    def test_row_holds_the_estimators_fields(self, cfg):
        sink = io.StringIO()
        sweep(cfg, [0.005], 20, SEED, sink)
        rows = sink.getvalue().splitlines()[1:]
        noisy = replace(cfg, sigma=0.005)
        frr, far = estimate_frr(noisy, 20, SEED), estimate_far(noisy, 20, SEED)
        assert dict(zip(CSV_HEADER.split(","), rows[0].split(","))) == {
            "sigma": "0.005", "trials": "20", "seed": str(SEED),
            **{name: f"{getattr(frr, name):.6f}" for name in ("frr", "frr_lo", "frr_hi")},
            **{name: f"{getattr(far, name):.6f}" for name in ("far", "far_lo", "far_hi")},
        }

    def test_empty_sigmas_rejected(self, cfg):
        with pytest.raises(ValueError):
            sweep(cfg, [], 100, SEED, io.StringIO())

    @pytest.mark.parametrize(
        "sigmas, trials, message",
        [([0.003], 0, "trials must be positive"), ([0.001, 2.0], 100, "sigma must be in")],
        ids=["zero-trials", "late-bad-sigma"],
    )
    def test_bad_arguments_leave_sink_empty(self, cfg, sigmas, trials, message):
        sink = io.StringIO()
        with pytest.raises(ValueError, match=message):
            sweep(cfg, sigmas, trials, SEED, sink)
        assert sink.getvalue() == ""


def test_liveness_policy_gates_authentication_only(cfg, enrollment):
    failing = replace(cfg, liveness=AlwaysFail())
    assert estimate_far(failing, 1000, SEED).stage_counts == {**ZERO_COUNTS, "Liveness": 1000}
    assert estimate_frr(replace(failing, sigma=0.003), 100, SEED).stage_counts == {
        **ZERO_COUNTS, "Liveness": 100
    }
    with pytest.raises(LivenessFailed) as refusal:
        device_authenticate(enrollment["identity"], enrollment["record"], failing.liveness)
    assert refusal.value.stage == "Liveness"


def test_far_trial_composable(cfg):
    outcome = far_trial(cfg, SEED, 0)
    assert outcome in OUTCOMES and outcome != "Success"
    sample = sample_impostor(evaluate._impostor_stream(SEED), cfg.dim)
    with pytest.raises(ExtractFailure) as refusal:
        device_authenticate(sample, evaluate._far_record(cfg, SEED), cfg.liveness)
    assert refusal.value.stage == outcome == "Extract"


def test_no_asp_outlives_its_trial(cfg, monkeypatch):
    # A report enrolls each genuine trial through its own ASP, so no replay
    # set grows with the trials.
    built = []

    class RecordingAsp(evaluate.InProcessAsp):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(evaluate, "InProcessAsp", RecordingAsp)
    trials = evaluate._BATCH_CHUNK + 1
    estimate_frr(replace(cfg, sigma=0.003), trials, SEED)
    estimate_far(cfg, trials, SEED)
    assert len(built) == trials + 1
    assert max(len(asp._seen) for asp in built) == 1


def test_far_report_memory_grows_with_the_chunk(cfg):
    # A chunk holds its samples (4 KiB per row at dim 512) and its decode
    # temporaries (about 3.2 KB per row), and nothing outlives it.
    def peak(trials):
        tracemalloc.start()
        try:
            estimate_far(cfg, trials, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = evaluate._BATCH_CHUNK
    estimate_far(cfg, 1, SEED)  # builds the decoder tables
    one, eight = peak(chunk + 1), peak(8 * chunk + 1)
    assert abs(eight - one) < 0.1 * one
    assert max(one, eight) < (8 << 10) * chunk


def test_far_report_seeds_one_generator_per_block(cfg, monkeypatch):
    # 1000 trials are rows 0 .. 999 of one impostor stream: ceil(1000 / 16)
    # blocks, each seeded once, not one seeding per row.
    labels = []
    expand = synthbio.expand_seed

    def counting_expand(seed, label, nbytes):
        labels.append(label)
        return expand(seed, label, nbytes)

    monkeypatch.setattr(synthbio, "expand_seed", counting_expand)
    estimate_far(cfg, 1000, SEED)
    impostor = [label for label in labels if label.startswith("bbcreds/synthbio/impostor/")]
    assert len(impostor) == len(set(impostor)) == 63


def _flip_last(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda r: replace(r, bound=replace(r.bound, ciphertext=_flip_last(r.bound.ciphertext))),
         "DecryptFailed"),
        # A tampered pad opens to a wrong secret, which the credential's AEAD refuses.
        (lambda r: replace(r, sketch=replace(r.sketch, payload=_flip_last(r.sketch.payload))),
         "DecryptFailed"),
        (lambda r: replace(r, digest=replace(r.digest, digest=_flip_last(r.digest.digest))),
         "HashMismatch"),
    ],
    ids=["ciphertext", "sketch", "digest"],
)
def test_tampered_records_tallied_by_rejecting_stage(cfg, monkeypatch, asp, tamper, expected):
    enroll = evaluate.device_enroll
    monkeypatch.setattr(evaluate, "device_enroll", lambda *a, **kw: tamper(enroll(*a, **kw)))
    tampered = replace(cfg, sigma=0.0)
    report = estimate_frr(tampered, 100, SEED)
    assert tuple(report.stage_counts) == OUTCOMES
    assert report.stage_counts[expected] == report.trials == 100
    assert report.frr == 1.0
    # The device refuses one such record under the name the report tallied.
    identity = new_identity(SEED, cfg.dim)
    record = evaluate.device_enroll(identity, asp, tampered, SEED)
    with pytest.raises(AuthFailure) as refusal:
        device_authenticate(identity, record, tampered.liveness)
    assert refusal.value.stage == expected
