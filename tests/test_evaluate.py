import io
from collections import Counter
from dataclasses import replace

import pytest

from bbcreds import ecc, evaluate, synthbio
from bbcreds.binding import AuthFailure, SketchVariant
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

    def test_requires_100_trials(self, cfg):
        with pytest.raises(ValueError):
            estimate_frr(replace(cfg, sigma=0.0), 99, SEED)
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

    def test_requires_1000_trials(self, cfg):
        with pytest.raises(ValueError):
            estimate_far(cfg, 999, SEED)


# Reports recorded with the general 2t-step BCH decoder. Any change to the
# decoder's results, failures included, moves one of these.
PINNED_REPORTS = [
    (
        0xACCE97,
        (0.0, 0.0, 0.0038267584855551234, {"Extract": 1000}),
        (0.01, 0.0027466581335444384, 0.0357217617161768, {"Extract": 2, "Success": 198}),
    ),
    (
        20250909,
        (0.0, 0.0, 0.0038267584855551234, {"Extract": 1000}),
        (0.03, 0.013820314340111346, 0.06389429245451925, {"Extract": 6, "Success": 194}),
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

    def test_adjacent_seeds_share_no_trial(self, cfg, enrollment, monkeypatch):
        enrolled, impostors = [], []

        def recording_identity(seed, dim):
            enrolled.append(seed)
            return new_identity(seed, dim)

        def recording_impostors(stream, first, count, dim):
            impostors.extend((stream, i) for i in range(first, first + count))
            return sample_impostors(stream, first, count, dim)

        monkeypatch.setattr(evaluate, "new_identity", recording_identity)
        monkeypatch.setattr(evaluate, "sample_impostors", recording_impostors)
        for i in range(5):
            for seed, index in ((SEED, i + 1), (SEED + 1, i)):
                frr_trial(replace(cfg, sigma=0.003), seed, index)
                far_trial(enrollment["record"], cfg, seed, index)
        assert len(set(enrolled)) == len(enrolled) == 10
        assert len(set(impostors)) == len(impostors) == 10


def _capture_enrollments(monkeypatch):
    """Record every record the harness enrolls."""
    records = []
    enroll = evaluate.device_enroll

    def recording_enroll(identity, asp, cfg, rng_seed, **kw):
        records.append(enroll(identity, asp, cfg, rng_seed, **kw))
        return records[-1]

    monkeypatch.setattr(evaluate, "device_enroll", recording_enroll)
    return records


class TestBatchedReportsEqualTrials:
    """Reports decode their trials in batches; each count must equal the
    tally of the single-trial functions, which authenticate one by one."""

    @pytest.mark.parametrize("seed", [SEED, 0xACCE97])
    def test_far(self, cfg, monkeypatch, seed):
        records = _capture_enrollments(monkeypatch)
        report = estimate_far(cfg, 1000, seed)
        (record,) = records
        trials = Counter(far_trial(record, cfg, seed, i) for i in range(1000))
        assert Counter(report.stage_counts) == trials

    def test_frr_with_mixed_outcomes(self, cfg):
        # 200 trials fit in one chunk; _BATCH_CHUNK + 1 crosses a chunk boundary.
        for count in (200, ecc._BATCH_CHUNK + 1):
            noisy = replace(cfg, sigma=0.005)
            report = estimate_frr(noisy, count, SEED)
            trials = Counter(frr_trial(noisy, SEED, i) for i in range(count))
            assert Counter(report.stage_counts) == trials
            assert trials["Extract"] and trials["Success"]

    def test_liveness_failure(self, cfg, monkeypatch):
        # The harness enrolls under AlwaysPass, so authentication is what fails.
        records = _capture_enrollments(monkeypatch)
        failing = replace(cfg, liveness=AlwaysFail())
        far = estimate_far(failing, 1000, SEED)
        frr = estimate_frr(replace(failing, sigma=0.003), 100, SEED)
        assert Counter(far.stage_counts) == Counter(
            far_trial(records[0], failing, SEED, i) for i in range(1000)
        ) == {"Liveness": 1000}
        assert Counter(frr.stage_counts) == Counter(
            frr_trial(replace(failing, sigma=0.003), SEED, i) for i in range(100)
        ) == {"Liveness": 100}


class TestSweep:
    def test_header_and_row_count(self, cfg):
        sink = io.StringIO()
        rows = sweep(cfg, [0.0, 0.002], 100, SEED, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "sigma,trials,frr,frr_lo,frr_hi,far,far_lo,far_hi,seed"
        assert len(rows) == 2 and len(lines) == 3

    def test_byte_identical_reruns(self, cfg):
        a, b = io.StringIO(), io.StringIO()
        sweep(cfg, [0.0, 0.003], 100, SEED, a)
        sweep(cfg, [0.0, 0.003], 100, SEED, b)
        assert a.getvalue() == b.getvalue()

    def test_row_order_matches_input(self, cfg):
        sink = io.StringIO()
        rows = sweep(cfg, [0.003, 0.0], 100, SEED, sink)
        assert rows[0].startswith("0.003,") and rows[1].startswith("0,")

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


def test_far_trial_composable(cfg, enrollment):
    outcome = far_trial(enrollment["record"], cfg, SEED, 0)
    assert outcome in OUTCOMES and outcome != "Success"
    sample = sample_impostor(evaluate._impostor_stream(SEED), cfg.dim)
    with pytest.raises(ExtractFailure) as refusal:
        device_authenticate(sample, enrollment["record"], cfg.liveness)
    assert refusal.value.stage == outcome == "Extract"


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
    "variant, tamper, expected",
    [
        (SketchVariant.XOR,
         lambda r: replace(r, bound=replace(r.bound, ciphertext=_flip_last(r.bound.ciphertext))),
         "DecryptFailed"),
        (SketchVariant.ENCRYPTED,
         lambda r: replace(r, sketch=replace(r.sketch, payload=_flip_last(r.sketch.payload))),
         "SketchOpenFailed"),
        (SketchVariant.XOR,
         lambda r: replace(r, digest=replace(r.digest, digest=_flip_last(r.digest.digest))),
         "HashMismatch"),
    ],
    ids=["ciphertext", "encrypted-sketch", "digest"],
)
def test_tampered_records_tallied_by_rejecting_stage(cfg, monkeypatch, asp, variant, tamper,
                                                     expected):
    enroll = evaluate.device_enroll
    monkeypatch.setattr(evaluate, "device_enroll", lambda *a, **kw: tamper(enroll(*a, **kw)))
    tampered = replace(cfg, sketch_variant=variant, sigma=0.0)
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
