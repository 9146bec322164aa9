import io
from collections import Counter
from dataclasses import replace

import pytest

from bbcreds import evaluate
from bbcreds.binding import SketchVariant
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
from bbcreds.parties import ProtocolConfig
from bbcreds.synthbio import new_identity, sample_impostor

SEED = 0xE7A1


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
        report = estimate_frr(cfg, 0.0, 100, SEED)
        assert report.frr == 0.0
        assert report.stage_counts["Success"] == 100

    def test_deterministic(self, cfg):
        a = estimate_frr(cfg, 0.002, 100, SEED)
        b = estimate_frr(cfg, 0.002, 100, SEED)
        assert a == b

    def test_different_seed_changes_trials(self, cfg):
        a = estimate_frr(cfg, 0.0, 100, SEED)
        b = estimate_frr(cfg, 0.0, 100, SEED + 1)
        assert a.seed != b.seed

    def test_monotone_in_sigma(self, cfg):
        # Monte-Carlo oracle at the operating points fixed by the contract;
        # Wilson overlap absorbs estimation noise between adjacent levels.
        reports = [estimate_frr(cfg, s, 1000, SEED) for s in (0.01, 0.03, 0.05, 0.10)]
        for lower, higher in zip(reports, reports[1:]):
            assert higher.frr >= lower.frr or higher.frr_hi >= lower.frr_lo

    def test_requires_100_trials(self, cfg):
        with pytest.raises(ValueError):
            estimate_frr(cfg, 0.0, 99, SEED)
        with pytest.raises(ValueError):
            estimate_frr(cfg, -0.1, 100, SEED)


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


class TestTrialIndependence:
    def test_frr_outcomes_order_invariant(self, cfg):
        forward = [frr_trial(cfg, 0.004, SEED, i) for i in range(100)]
        backward = [frr_trial(cfg, 0.004, SEED, i) for i in reversed(range(100))]
        assert Counter(forward) == Counter(backward)
        assert forward == list(reversed(backward))

    def test_adjacent_seeds_share_no_trial(self, cfg, enrollment, monkeypatch):
        enrolled, impostors = [], []

        def recording_identity(seed, dim):
            enrolled.append(seed)
            return new_identity(seed, dim)

        def recording_impostor(seed, dim):
            impostors.append(seed)
            return sample_impostor(seed, dim)

        monkeypatch.setattr(evaluate, "new_identity", recording_identity)
        monkeypatch.setattr(evaluate, "sample_impostor", recording_impostor)
        for i in range(5):
            for seed, index in ((SEED, i + 1), (SEED + 1, i)):
                frr_trial(cfg, 0.003, seed, index)
                far_trial(enrollment["record"], cfg, seed, index)
        assert len(set(enrolled)) == len(enrolled) == 10
        assert len(set(impostors)) == len(impostors) == 10


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


def test_far_trial_composable(cfg, enrollment):
    outcome = far_trial(enrollment["record"], cfg, SEED, 0)
    assert outcome in OUTCOMES and outcome != "Success"


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
def test_tampered_records_tallied_by_rejecting_stage(cfg, monkeypatch, variant, tamper,
                                                     expected):
    enroll = evaluate.device_enroll
    monkeypatch.setattr(evaluate, "device_enroll", lambda *a, **kw: tamper(enroll(*a, **kw)))
    report = estimate_frr(replace(cfg, sketch_variant=variant), 0.0, 100, SEED)
    assert tuple(report.stage_counts) == OUTCOMES
    assert report.stage_counts[expected] == report.trials == 100
    assert report.frr == 1.0
