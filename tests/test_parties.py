import struct
import sys
import threading
from dataclasses import fields, replace
from datetime import date

import pytest

from bbcreds import parties
from bbcreds.binding import AuthFailure
from bbcreds.credential import RejectReason
from bbcreds.fextract import CODE, ExtractFailure, encode_helper
from bbcreds.parties import (
    AgePolicy,
    AlwaysApproveEvidence,
    AlwaysFail,
    AlwaysPass,
    DateOfBirthEvidence,
    DenyReason,
    InProcessAsp,
    IssuanceDenied,
    IssuanceRequest,
    LivenessFailed,
    ProtocolConfig,
    age_in_years,
    device_authenticate,
    device_enroll,
    rp_check_access,
)
from bbcreds.store import encode_record
from bbcreds.synthbio import NoiseModel, new_identity, sample_genuine, sample_impostor

from conftest import NOW, recover_secrets

TODAY = date(2025, 6, 15)  # UTC date of NOW


class CountingAsp:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.requests = []

    def handle(self, req):
        self.calls += 1
        self.requests.append(req)
        return self.inner.handle(req)


class TestLiveness:
    def test_always_pass(self):
        assert AlwaysPass().passes is True

    def test_always_fail(self):
        assert AlwaysFail().passes is False



class TestAgeArithmetic:
    def test_inclusive_birthday(self):
        dob = date(TODAY.year - 18, TODAY.month, TODAY.day)
        assert age_in_years(dob, TODAY) == 18

    def test_day_before_birthday(self):
        dob = date(2007, 6, 16)  # turns 18 tomorrow relative to TODAY
        assert age_in_years(dob, TODAY) == 17


class TestIssuance:
    def _request(self, evidence, nonce=b"\x01" * 16):
        return IssuanceRequest(subject_id=b"\x02" * 16, evidence=evidence, request_nonce=nonce)

    def _handle(self, issuer_keys, evidence):
        return InProcessAsp(issuer_keys, AgePolicy(18), now=NOW).handle(self._request(evidence))

    def test_dob_exactly_threshold_is_issued(self, issuer_keys):
        dob = date(TODAY.year - 18, TODAY.month, TODAY.day)
        cred = self._handle(issuer_keys, DateOfBirthEvidence(dob))
        assert cred.age_over == 18
        assert cred.subject_id == b"\x02" * 16

    def test_one_day_short_is_denied(self, issuer_keys):
        dob = date(TODAY.year - 18, TODAY.month, TODAY.day + 1)
        with pytest.raises(IssuanceDenied) as err:
            self._handle(issuer_keys, DateOfBirthEvidence(dob))
        assert err.value.reason is DenyReason.UNDER_AGE

    def test_always_approve(self, issuer_keys):
        cred = self._handle(issuer_keys, AlwaysApproveEvidence())
        assert cred.age_over == 18
        assert cred.expires_at == NOW + AgePolicy().validity_seconds

    def test_future_dob_is_bad_evidence(self, issuer_keys):
        with pytest.raises(IssuanceDenied) as err:
            self._handle(issuer_keys, DateOfBirthEvidence(date(2030, 1, 1)))
        assert err.value.reason is DenyReason.BAD_EVIDENCE

    def test_unknown_evidence_is_bad_evidence(self, issuer_keys):
        with pytest.raises(IssuanceDenied) as err:
            self._handle(issuer_keys, "totally not evidence")
        assert err.value.reason is DenyReason.BAD_EVIDENCE

    @pytest.mark.parametrize("now", [-5, parties.LATEST_CLOCK + 1, 2**40, 2**63])
    def test_clock_out_of_range_refused_at_construction(self, issuer_keys, now):
        # Refused before any request, so no evidence type decides how it fails.
        with pytest.raises(ValueError, match="clock must be in"):
            InProcessAsp(issuer_keys, AgePolicy(18), now=now)

    @pytest.mark.parametrize("now", [0, parties.LATEST_CLOCK])
    def test_clock_bounds_issue(self, issuer_keys, now):
        asp = InProcessAsp(issuer_keys, AgePolicy(18), now=now)
        cred = asp.handle(self._request(DateOfBirthEvidence(date(1900, 1, 1))))
        assert cred.issued_at == now
        cred = asp.handle(self._request(AlwaysApproveEvidence(), nonce=b"\x03" * 16))
        assert cred.issued_at == now

    @pytest.mark.parametrize("field", ["subject_id", "request_nonce"])
    def test_request_ids_must_be_16_bytes(self, field):
        ids = {"subject_id": bytes(16), "request_nonce": bytes(16), field: bytes(15)}
        with pytest.raises(ValueError, match=f"^{field} must be 16 bytes$"):
            IssuanceRequest(evidence=AlwaysApproveEvidence(), **ids)

    def test_nonce_replay_denied(self, asp):
        first = asp.handle(self._request(AlwaysApproveEvidence()))
        assert first.subject_id == b"\x02" * 16
        with pytest.raises(IssuanceDenied) as err:
            asp.handle(self._request(AlwaysApproveEvidence()))
        assert err.value.reason is DenyReason.REPLAYED_NONCE

    @pytest.mark.parametrize(
        "evidence, reason",
        [
            (DateOfBirthEvidence(date(2015, 1, 1)), DenyReason.UNDER_AGE),
            (DateOfBirthEvidence(date(2030, 1, 1)), DenyReason.BAD_EVIDENCE),
        ],
        ids=["UnderAge", "BadEvidence"],
    )
    def test_refused_request_uses_up_its_nonce(self, asp, evidence, reason):
        with pytest.raises(IssuanceDenied) as err:
            asp.handle(self._request(evidence))
        assert err.value.reason is reason
        with pytest.raises(IssuanceDenied) as err:
            asp.handle(self._request(AlwaysApproveEvidence()))
        assert err.value.reason is DenyReason.REPLAYED_NONCE

    def test_concurrent_requests_unique_nonces(self, asp):
        results = []

        def worker(i):
            req = self._request(AlwaysApproveEvidence(), nonce=i.to_bytes(16, "big"))
            results.append(asp.handle(req).age_over == 18)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results) and len(results) == 64

    def test_concurrent_requests_same_nonce_issue_once(self, asp):
        issued, refused = [], []
        start = threading.Barrier(32, timeout=10)

        def worker():
            start.wait()
            try:
                issued.append(asp.handle(self._request(AlwaysApproveEvidence())))
            except IssuanceDenied as err:
                refused.append(err.reason)

        # A short switch interval makes a lost check-then-record race likely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(32)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(issued) == 1
        assert refused == [DenyReason.REPLAYED_NONCE] * 31


class TestDeviceEnroll:
    def test_record_holds_exactly_the_four_artifacts(self, enrollment):
        names = [f.name for f in fields(type(enrollment["record"]))]
        assert names == ["helper", "sketch", "digest", "bound"]

    def test_config_has_no_sketch_choice(self, default_cfg):
        # Every record's sketch is the XOR pad and its code CODE over 512-d
        # embeddings, so the config names none of them.
        assert [f.name for f in fields(default_cfg)] == ["sigma", "liveness"]

    @pytest.mark.parametrize("setting", [{"dim": 512}, {"code": CODE}], ids=["dim", "code"])
    def test_code_and_dim_are_not_settings(self, setting):
        with pytest.raises(TypeError):
            ProtocolConfig(**setting)

    def test_record_states_the_operating_point(self, enrollment):
        # Helper version and salt, then (n, k, t, dim).
        header = encode_helper(enrollment["record"].helper)[17:25]
        assert header == struct.pack(">4H", 511, 259, 30, 512)

    def test_enrollment_deterministic(self, issuer_keys, default_cfg):
        identity = new_identity(8)
        records = [
            device_enroll(
                identity,
                InProcessAsp(issuer_keys, AgePolicy(18), now=NOW),
                default_cfg,
                rng_seed=1212,
            )
            for _ in range(2)
        ]
        assert encode_record(records[0]) == encode_record(records[1])

    def test_unseeded_enrollments_draw_fresh_secrets(self, issuer_keys, default_cfg):
        # Without a seed the salt, message, secret and nonces come from the
        # OS: two enrollments of one identity through one ASP share none of
        # them, and each record still works.
        identity = new_identity(14)
        asp = InProcessAsp(issuer_keys, AgePolicy(18), now=NOW)
        first, second = (device_enroll(identity, asp, default_cfg, None) for _ in range(2))
        assert first.helper.salt != second.helper.salt
        assert first.sketch != second.sketch
        assert first.digest != second.digest
        for i, record in enumerate((first, second)):
            sample = sample_genuine(identity, NoiseModel(default_cfg.sigma), 40 + i)
            assert device_authenticate(sample, record, AlwaysPass()).age_over == 18
            with pytest.raises(ExtractFailure):
                device_authenticate(
                    sample_impostor(42 + i), record, AlwaysPass()
                )

    def test_liveness_failure_precedes_asp_contact(self, issuer_keys, default_cfg):
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        cfg = replace(default_cfg, liveness=AlwaysFail())
        with pytest.raises(LivenessFailed, match="^policy AlwaysFail$"):
            device_enroll(new_identity(9), counting, cfg, rng_seed=1)
        assert counting.calls == 0

    def test_underage_evidence_raises(self, issuer_keys, default_cfg):
        asp = InProcessAsp(issuer_keys, AgePolicy(18), now=NOW)
        with pytest.raises(IssuanceDenied) as err:
            device_enroll(
                new_identity(10),
                asp,
                default_cfg,
                rng_seed=2,
                evidence=DateOfBirthEvidence(date(2015, 1, 1)),
            )
        assert err.value.reason is DenyReason.UNDER_AGE

    def test_only_request_fields_cross_the_boundary(self, issuer_keys, default_cfg):
        identity = new_identity(11)
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        record = device_enroll(identity, counting, default_cfg, rng_seed=3)
        key, secret = recover_secrets(identity, record)
        assert counting.calls == 1
        (request,) = counting.requests
        # The request object is all that reaches the ASP: subject, evidence, nonce.
        assert [f.name for f in fields(request)] == ["subject_id", "evidence", "request_nonce"]
        assert isinstance(request.evidence, AlwaysApproveEvidence)
        sent = request.subject_id + request.request_nonce
        assert key.key not in sent
        assert secret.secret not in sent
        assert identity.values.tobytes() not in sent


class TestDeviceAuthenticate:
    def test_genuine_sample_recovers_credential(self, enrollment, default_cfg):
        sample = sample_genuine(
            enrollment["identity"], NoiseModel(default_cfg.sigma), 909
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        assert cred.age_over == 18

    def test_impostors_always_fail(self, enrollment, default_cfg):
        for seed in range(200):
            with pytest.raises((ExtractFailure, AuthFailure)):
                device_authenticate(
                    sample_impostor(900000 + seed),
                    enrollment["record"],
                    AlwaysPass(),
                )

    def test_liveness_gate_short_circuits(self, enrollment, default_cfg):
        sample = sample_genuine(
            enrollment["identity"], NoiseModel(default_cfg.sigma), 909
        )
        with pytest.raises(LivenessFailed, match="^policy AlwaysFail$"):
            device_authenticate(sample, enrollment["record"], AlwaysFail())

    def test_no_asp_contact_after_issuance(self, issuer_keys, default_cfg):
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        identity = new_identity(13)
        record = device_enroll(identity, counting, default_cfg, rng_seed=5)
        assert counting.calls == 1
        for seed in range(5):
            sample = sample_genuine(identity, NoiseModel(default_cfg.sigma), seed)
            device_authenticate(sample, record, AlwaysPass())
        assert counting.calls == 1


class TestRelyingParty:
    def test_happy_path_grant(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["identity"], NoiseModel(default_cfg.sigma), 31
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, NOW + 10, 18)
        assert decision.granted and decision.reason is None

    def test_expired_credential_denied(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["identity"], NoiseModel(default_cfg.sigma), 32
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, cred.expires_at + 1, 18)
        assert not decision.granted and decision.reason is RejectReason.EXPIRED

    def test_higher_required_age_denied(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["identity"], NoiseModel(default_cfg.sigma), 33
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, NOW + 10, 21)
        assert decision.reason is RejectReason.THRESHOLD_NOT_MET

    def test_credential_disjoint_from_secrets(self, enrollment, default_cfg):
        from bbcreds.credential import encode_agecred

        sample = sample_genuine(enrollment["identity"], NoiseModel(default_cfg.sigma), 34)
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        blob = encode_agecred(cred)
        assert enrollment["key"].key not in blob
        assert enrollment["secret"].secret not in blob
