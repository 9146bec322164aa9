import socket
import struct
import threading
from dataclasses import replace
from datetime import date

import pytest

from bbcreds.binding import AuthFailure, SketchVariant
from bbcreds.credential import RejectReason
from bbcreds.fextract import ExtractFailure
from bbcreds.parties import (
    AgePolicy,
    AlwaysApproveEvidence,
    AlwaysFail,
    AlwaysPass,
    AspSocketServer,
    DateOfBirthEvidence,
    DenyReason,
    InProcessAsp,
    IssuanceDenied,
    IssuanceRequest,
    IssuanceResponse,
    LivenessFailed,
    ProtocolConfig,
    SeededRandom,
    SocketAspClient,
    _MAX_FRAME,
    _recv_frame,
    age_in_years,
    asp_handle_issuance,
    decode_issuance_request,
    decode_issuance_response,
    device_authenticate,
    device_enroll,
    encode_issuance_request,
    encode_issuance_response,
    liveness_check,
    rp_check_access,
)
from bbcreds.store import encode_record
from bbcreds.synthbio import NoiseModel, new_identity, sample_genuine, sample_impostor

from conftest import NOW

TODAY = date(2025, 6, 15)  # UTC date of NOW


class CountingAsp:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.raw_requests = []

    def handle(self, req):
        self.calls += 1
        self.raw_requests.append(encode_issuance_request(req))
        return self.inner.handle(req)


class TestLiveness:
    def test_always_pass(self):
        assert liveness_check(AlwaysPass()) is True

    def test_always_fail(self):
        assert liveness_check(AlwaysFail()) is False

    def test_seeded_rate(self):
        policy = SeededRandom(0.9, seed=77)
        passes = sum(liveness_check(policy) for _ in range(10000))
        assert abs(passes / 10000 - 0.9) <= 0.01

    def test_seeded_sequence_reproducible(self):
        a = [liveness_check(SeededRandom(0.5, seed=3)) for _ in range(1)]
        draws1 = [liveness_check(p) for p in [SeededRandom(0.5, 3)] * 1]
        p1, p2 = SeededRandom(0.5, seed=3), SeededRandom(0.5, seed=3)
        seq1 = [liveness_check(p1) for _ in range(100)]
        seq2 = [liveness_check(p2) for _ in range(100)]
        assert seq1 == seq2
        assert a == draws1

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SeededRandom(1.5, seed=1)


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

    def test_dob_exactly_threshold_is_issued(self, issuer_keys):
        dob = date(TODAY.year - 18, TODAY.month, TODAY.day)
        resp = asp_handle_issuance(
            self._request(DateOfBirthEvidence(dob)), AgePolicy(18), issuer_keys, NOW
        )
        assert resp.issued
        assert resp.credential.age_over == 18
        assert resp.credential.subject_id == b"\x02" * 16

    def test_one_day_short_is_denied(self, issuer_keys):
        dob = date(TODAY.year - 18, TODAY.month, TODAY.day + 1)
        resp = asp_handle_issuance(
            self._request(DateOfBirthEvidence(dob)), AgePolicy(18), issuer_keys, NOW
        )
        assert resp.reason is DenyReason.UNDER_AGE

    def test_always_approve(self, issuer_keys):
        resp = asp_handle_issuance(
            self._request(AlwaysApproveEvidence()), AgePolicy(18), issuer_keys, NOW
        )
        assert resp.issued

    def test_future_dob_is_bad_evidence(self, issuer_keys):
        resp = asp_handle_issuance(
            self._request(DateOfBirthEvidence(date(2030, 1, 1))),
            AgePolicy(18),
            issuer_keys,
            NOW,
        )
        assert resp.reason is DenyReason.BAD_EVIDENCE

    def test_unknown_evidence_is_bad_evidence(self, issuer_keys):
        resp = asp_handle_issuance(
            self._request("totally not evidence"), AgePolicy(18), issuer_keys, NOW
        )
        assert resp.reason is DenyReason.BAD_EVIDENCE

    def test_nonce_replay_denied(self, asp):
        first = asp.handle(self._request(AlwaysApproveEvidence()))
        assert first.issued
        second = asp.handle(self._request(AlwaysApproveEvidence()))
        assert second.reason is DenyReason.REPLAYED_NONCE

    def test_concurrent_requests_unique_nonces(self, asp):
        results = []

        def worker(i):
            req = self._request(AlwaysApproveEvidence(), nonce=i.to_bytes(16, "big"))
            results.append(asp.handle(req).issued)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results) and len(results) == 64

    def test_response_invariant(self):
        with pytest.raises(ValueError):
            IssuanceResponse()
        with pytest.raises(ValueError):
            IssuanceResponse(credential=None, reason=None)


class TestWireEncodings:
    def test_request_roundtrip_dob(self):
        req = IssuanceRequest(
            subject_id=bytes(range(16)),
            evidence=DateOfBirthEvidence(date(2001, 2, 28)),
            request_nonce=bytes(range(16, 32)),
        )
        data = encode_issuance_request(req)
        assert len(data) == 1 + 16 + 1 + 2 + 4 + 16
        assert decode_issuance_request(data) == req

    def test_request_roundtrip_always(self):
        req = IssuanceRequest(
            subject_id=bytes(16),
            evidence=AlwaysApproveEvidence(),
            request_nonce=bytes(16),
        )
        data = encode_issuance_request(req)
        assert len(data) == 1 + 16 + 1 + 2 + 0 + 16
        assert decode_issuance_request(data) == req

    def test_request_strict_parse(self):
        req = IssuanceRequest(
            subject_id=bytes(16),
            evidence=AlwaysApproveEvidence(),
            request_nonce=bytes(16),
        )
        data = encode_issuance_request(req)
        with pytest.raises(ValueError):
            decode_issuance_request(data[:-1])
        with pytest.raises(ValueError):
            decode_issuance_request(bytes([9]) + data[1:])

    def test_response_roundtrip(self, issuer_keys):
        issued = asp_handle_issuance(
            IssuanceRequest(bytes(16), AlwaysApproveEvidence(), bytes(16)),
            AgePolicy(18),
            issuer_keys,
            NOW,
        )
        data = encode_issuance_response(issued)
        assert len(data) == 2 + 114 and data[1] == 0
        assert decode_issuance_response(data) == issued

        denied = IssuanceResponse(reason=DenyReason.UNDER_AGE)
        data = encode_issuance_response(denied)
        assert data == bytes([1, 1])
        assert decode_issuance_response(data) == denied

    def test_response_strict_parse(self):
        with pytest.raises(ValueError):
            decode_issuance_response(bytes([1, 0]))  # issued without credential
        with pytest.raises(ValueError):
            decode_issuance_response(bytes([1, 9]))  # unknown status


class TestSocketTransport:
    def test_issuance_over_localhost(self, issuer_keys):
        inner = InProcessAsp(issuer_keys, AgePolicy(18), now=NOW)
        with AspSocketServer(inner) as server:
            host, port = server.address
            client = SocketAspClient(host, port)
            req = IssuanceRequest(bytes(16), AlwaysApproveEvidence(), bytes(16))
            resp = client.handle(req)
            assert resp.issued
            replay = client.handle(req)
            assert replay.reason is DenyReason.REPLAYED_NONCE

    def test_socket_enrollment_end_to_end(self, issuer_keys, default_cfg):
        inner = InProcessAsp(issuer_keys, AgePolicy(18), now=NOW)
        profile = new_identity(5150, default_cfg.dim)
        with AspSocketServer(inner) as server:
            client = SocketAspClient(*server.address)
            record = device_enroll(profile, client, default_cfg, rng_seed=404)
        sample = sample_genuine(profile, NoiseModel(default_cfg.sigma), 11)
        cred = device_authenticate(sample, record, AlwaysPass())
        assert cred.age_over == 18

    def test_oversized_frame_rejected_before_payload(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">I", _MAX_FRAME + 1))
            left.shutdown(socket.SHUT_WR)  # an uncapped reader fails with ConnectionError
            with pytest.raises(ValueError):
                _recv_frame(right)


class TestDeviceEnroll:
    def test_record_holds_exactly_the_four_artifacts(self, enrollment):
        from dataclasses import fields

        names = [f.name for f in fields(type(enrollment["record"]))]
        assert names == ["helper", "sketch", "digest", "bound"]

    def test_enrollment_deterministic(self, issuer_keys, default_cfg):
        profile = new_identity(8, default_cfg.dim)
        records = [
            device_enroll(
                profile,
                InProcessAsp(issuer_keys, AgePolicy(18), now=NOW),
                default_cfg,
                rng_seed=1212,
            )
            for _ in range(2)
        ]
        assert encode_record(records[0]) == encode_record(records[1])

    def test_liveness_failure_precedes_asp_contact(self, issuer_keys, default_cfg):
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        cfg = replace(default_cfg, liveness=AlwaysFail())
        with pytest.raises(LivenessFailed, match="^policy AlwaysFail$"):
            device_enroll(new_identity(9, cfg.dim), counting, cfg, rng_seed=1)
        assert counting.calls == 0

    def test_underage_evidence_raises(self, issuer_keys, default_cfg):
        asp = InProcessAsp(issuer_keys, AgePolicy(18), now=NOW)
        with pytest.raises(IssuanceDenied) as err:
            device_enroll(
                new_identity(10, default_cfg.dim),
                asp,
                default_cfg,
                rng_seed=2,
                evidence=DateOfBirthEvidence(date(2015, 1, 1)),
            )
        assert err.value.reason is DenyReason.UNDER_AGE

    def test_only_request_fields_cross_the_boundary(self, issuer_keys, default_cfg):
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        secrets = {}
        profile = new_identity(11, default_cfg.dim)
        device_enroll(
            profile,
            counting,
            default_cfg,
            rng_seed=3,
            secret_observer=lambda k, s: secrets.update(key=k, secret=s),
        )
        assert counting.calls == 1
        raw = counting.raw_requests[0]
        # Fixed-size request: nothing but subject, evidence tag, nonce.
        assert len(raw) == 1 + 16 + 1 + 2 + 0 + 16
        parsed = decode_issuance_request(raw)
        assert isinstance(parsed.evidence, AlwaysApproveEvidence)
        assert secrets["key"].key not in raw
        assert secrets["secret"].secret not in raw
        assert profile.mean.values.tobytes() not in raw

    def test_enrolled_variant_matches_config(self, issuer_keys, default_cfg):
        cfg = replace(default_cfg, sketch_variant=SketchVariant.ENCRYPTED)
        record = device_enroll(
            new_identity(12, cfg.dim),
            InProcessAsp(issuer_keys, AgePolicy(18), now=NOW),
            cfg,
            rng_seed=4,
        )
        assert record.sketch.variant is SketchVariant.ENCRYPTED
        sample = sample_genuine(new_identity(12, cfg.dim), NoiseModel(cfg.sigma), 5)
        assert device_authenticate(sample, record, AlwaysPass()).age_over == 18


class TestDeviceAuthenticate:
    def test_genuine_sample_recovers_credential(self, enrollment, default_cfg):
        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 909
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        assert cred.age_over == 18

    def test_impostors_always_fail(self, enrollment, default_cfg):
        for seed in range(200):
            with pytest.raises((ExtractFailure, AuthFailure)):
                device_authenticate(
                    sample_impostor(900000 + seed, default_cfg.dim),
                    enrollment["record"],
                    AlwaysPass(),
                )

    def test_liveness_gate_short_circuits(self, enrollment, default_cfg):
        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 909
        )
        with pytest.raises(LivenessFailed, match="^policy AlwaysFail$"):
            device_authenticate(sample, enrollment["record"], AlwaysFail())

    def test_no_asp_contact_after_issuance(self, issuer_keys, default_cfg):
        counting = CountingAsp(InProcessAsp(issuer_keys, AgePolicy(18), now=NOW))
        profile = new_identity(13, default_cfg.dim)
        record = device_enroll(profile, counting, default_cfg, rng_seed=5)
        assert counting.calls == 1
        for seed in range(5):
            sample = sample_genuine(profile, NoiseModel(default_cfg.sigma), seed)
            device_authenticate(sample, record, AlwaysPass())
        assert counting.calls == 1


class TestRelyingParty:
    def test_happy_path_grant(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 31
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, NOW + 10, 18)
        assert decision.granted and decision.reason is None

    def test_expired_credential_denied(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 32
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, cred.expires_at + 1, 18)
        assert not decision.granted and decision.reason is RejectReason.EXPIRED

    def test_higher_required_age_denied(self, enrollment, issuer_keys, default_cfg):
        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 33
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        decision = rp_check_access(cred, issuer_keys.public, NOW + 10, 21)
        assert decision.reason is RejectReason.THRESHOLD_NOT_MET

    def test_credential_disjoint_from_secrets(self, enrollment, default_cfg):
        from bbcreds.credential import encode_agecred

        sample = sample_genuine(
            enrollment["profile"], NoiseModel(default_cfg.sigma), 34
        )
        cred = device_authenticate(sample, enrollment["record"], AlwaysPass())
        blob = encode_agecred(cred)
        assert enrollment["key"].key not in blob
        assert enrollment["secret"].secret not in blob


def test_protocol_config_quantizer(default_cfg):
    q = default_cfg.quantizer()
    assert q.dim == 512 and q.code_length == default_cfg.code.n
