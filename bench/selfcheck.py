"""Smoke check of the benchmark itself; run from the repository root:

    python3 bench/selfcheck.py

Runs each workload briefly, untraced and traced, and exits non-zero unless
every metric named in BENCHMARK.json is reported with its unit, a record with
one flipped ciphertext byte counts as a failed auth_genuine operation rather
than an error, enroll never calls the BCH decoder, and traced call counts
repeat exactly on one seed. It is a script, not a pytest module, so the
repository's test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from reference import Reference

SEED = 7
SMOKE_SECONDS = 0.3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def calls(result: dict) -> dict[str, float]:
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls_per_op")}


def check_metrics(spec: dict) -> dict[str, dict]:
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {}
    for workload in run.WORKLOADS:
        plain, _ = run.run(workload, SEED, SMOKE_SECONDS, trace=False)
        expect(plain["correct"], f"{workload} untraced run is not correct: {plain}")
        expect(units(plain) == want_e2e, f"{workload} end-to-end metrics {units(plain)}")
        traced[workload], _ = run.run(workload, SEED, SMOKE_SECONDS, trace=True)
        expect(traced[workload]["correct"], f"{workload} traced run is not correct")
        expect(units(traced[workload]) == want_layer, f"{workload} per-layer metrics differ")
    return traced


def check_tampered_record() -> None:
    wl = run.AuthGenuine(SEED)
    record = run.store.decode_record(wl.records[0])
    ciphertext = bytearray(record.bound.ciphertext)
    ciphertext[len(ciphertext) // 2] ^= 0x01
    bound = dataclasses.replace(record.bound, ciphertext=bytes(ciphertext))
    wl.records[0] = run.store.encode_record(dataclasses.replace(record, bound=bound))
    phase = run.run_phase(wl, Reference(), "run", None, None, blocks=1)
    uses = run.BLOCK // run.POOL + (run.BLOCK % run.POOL > 0)
    expect(phase.outcomes["rejected:DecryptFailed"] == uses,
           f"tampered record outcomes {dict(phase.outcomes)}")
    expect(not any(k.startswith("error:") for k in phase.outcomes), "tampering raised an error")
    expect(phase.failed >= uses, "tampered operations were not counted as failed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = check_metrics(spec)
    enroll_decodes = traced["enroll"]["metrics"]["ecc.decode.calls_per_op"]["value"]
    expect(enroll_decodes == 0, f"enroll calls the decoder {enroll_decodes} times per op")
    for workload in run.WORKLOADS:
        again, _ = run.run(workload, SEED, SMOKE_SECONDS, trace=True)
        expect(calls(again) == calls(traced[workload]), f"{workload} call counts differ")
    check_tampered_record()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
