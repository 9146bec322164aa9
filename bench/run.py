"""bbcreds benchmark: enroll, genuine-auth and impostor-FAR workloads.

    python3 bench/run.py --workload {enroll,auth_genuine,far_impostor} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. Each
workload is a closed loop: one client, one process, one thread. Inputs are a
pure function of --seed. With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; with --trace 1 a timed untraced phase is
followed by a fixed number of traced operations and the JSON carries the
per-layer metrics. Lines before it, starting with '#', are information.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CLOCK = 1_750_000_000  # fixed issuance and RP clock
SIGMA = 0.003  # capture noise of enroll and far_impostor, the production default
# auth_genuine enrolls and samples at half of it: about 8 bit errors per
# decode instead of 16, so that no genuine sample is rejected. At 0.003 the
# enrolled and the fresh capture differ in more than t=30 bits 3 to 4 times
# in 10,000, so the failure count of a timed run varied with its length; at
# 0.0015 a binomial estimate puts a rejection at about one in 10^12.
AUTH_SIGMA = 0.0015
REQUIRED_AGE = 18
POOL = 128  # enrolled records auth_genuine authenticates against, round robin
# Operations per input block; each block gives one sample of throughput and
# of the latency percentiles.
BLOCK = 256
FAR_TRIALS = 1000  # trials per estimate_far call, the harness minimum
FAR_CALLS = 4  # estimate_far calls per block, so a block's p99 is not its only call
SETUP_REPEATS = 5
REF_EVERY_NS = 5_000_000  # op time between reference-kernel measurements
# Traced phase: a fixed number of blocks, so per-layer call counts repeat exactly.
TRACED_BLOCKS = {"enroll": 8, "auth_genuine": 8, "far_impostor": 1}


def subseed(seed: int, label: str, i: int) -> int:
    """64-bit input seed for item i of a labelled stream."""
    h = hashlib.blake2b(f"{seed}/{label}/{i}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def import_bbcreds() -> float:
    """Import the package from ./src and return the import time in seconds."""
    if not (SRC / "bbcreds" / "__init__.py").is_file():
        raise SystemExit(f"bbcreds sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in ("bbcreds", "bbcreds.store", "bbcreds.parties", "bbcreds.evaluate"):
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["bbcreds"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bbcreds imported from {origin}, not from {SRC}")
    return elapsed


IMPORT_S = import_bbcreds()  # once per process; setup_s counts it
binding, credential, evaluate, fextract, parties, store, synthbio = (
    importlib.import_module(f"bbcreds.{name}") for name in
    ("binding", "credential", "evaluate", "fextract", "parties", "store", "synthbio"))
# Imported after the package, whose import time IMPORT_S is: it loads numpy.
from reference import Reference, WriteReference


def clear_caches() -> None:
    """Drop every lru_cache in the package, so each set-up pays for its tables."""
    for name, mod in list(sys.modules.items()):
        if name == "bbcreds" or name.startswith("bbcreds."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Workload:
    """One closed-loop workload: set-up in __init__, then blocks of inputs,
    a timed op per input and an untimed check of its result."""

    name = ""
    ops_per_call = 1  # operations one op call performs
    reference = Reference  # the kernel whose mix is closest to the op's

    def info(self) -> list[str]:
        return []


class Enroll(Workload):
    """Write path: device_enroll then encode_record, one fresh identity per op."""

    name = "enroll"
    reference = WriteReference

    def __init__(self, seed: int):
        self.seed = seed
        self.keys = credential.generate_issuer_keys(subseed(seed, "issuer", 0))
        self.asp = parties.InProcessAsp(self.keys, parties.AgePolicy(), now=CLOCK)
        self.cfg = parties.ProtocolConfig(sigma=SIGMA, liveness=parties.AlwaysPass())
        warm = synthbio.new_identity(subseed(seed, "warmup/identity", 0))
        store.encode_record(
            parties.device_enroll(warm, self.asp, self.cfg, subseed(seed, "warmup/enroll", 0)))
        self.digest = hashlib.sha256()
        self.digested = 0

    def inputs(self, stream: str, block: int) -> list:
        # A fresh ASP per block keeps its replay set, and so peak RSS, from
        # growing with the number of operations a run completes.
        self.asp = parties.InProcessAsp(self.keys, parties.AgePolicy(), now=CLOCK)
        new_identity = synthbio.new_identity
        first = block * BLOCK
        return [(new_identity(subseed(self.seed, f"{stream}/identity", i)),
                 subseed(self.seed, f"{stream}/enroll", i))
                for i in range(first, first + BLOCK)]

    def op(self, x):
        profile, rng_seed = x
        record = parties.device_enroll(profile, self.asp, self.cfg, rng_seed)
        return store.encode_record(record)

    def check(self, x, data: bytes) -> tuple[int, int, Counter]:
        try:
            ok = store.encode_record(store.decode_record(data)) == data
        except store.FormatError:
            ok = False
        if self.digested < BLOCK:
            self.digest.update(data)
            self.digested += 1
        return 1, int(not ok), Counter({"ok" if ok else "reencode_mismatch": 1})

    def info(self) -> list[str]:
        return [f"record digest (first {self.digested} records): {self.digest.hexdigest()}"]


class _RecordingAsp:
    """Issuance access that remembers the subject id of every request."""

    def __init__(self, inner):
        self.inner = inner
        self.subjects: list[bytes] = []

    def handle(self, req):
        self.subjects.append(req.subject_id)
        return self.inner.handle(req)


class AuthGenuine(Workload):
    """Read path of `bbcreds auth`: decode_record, device_authenticate,
    rp_check_access, with a fresh genuine sample per op."""

    name = "auth_genuine"

    def __init__(self, seed: int):
        self.seed = seed
        self.keys = credential.generate_issuer_keys(subseed(seed, "issuer", 0))
        asp = _RecordingAsp(parties.InProcessAsp(self.keys, parties.AgePolicy(), now=CLOCK))
        cfg = parties.ProtocolConfig(sigma=AUTH_SIGMA, liveness=parties.AlwaysPass())
        self.liveness = cfg.liveness
        self.noise = synthbio.NoiseModel(AUTH_SIGMA)
        self.profiles = [synthbio.new_identity(subseed(seed, "pool/identity", j))
                         for j in range(POOL)]
        self.records = [
            store.encode_record(
                parties.device_enroll(prof, asp, cfg, subseed(seed, "pool/enroll", j)))
            for j, prof in enumerate(self.profiles)
        ]
        self.subjects = asp.subjects
        # rejections the read path raises; they fail the operation, not the run
        self.expected = (fextract.ExtractFailure, binding.AuthFailure,
                         store.FormatError, parties.LivenessFailed)

    def inputs(self, stream: str, block: int) -> list:
        sample_genuine = synthbio.sample_genuine
        first = block * BLOCK
        return [(i % POOL, sample_genuine(self.profiles[i % POOL], self.noise,
                                          subseed(self.seed, f"{stream}/sample", i)))
                for i in range(first, first + BLOCK)]

    def op(self, x):
        j, sample = x
        try:
            record = store.decode_record(self.records[j])
            cred = parties.device_authenticate(sample, record, self.liveness)
        except self.expected as exc:
            return exc
        return cred, parties.rp_check_access(cred, self.keys.public, CLOCK, REQUIRED_AGE)

    def check(self, x, result) -> tuple[int, int, Counter]:
        if isinstance(result, Exception):
            reason = getattr(result, "reason", None)
            label = getattr(reason, "value", type(result).__name__)
            return 1, 1, Counter({f"rejected:{label}": 1})
        cred, decision = result
        if not decision.granted:
            return 1, 1, Counter({f"denied:{decision.reason.value}": 1})
        if cred.subject_id != self.subjects[x[0]]:
            return 1, 1, Counter({"error:wrong_subject": 1})
        return 1, 0, Counter({"granted": 1})


class FarImpostor(Workload):
    """Researcher path: estimate_far calls of FAR_TRIALS impostor trials each."""

    name = "far_impostor"
    ops_per_call = FAR_TRIALS

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = parties.ProtocolConfig(sigma=SIGMA, liveness=parties.AlwaysPass())
        keys = credential.generate_issuer_keys(subseed(seed, "warmup/issuer", 0))
        asp = parties.InProcessAsp(keys, parties.AgePolicy(), now=CLOCK)
        warm = synthbio.new_identity(subseed(seed, "warmup/identity", 0))
        parties.device_enroll(warm, asp, self.cfg, subseed(seed, "warmup/enroll", 0))

    def inputs(self, stream: str, block: int) -> list:
        first = block * FAR_CALLS
        return [subseed(self.seed, f"{stream}/far", i) for i in range(first, first + FAR_CALLS)]

    def op(self, far_seed: int):
        return evaluate.estimate_far(self.cfg, FAR_TRIALS, far_seed)

    def check(self, x, report) -> tuple[int, int, Counter]:
        accepted = round(report.far * report.trials)
        outcomes = Counter({f"stage:{k}": v for k, v in report.stage_counts.items() if v})
        if report.trials != FAR_TRIALS or sum(report.stage_counts.values()) != report.trials:
            outcomes["error:stage_counts_mismatch"] += 1
        if accepted:
            outcomes["accepted_impostor"] += accepted
        return self.ops_per_call, accepted, outcomes


WORKLOADS = {w.name: w for w in (Enroll, AuthGenuine, FarImpostor)}


class Phase:
    """Timings and outcomes of one loop over input blocks.

    Times are reported at nominal machine speed: each block's op times are
    divided by the reference kernel's slowdown over that block.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.outcomes: Counter = Counter()
        self.busy_ns = 0
        # per block: ops, op ns, kernel slowdown, per-op latencies in us at
        # nominal speed (per trial for far_impostor), and whether the block
        # ran to its end
        self.blocks: list[tuple[int, int, float, array, bool]] = []

    def _full_blocks(self) -> list:
        """The blocks that ran to their end, or the one partial block."""
        return [b for b in self.blocks if b[4]] or self.blocks

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over blocks of ops per second."""
        return statistics.median(ops / ns * 1e9 * (s if scaled else 1.0)
                                 for ops, ns, s, _, _ in self._full_blocks())

    def percentile_us(self, q: float) -> float:
        """Median over blocks of each block's q-quantile of op latency.

        A stretch of machine noise that the scaling misses moves one
        block's figure, not the run's.
        """
        def quantile(lats: array) -> float:
            ordered = sorted(lats)
            return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

        return statistics.median(quantile(lats) for _, _, _, lats, _ in self._full_blocks())

    def slowdown(self) -> float:
        return statistics.median(s for _, _, s, _, _ in self.blocks)


def run_phase(wl, ref, stream: str, first_block: list | None,
              budget_s: float | None, blocks: int | None, tracer=None) -> Phase:
    """Run blocks of operations until the op-time budget or block count is met.

    Only the operation itself is timed; input generation, output checks and
    the reference kernel run between timings. After every REF_EVERY_NS of op
    time, and at the end of each block, the kernel runs for a tenth of that
    op time. A block's slowdown counts every kernel run in it and the one
    just before it; an op's latency is scaled by the two kernel runs around
    it, which follow the machine's speed more closely.
    """
    phase = Phase()
    # a guard for a machine so slow that the op-time budget would take too long
    deadline = None if budget_s is None else time.monotonic() + 3 * budget_s + 30
    units = ref.units_for(REF_EVERY_NS // 10)
    last_ref = (ref.run(units), units)
    block = 0
    while True:
        xs = first_block if block == 0 and first_block is not None else wl.inputs(stream, block)
        block_ops = block_ns = since_ref = 0
        ref_ns, ref_units = last_ref  # the kernel run just before the block counts too
        block_latencies = array("d")
        unscaled = 0  # latencies at the end of block_latencies not yet scaled
        done = False
        for k, x in enumerate(xs):
            if tracer is not None:
                tracer.begin_op(phase.attempted)
            start = time.perf_counter_ns()
            error = None
            try:
                result = wl.op(x)
            except Exception as exc:  # an unexpected error fails the op, not the run
                error = exc
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            if error is None:
                n, failed, outcomes = wl.check(x, result)
            else:
                n = failed = wl.ops_per_call
                outcomes = Counter({f"error:{type(error).__name__}": 1})
            phase.attempted += n
            phase.failed += failed
            phase.outcomes += outcomes
            block_latencies.append(elapsed / n / 1e3)
            unscaled += 1
            block_ops += n
            block_ns += elapsed
            since_ref += elapsed
            phase.busy_ns += elapsed
            done = deadline is not None and (phase.busy_ns >= budget_s * 1e9
                                             or time.monotonic() > deadline)
            if since_ref >= REF_EVERY_NS or done or k == len(xs) - 1:
                units = ref.units_for(since_ref // 10)
                before = last_ref
                last_ref = (ref.run(units), units)
                around = ref.slowdown_of(before[0] + last_ref[0], before[1] + units)
                for i in range(len(block_latencies) - unscaled, len(block_latencies)):
                    block_latencies[i] /= around
                unscaled = 0
                ref_ns += last_ref[0]
                ref_units += units
                since_ref = 0
            if done:
                break
        phase.blocks.append((block_ops, block_ns, ref.slowdown_of(ref_ns, ref_units),
                             block_latencies, not done))
        block += 1
        if done or (blocks is not None and block >= blocks):
            return phase


def correct(*phases: Phase) -> bool:
    failed = sum(p.failed for p in phases)
    errors = any(k.startswith("error:") for p in phases for k in p.outcomes)
    return not errors and failed == 0


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (SRC / "bbcreds").glob("*.py"))


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and return (result dict, info lines)."""
    ref = WORKLOADS[workload].reference()
    import_s = IMPORT_S / ref.slowdown()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        clear_caches()
        wl = WORKLOADS[workload](seed)
        first_block = wl.inputs("run", 0)
        setups.append((time.perf_counter() - start) / ref.slowdown())
    setup_s = import_s + statistics.median(setups)

    main = run_phase(wl, ref, "run", first_block, seconds, None)
    phases = [main]
    info = [f"src_lines={src_lines()}", *wl.info(),
            f"outcomes: {dict(sorted(main.outcomes.items()))}",
            f"fail_ratio={main.failed}/{main.attempted}",
            f"median machine slowdown {main.slowdown():.3f}; "
            f"unscaled ops_per_s {main.ops_per_s(scaled=False):.1f}"]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (main.ops_per_s(), "ops/s"),
            "latency_p50_us": (main.percentile_us(0.50), "us"),
            "latency_p99_us": (main.percentile_us(0.99), "us"),
            "success_ratio": (1 - main.failed / main.attempted, "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, ref, "traced", None, None, TRACED_BLOCKS[workload], tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        per_layer = tracer.per_layer(traced.attempted, traced.slowdown())
        per_layer["trace_overhead_ratio"] = main.ops_per_s() / traced.ops_per_s()
        # The untraced phase before scaling, so that a gain seen only in the
        # scaled ops_per_s, made by slowing the reference kernel, shows.
        per_layer["unscaled_ops_per_s"] = main.ops_per_s(scaled=False)
        per_layer["machine_slowdown"] = main.slowdown()
        metrics = {k: (v, _unit(k)) for k, v in per_layer.items()}
        path = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        tracer.write(path)
        info.append(f"traced outcomes: {dict(sorted(traced.outcomes.items()))}")
        info.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    result = {
        "correct": correct(*phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def _unit(metric: str) -> str:
    if metric == "unscaled_ops_per_s":
        return "ops/s"
    if metric.endswith(".self_us_per_op"):
        return "us/op"
    if metric.endswith(".calls_per_op"):
        return "calls/op"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info:
        print(f"# {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
