"""Span tracing of bbcreds layers, installed from outside the package.

Each traced function is replaced, at every place callers look it up, by a
wrapper that records one span (operation id, name, start, end, parent) while
the tracer is active. Modules bind many names with ``from ... import``, so a
function is patched in every ``bbcreds`` module that holds it, and methods
are patched on their class. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from pathlib import Path

# (metric name, module of bbcreds, attribute or Class.attribute)
LAYERS = (
    ("synthbio.sample_genuine", "synthbio", "sample_genuine"),
    ("synthbio.sample_impostor", "synthbio", "sample_impostor"),
    ("quantize.quantize", "quantize", "quantize"),
    ("quantize.QuantizerConfig.default", "quantize", "QuantizerConfig.default"),
    ("ecc.encode", "ecc", "BchCodec.encode"),
    ("ecc.decode", "ecc", "BchCodec.decode"),
    ("kdf.hkdf_sha256", "kdf", "hkdf_sha256"),
    ("fextract.fe_generate", "fextract", "fe_generate"),
    ("fextract.fe_reproduce", "fextract", "fe_reproduce"),
    ("fextract.encode_helper", "fextract", "encode_helper"),
    ("fextract.decode_helper", "fextract", "decode_helper"),
    ("credential.issue_agecred", "credential", "issue_agecred"),
    ("credential.verify_agecred", "credential", "verify_agecred"),
    ("binding.bind_enroll", "binding", "bind_enroll"),
    ("binding.unbind_auth", "binding", "unbind_auth"),
    ("store.encode_record", "store", "encode_record"),
    ("store.decode_record", "store", "decode_record"),
    ("parties.device_enroll", "parties", "device_enroll"),
    ("parties.device_authenticate", "parties", "device_authenticate"),
    ("parties.rp_check_access", "parties", "rp_check_access"),
    ("parties.InProcessAsp.handle", "parties", "InProcessAsp.handle"),
    ("evaluate.estimate_far", "evaluate", "estimate_far"),
)

_RAISED = object()


class Tracer:
    """Records nested spans of the LAYERS functions during operations."""

    def __init__(self) -> None:
        # span: (op id, name, start ns, end ns, parent index or -1, returned None)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- operation boundaries -------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the root span of one operation; layers are traced until end_op."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        idx = self._stack.pop()
        self.spans[idx] = (self._op, "op", self._op_start, time.perf_counter_ns(), -1, False)

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self._op, name, start, end, parent, result is None)

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every LAYERS function where the package's modules see it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bbcreds" or n.startswith("bbcreds.")]
        for name, modname, qual in LAYERS:
            mod = importlib.import_module(f"bbcreds.{modname}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
                continue
            fn = getattr(mod, qual)
            traced = self._wrap(name, fn)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    self._set(m, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def per_layer(self, ops: int, slowdown: float) -> dict[str, float]:
        """calls_per_op and self_us_per_op for every layer, plus ecc.decode.fail_ratio.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap. It is
        divided by the machine slowdown measured over the traced operations.
        """
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {name: 0 for name, _, _ in LAYERS}
        self_ns = dict.fromkeys(calls, 0)
        nones = dict.fromkeys(calls, 0)
        for i, (_, name, start, end, _, returned_none) in enumerate(self.spans):
            if name in calls:
                calls[name] += 1
                self_ns[name] += end - start - child_ns[i]
                nones[name] += returned_none
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_us_per_op"] = self_ns[name] / ops / 1e3 / slowdown
        decodes = calls["ecc.decode"]
        out["ecc.decode.fail_ratio"] = nones["ecc.decode"] / decodes if decodes else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as f:
            f.write("op,span,parent,name,start_ns,end_ns\n")
            for i, (op, name, start, end, parent, _) in enumerate(self.spans):
                f.write(f"{op},{i},{parent},{name},{start},{end}\n")
