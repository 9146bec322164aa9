"""Reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to 2x over seconds as
other tenants come and go, and a whole run can sit in a slow stretch. The
benchmark times this fixed kernel between operations and divides every
timing of a block by the kernel's slowdown against its NOMINAL_NS, so times
are reported at one nominal machine speed. The kernel runs none of bbcreds,
so a change to the program does not change its work; its mix (an Ed25519
verify, a pure-Python table loop, small numpy gathers and SHA-256 calls)
follows the mix of the measured operations. The write path signs and
samples where the read paths verify and decode, so it has a kernel of its
own, ``WriteReference``.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import time

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey


class Reference:
    """The kernel's fixed inputs, and timing of whole units of it."""

    # About the median time of one kernel unit on the shared 2-core virtual
    # machine the benchmark was defined on; it only scales the reported numbers.
    NOMINAL_NS = 400_000

    def __init__(self) -> None:
        key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._public = key.public_key()
        self._message = b"bbcreds reference kernel"
        self._signature = key.sign(self._message)
        self._table = list(range(511))
        self._powers = np.arange(1, 129, dtype=np.int64)
        self._rows = np.arange(1, 17, dtype=np.int64)
        self._exp = np.arange(511, dtype=np.int64)

    def _unit(self) -> int:
        self._public.verify(self._signature, self._message)
        table, acc = self._table, 0
        for i in range(300):
            acc ^= table[(acc + 7 * i) % 511]
        for _ in range(8):
            idx = (self._rows[:, None] * self._powers[None, :]) % 511
            acc ^= int(np.bitwise_xor.reduce(self._exp[idx], axis=1)[0])
        for i in range(20):
            acc ^= hashlib.sha256(i.to_bytes(8, "big")).digest()[0]
        return acc

    def run(self, units: int) -> int:
        """Run the kernel ``units`` times; returns the elapsed nanoseconds.

        One untimed unit runs first, so the timed ones find their code and
        data in cache and depend less on what the program left there. The
        garbage collector is off meanwhile, so no collection of the
        program's objects lands in the kernel's time. It is not run before
        the kernel either: that would take collections out of the
        program's timed operations. No other thread may be running, as one
        would share the kernel's core and slow it for the program's sake.
        """
        if threading.active_count() != 1:
            raise RuntimeError(f"{threading.active_count()} threads are running; "
                               "the reference kernel needs the process to itself")
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._unit()
            start = time.perf_counter_ns()
            for _ in range(units):
                self._unit()
            return time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()

    def units_for(self, ns: int) -> int:
        """Units that take about ``ns`` at nominal speed; at least one."""
        return max(1, round(ns / self.NOMINAL_NS))

    def slowdown_of(self, ns: int, units: int) -> float:
        """Time per unit over the nominal one (> 1 on a slow machine)."""
        return ns / (units * self.NOMINAL_NS)

    def slowdown(self, units: int = 20) -> float:
        """Slowdown measured now over ``units`` units."""
        return self.slowdown_of(self.run(units), units)


class WriteReference(Reference):
    """The kernel plus an Ed25519 signature and a normalised Gaussian sample,
    the work that enrollment adds to the read paths' mix. In paired runs of
    the enroll workload over eight seeds it cut the spread of scaled
    ops_per_s from 0.053 to 0.034; on far_impostor it widened it, so the
    read paths keep the plain kernel."""

    NOMINAL_NS = 540_000

    def __init__(self) -> None:
        super().__init__()
        self._key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))

    def _unit(self) -> int:
        acc = super()._unit()
        self._key.sign(self._message)
        v = np.random.default_rng(7).standard_normal(512)
        v /= np.linalg.norm(v)
        return acc ^ int(v[0] > 0) ^ len(tuple(range(511)))
