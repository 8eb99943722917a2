"""The host's speed, measured with a fixed reference kernel.

The benchmark runs on a shared host whose speed drifts by 1.1-1.5x for
minutes at a time, far more than the bounds a change is judged by.  The
library is pure Python, so its speed tracks that of a fixed pure-Python
kernel timed beside it.  ``SpeedProbe`` times the kernel throughout a
run, and ``scale_at()`` converts a time measured in a given interval to
*reference speed*: the speed at which the kernel takes ``REF_S``.  The
conversion uses the kernel times around that interval, because the host
also switches between a fast and a slow state for seconds at a time.

The kernel uses no library code, so no change to the library moves it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

#: the kernel's time at reference speed, about its typical time on the
#: 2-vCPU VM the baseline was measured on
REF_S = 0.0035

#: kernel times this close to an interval, in seconds, are its speed
NEAR_S = 0.25

_RNG_SEED = 20131007


def reference_kernel() -> int:
    """Fixed pure-Python work: a random tree's BFS, sorting, tuples, hashing.

    Dict, list and set traffic like the library's embedding code, and
    the same every call.
    """
    rng = random.Random(_RNG_SEED)
    n = 500
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    digest = 0
    for root in (0, n // 3, n // 2):
        seen = {root}
        order = [root]
        i = 0
        while i < len(order):
            for w in adj[order[i]]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            i += 1
        order.sort(key=lambda x: (len(adj[x]), -x))
        digest ^= hash(tuple((v, tuple(sorted(adj[v]))) for v in order))
    return digest


class SpeedProbe:
    """Times the reference kernel, at most once every ``every`` seconds.

    ``maybe_sample`` is called between jobs.  Inside ``ticking()`` a timer
    signal also samples every ``every`` seconds in the middle of a job, so
    that a ten-second job is covered too; ``stolen`` adds up the time the
    signal handler took, for the caller to take off the job's time.
    """

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample was taken
        self.stolen = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the library's garbage is not the kernel's cost
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)
            self.times.append(t0)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from this run's times to times at reference speed."""
        return REF_S / statistics.median(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """The factor for a time measured from ``start`` to ``end``.

        It comes from the kernel times within ``NEAR_S`` of the interval,
        or from the whole run when there are none.
        """
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        near = self.samples[lo:hi]
        return REF_S / statistics.median(near) if near else self.scale()
