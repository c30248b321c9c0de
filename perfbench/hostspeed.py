"""The host's speed while a workload runs, from a fixed pure-Python probe.

A shared 2-core VM runs the same code up to 1.6x slower for minutes at a
time (other tenants of the physical host), and CPU time slows with
wall time, so neither is steady from one run to the next.  A fixed loop
(:func:`probe_seconds`, ~0.7 ms) slows by the same factor as the
workload.  :class:`HostSpeed` runs that loop every 50 ms of the
process's CPU time (``SIGPROF``), or whenever the caller asks, and
:meth:`HostSpeed.slowdown` turns the probes taken during a request into
its slowdown against REFERENCE_PROBE_SECONDS.  A request's time divided
by its slowdown is its time at the reference speed.  A cold start runs
the same loop in the child (:func:`probe_code`), since the child may run
on the other, differently loaded, core.
"""

from __future__ import annotations

import bisect
import contextlib
import inspect
import signal
import statistics
import time
from typing import Iterator

#: Iterations of the probe loop.
PROBE_LOOP = 10_000
#: The probe's time at the reference speed: its median on the 2-core
#: Xeon VM (2.0 GHz, CPython 3.11) the benchmark was tuned on, while
#: that host ran at full speed.
REFERENCE_PROBE_SECONDS = 0.00072
#: Probe interval in seconds of process CPU time.
CPU_INTERVAL = 0.05
#: Probes taken nearest a request that contains none (short requests).
NEAREST = 4


def probe_seconds() -> float:
    """Time of one fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def probe_code(before: str, after: str) -> str:
    """Python source that takes 3 probes, runs ``before``, takes 3 more,
    then runs ``after``; ``before`` and ``after`` see the six probe times
    as ``probes``."""
    return (
        f"import time\nPROBE_LOOP = {PROBE_LOOP}\n"
        f"{inspect.getsource(probe_seconds)}"
        "probes = [probe_seconds() for _ in range(3)]\n"
        f"{before}"
        "probes += [probe_seconds() for _ in range(3)]\n"
        f"{after}"
    )


def child_seconds(elapsed: float, probes: list[float]) -> float:
    """A cold start's time at the reference speed, without its probes."""
    slowdown = statistics.fmean(probes) / REFERENCE_PROBE_SECONDS
    return (elapsed - sum(probes)) / slowdown


class HostSpeed:
    """Probe samples ``(start, seconds)`` in ``perf_counter`` time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.seconds.append(probe_seconds())
        self.starts.append(start)

    def _on_timer(self, _signum: int, _frame: object) -> None:
        self.sample()

    @contextlib.contextmanager
    def on_cpu_timer(self) -> Iterator[None]:
        """Sample now, then every CPU_INTERVAL of this process's CPU time."""
        self.sample()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, CPU_INTERVAL, CPU_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` (or of the NEAREST probes
        around it, when none started inside) over the reference time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if lo == hi:
            lo = max(0, lo - NEAREST // 2)
            hi = min(len(self.seconds), lo + NEAREST)
        return statistics.fmean(self.seconds[lo:hi]) / REFERENCE_PROBE_SECONDS

    def mean_slowdown(self) -> float:
        """The slowdown over every probe taken."""
        return statistics.fmean(self.seconds) / REFERENCE_PROBE_SECONDS
