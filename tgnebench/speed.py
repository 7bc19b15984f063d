"""Host-speed sampler: rescales wall times to a fixed reference speed.

A shared host runs this benchmark at one of two speeds, about 1.3-1.5x
apart, and flips between them within a second or stays at one for a
minute. Averaged over a whole 36 s run, the share of slow time still moves
a wall time by 15-25 % from run to run.

While an operation runs, a SIGALRM timer interrupts it every ``PERIOD_S``
of wall time and times one fixed probe: a pure-Python dict loop that calls
nothing from tgne. The operation's time at the reference speed is

    (wall - time spent in the probe) * PROBE_REF_S / mean probe time

which reads as the seconds the operation would take on a host that runs
the probe in ``PROBE_REF_S``. The probe never calls the package, so a
change to tgne moves the rescaled time exactly as it moves the wall time.
Python runs the handler between bytecodes of the main thread, so a long
call into C code delays the next probe until it returns.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
PROBE_ITERS = 2500
# median seconds of one probe on the reference host, 2 vCPUs of an Intel
# Xeon VM on a shared machine; a probe costs about 1 % of the time sampled
PROBE_REF_S = 0.00045


def probe() -> float:
    """Wall seconds for one fixed pure-Python dict loop."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_ITERS):
        counts[i % 61] = counts.get(i % 61, 0) + i * i
    return time.perf_counter() - start


class Window:
    """Probe times taken while one timed operation ran.

    ``probe_s`` is their mean and ``cost_s`` the wall time the handler took
    away from the operation. An operation shorter than ``PERIOD_S`` gets one
    probe right after it, outside its time.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.cost_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.cost_s += time.perf_counter() - start

    def __enter__(self) -> "Window":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:
            self.probes.append(probe())

    @property
    def probe_s(self) -> float:
        return sum(self.probes) / len(self.probes)

    def rescale(self, wall_s: float) -> float:
        """``wall_s``, timed inside this window, at the reference speed."""
        return max(wall_s - self.cost_s, 0.0) * PROBE_REF_S / self.probe_s
