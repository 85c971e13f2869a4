"""A speed probe that puts times measured on a shared host on one scale.

On a host whose cores are shared with other tenants, the same fixed work can
take 1.6 times longer for seconds or minutes at a stretch, and cpu time
follows wall time, so neither is steady from run to run.  The probe runs a
fixed piece of pure-Python work (set intersections, big-int bit operations,
dict updates: the mix the workloads spend their time in) next to the timed
work and during it, and a time is then expressed in probe units:

    normalised seconds = (elapsed - probe time inside it) / mean probe time * PROBE_S

that is, the time the work would take on a machine where one probe takes
exactly PROBE_S.  Inside a timed stretch the probe runs from a SIGALRM
handler every INTERVAL seconds, in the main thread between bytecodes, so a
long call is measured at the speed it actually ran at; its own time is
subtracted.  The probe never changes with the program under test.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PROBE_S = 1e-3  # the nominal duration of one probe
INTERVAL = 0.05  # seconds between probes inside a timed stretch

_SET_A = frozenset(range(0, 900, 2))
_SET_B = frozenset(range(0, 900, 3))
_WORD = (1 << 1200) - 987654321


def _work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(110):
        acc += len(_SET_A & _SET_B)
        acc += ((_WORD >> (i * 7 % 1100)) & _WORD).bit_count()
        table[i & 31] = table.get(i & 31, 0) + acc
    return acc


class SpeedProbe:
    """Probe durations, taken on demand by ``sample()`` and every INTERVAL
    seconds while ``running()``."""

    def __init__(self):
        self.durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer tick during an on-demand probe
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _work()
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.durations)

    def normalise(self, elapsed: float, first: int, inside: tuple[int, int]) -> tuple[float, float]:
        """For a stretch of ``elapsed`` seconds bracketed by the probes from
        index ``first`` on, with probes ``inside[0]:inside[1]`` run during
        it: (elapsed minus the inside probes' time, normalised seconds)."""
        net = elapsed - sum(self.durations[inside[0]:inside[1]])
        return net, net / statistics.fmean(self.durations[first:]) * PROBE_S
