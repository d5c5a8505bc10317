"""Machine-speed calibration for the timed passes.

The benchmark runs on shared hosts whose CPU speed moves by 20-40% between
phases that last from under a second to over a minute, so the wall time of
the same pass differs by that much from one run to the next. While a pass
runs, :class:`SpeedProbe` times a fixed pure-Python loop (a breadth-first
search and a retrograde-style counter sweep over a grid, the same kind of
dict, set and list work the package does) every ``PERIOD_S`` seconds of
wall time, from a ``SIGALRM`` handler in the measuring thread: no extra
thread or process. Each stretch of the pass between two samples is scaled
by ``REFERENCE_S`` over the loop's mean time at the stretch's two ends, and
the stretches add up to the pass's *calibrated* time: the seconds the pass
would take on a machine where the loop takes ``REFERENCE_S``. The loop is
the benchmark's own code, so a change to the package moves the calibrated
time exactly as it moves the wall time at a fixed machine speed.

The loop's own time is not part of either figure: ``wall`` is the pass's
wall time without it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.2        # wall time between speed samples
REFERENCE_S = 0.002   # loop time that defines one calibrated second

_SIDE = 40
_ADJ = [[r * _SIDE + c2 for c2 in (c - 1, c + 1) if 0 <= c2 < _SIDE]
        + [r2 * _SIDE + c for r2 in (r - 1, r + 1) if 0 <= r2 < _SIDE]
        for r in range(_SIDE) for c in range(_SIDE)]


def calibration_loop() -> float:
    """Time one fixed unit of interpreter work; returns seconds."""
    start = time.perf_counter()
    adj = _ADJ
    dist = {0: 0}
    queue = [0]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    count = [len(a) for a in adj]
    frontier = [0]
    seen = {0}
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                count[u] -= 1
                if count[u] <= 2 and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager around one timed pass; afterwards ``wall`` is its
    wall time and ``calibrated`` its calibrated time, both in seconds."""

    _active = None

    def __enter__(self):
        if SpeedProbe._active is not None:
            raise RuntimeError("speed probes do not nest")
        self.wall = self.calibrated = 0.0
        self.samples = 0
        self._loop = calibration_loop()
        SpeedProbe._active = self
        signal.signal(signal.SIGALRM, _on_alarm)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        SpeedProbe._active = None   # the handler stays installed, and idles
        return False

    def sample(self) -> None:
        now = time.perf_counter()
        loop = calibration_loop()
        stretch = now - self._mark
        self.wall += stretch
        self.calibrated += stretch * 2 * REFERENCE_S / (self._loop + loop)
        self.samples += 1
        self._loop = loop
        self._mark = time.perf_counter()


def _on_alarm(signum, frame) -> None:
    probe = SpeedProbe._active
    if probe is not None:
        probe.sample()
