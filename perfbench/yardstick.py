"""Nominal time: a yardstick that takes the host's speed out of a time.

The reference host's vCPUs flip between a quiet state and one about
1.4× slower every few seconds to tens of seconds (a neighbour on the
same physical core; the two vCPUs flip independently).  Single-thread
pure-Python work follows the state exactly, so identical runs differ by
up to 40 % and no statistic *within* a run can tell that apart from a
regression.  Work that keeps both vCPUs busy (pools, the server)
averages the two states and is steady as measured.

So every run paces the host with a fixed pure-Python kernel — the
*yardstick*: tuple indexing, dict probes, set inserts, no repo code —
and maps every timestamp through a *warp*: a monotone, piecewise-linear
clock that advances at ``NOMINAL_SECONDS ÷ (yardstick time nearby)`` of
the real one.  Durations read off the warped clock are times **at
nominal host speed**: what the interval would have taken had the
yardstick run at its nominal pace throughout.  Because the warp is
monotone, span nesting and self-time arithmetic survive it.

Who reads the yardstick depends on where the measured work runs:

* single-thread workloads read it **on the measuring thread**, between
  operations, about once per 4 ms of measured work
  (:class:`Yardstick`) — that is the CPU the work itself runs on;
* workloads whose work is spread over pool processes start a
  :class:`HostSampler`: a small child process that hops over the usable
  CPUs every 20 ms (about 2 % of one CPU) and reads the yardstick on
  each; the pace of a moment is the mean over the CPUs.

The yardstick runs no code from ``src/``, so a change to the repo
cannot move it; comparisons across commits stay valid, and values from
different hosts are brought to one scale.  ``NOMINAL_SECONDS`` is the
yardstick's pace on the reference host in its quiet state, so nominal
times there read as quiet-host milliseconds.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "NOMINAL_SECONDS", "HostSampler", "Warp", "Yardstick",
]

#: The yardstick's duration on the quiet 2-CPU reference host.
NOMINAL_SECONDS = 108e-6
#: Measured work between two yardstick readings during a timed phase.
INTERVAL_SECONDS = 4e-3
#: Neighbouring readings whose median gives the local pace.
SMOOTHING = 5
#: Pause between two rounds of the host sampler over the CPUs.
SAMPLER_SLEEP_SECONDS = 0.02

_ROWS = [(i * 7919 % 1000, i % 97) for i in range(1500)]
_INDEX = {i: (i, i + 1) for i in range(0, 97, 2)}


def _kernel() -> int:
    out = set()
    probe = _INDEX.get
    for row in _ROWS:
        hit = probe(row[1])
        if hit is not None:
            out.add((row[0], hit[1]))
    return len(out)


def _reading() -> tuple[float, float]:
    """``(timestamp, seconds)`` of one yardstick reading.

    Whatever ran before may have emptied the CPU caches; the first pass
    refills them, the second is the reading.  The reading is wall-clock,
    not the thread's CPU time: measured side by side, CPU-time readings
    left the pooled workloads two to four times more spread, because
    part of the host's slow state is time the vCPU is not run at all,
    which CPU time does not see and the measured work does.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    end = time.perf_counter()
    return end, end - start


class Warp:
    """Real ``perf_counter`` timestamps → nominal-speed timestamps."""

    def __init__(self, times: list[float], seconds: list[float]) -> None:
        half = SMOOTHING // 2
        pace = [
            statistics.median(seconds[max(0, i - half): i + half + 1])
            for i in range(len(seconds))
        ]
        self._rate = [NOMINAL_SECONDS / p for p in pace]
        #: A reading's rate holds from the midpoint to the previous
        #: reading up to the midpoint to the next.
        self._edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        self._origin = times[0] if times else 0.0
        self._at_edge = []
        elapsed, previous = 0.0, self._origin
        for edge, rate in zip(self._edges, self._rate):
            elapsed += (edge - previous) * rate
            self._at_edge.append(elapsed)
            previous = edge

    def __call__(self, t: float) -> float:
        if not self._rate:
            return t
        k = bisect.bisect_right(self._edges, t)
        if k == 0:
            return (t - self._origin) * self._rate[0]
        return self._at_edge[k - 1] + (t - self._edges[k - 1]) * self._rate[k]

    def duration(self, start: float, end: float) -> float:
        return self(end) - self(start)


class Yardstick:
    """Readings taken on the measuring thread itself."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._since = 0.0

    def read(self) -> None:
        at, seconds = _reading()
        self.times.append(at)
        self.seconds.append(seconds)

    def after(self, measured: float) -> None:
        """Note ``measured`` seconds of work; read when enough piled up."""
        self._since += measured
        if self._since >= INTERVAL_SECONDS:
            self._since = 0.0
            self.read()

    def cpu_seconds(self) -> float:
        """CPU the readings themselves used (two kernel passes each)."""
        return 2 * sum(self.seconds)

    def close(self) -> Warp:
        return Warp(self.times, self.seconds)


class HostSampler:
    """Readings taken by a child process hopping over the usable CPUs.

    The child's ``perf_counter`` is the parent's: on Linux both read
    ``CLOCK_MONOTONIC``.  The child is stopped by closing its stdin and
    is always waited for; its CPU time is never in the parent's
    counters, which are read before it is reaped.
    """

    #: Upper bound on the child's life, should the parent die first.
    LIFETIME_SECONDS = 600.0

    def __init__(self) -> None:
        root = Path(__file__).resolve().parent.parent
        self._child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.yardstick"],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def read(self) -> None:
        """The child reads on its own schedule."""

    def after(self, measured: float) -> None:
        """The child reads on its own schedule."""

    def cpu_seconds(self) -> float:
        return 0.0

    def close(self) -> Warp:
        output, _ = self._child.communicate("")
        readings = json.loads(output)
        return Warp(
            [at for at, _ in readings],
            [statistics.fmean(per_cpu) for _, per_cpu in readings],
        )


def _sample_until_stdin_closes() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    readings = []
    deadline = time.monotonic() + HostSampler.LIFETIME_SECONDS
    while time.monotonic() < deadline:
        if select.select([sys.stdin], [], [], 0)[0]:
            break
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            at, seconds = _reading()
            per_cpu.append(seconds)
        readings.append((at, per_cpu))
        time.sleep(SAMPLER_SLEEP_SECONDS)
    json.dump(readings, sys.stdout)


if __name__ == "__main__":
    _sample_until_stdin_closes()
