"""Speed gauges: they rescale timings to a fixed reference machine speed.

The cores of a small shared host switch between speed states (on the
reference machine two states 1.6-1.8x apart, each lasting from under a
second to minutes), so a raw timing says as much about when it was taken as
about the program. A gauge is a fixed piece of work that imports nothing of
cpttree, so no change to the program moves it. Timed right before and right
after an operation on the same core, it tells how fast the machine ran; the
operation's time scaled by ``reference / gauge time`` is its time at the
reference speed. A faster program makes every operation shorter and leaves
the gauge as it is, so the scaled time moves with the program and not with
the machine. An operation that runs for many states is timed in slices: while
it runs, the compute gauge also samples itself every ``INTERVAL_S`` of wall
time from a ``SIGALRM`` handler, and the time those samples take is taken
off the operation's time.

Two gauges, because work inside one process and the start of a fresh
interpreter (page faults, unmarshalling) slow down differently:

* ``Gauge`` does what the Choquet kernel and the compass loop do -- a Python
  loop over tiny numpy arrays (sort, power, cumulative sum, float
  conversions). It rescales the operations of the in-process workloads.
* ``START_ARGV`` starts a fresh interpreter that imports numpy and a few
  standard modules and exits. It rescales the fresh-interpreter timings:
  the set-up probes and the ``cli`` calls.
"""

from __future__ import annotations

import signal
import time

import numpy as np

ROWS = 100
INTERVAL_S = 0.1
# the kernel's time, and the start-up gauge's, on the reference machine in its
# fast state (see README); only fixed scales: any constants give the same spreads
REF_S = 0.0007
REF_START_S = 0.15
START_ARGV = ["-c", "import numpy, json, argparse, decimal"]


class Gauge:
    """The compute gauge. ``arm`` starts sampling it every INTERVAL_S inside
    the code that runs next; ``disarm`` stops and returns those samples."""

    def __init__(self):
        self.rows = np.random.default_rng(0).standard_normal((ROWS, 8))
        self.sink = 0.0
        self.inside: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append((time.perf_counter(), self.sample()))

    def arm(self) -> None:
        self.inside = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self, until: float) -> list[float]:
        """Stop sampling; the samples that started before ``until`` (the end
        of the timed work, read in the main thread, so they ran inside it)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside, self.inside = self.inside, []
        return [seconds for start, seconds in inside if start < until]

    def sample(self) -> float:
        """Seconds one pass of the kernel takes now."""
        acc = 0.0
        t0 = time.perf_counter()
        for row in self.rows:
            s = np.sort(row)
            c = np.cumsum(np.power(np.abs(s), 0.7)[::-1])
            acc += float(c[-1]) + sum(float(v) for v in s[:4])
        elapsed = time.perf_counter() - t0
        self.sink += acc
        return elapsed


def scaled(seconds: float, samples: list[float], ref: float) -> float:
    """``seconds`` at the reference speed, from the gauge samples taken
    around (and, for the compute gauge, inside) the timed work."""
    return seconds * ref * len(samples) / sum(samples)
