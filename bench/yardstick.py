"""A fixed reference computation, timed at a steady rate through a run.

The speed of a shared host drifts over minutes, and a raw round time
follows that drift.  ``Yardstick`` runs ``reference_work`` every
``interval`` seconds of wall time while a run measures, from a SIGALRM
handler, so it is timed at the same moments as the operations around it.
The benchmark reports each round's time in units of the reference's
median time during that round, and takes the time spent in the reference
out of the operation it interrupted.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_BIG = _rng.normal(size=100_000)
_IDX = _rng.integers(0, _BIG.size, size=_BIG.size)
_STARTS = np.arange(0, _BIG.size, 7)
_M = _rng.normal(size=(16, 16)) / 4.0
_V = _rng.normal(size=16)
_PICK = np.arange(16) % 5
_TEXT = json.dumps([float(v) for v in _BIG[:1500]])


def reference_work() -> float:
    """About 8 ms of work that does not use pathlift.

    It mixes what the workloads spend their time on: interpreter work on a
    dict; parsing a JSON list of floats, as a network file load does; many
    numpy calls on 16-vectors, as the per-neuron passes make; and gathers
    and reductions over 1e5 floats, the conv grid's size.  It creates
    almost no objects the garbage collector tracks, so it does not move
    the collections inside the operation it interrupts.
    """
    acc = {}
    for i in range(12000):
        k = (i * 7919) % 1009
        acc[k] = acc.get(k, 0.0) + i * 0.5
    order = sorted(acc, key=acc.__getitem__)
    values = json.loads(_TEXT)
    v = _V
    for _ in range(300):
        v = np.maximum(_M @ v, 0.0)
        v = v / (np.abs(v).sum() + 1.0) + _V[_PICK]
    g = _BIG[_IDX]
    s = np.add.reduceat(g, _STARTS)
    np.argsort(g[:20_000])
    return float(v.sum() + s[-1]) + order[0] + values[0]


class Yardstick:
    """While armed (``with``), runs ``reference_work`` every ``interval``
    seconds and records each call's time."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []  # seconds of each reference_work call
        self.spent = 0.0  # their sum
        self.marks = []  # len(samples) at the end of each round

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """The time now minus the time spent in the reference so far.

        The two are read with no reference call between them."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def end_round(self):
        self.marks.append(len(self.samples))

    def in_units(self, round_totals) -> list:
        """Each round's time over the median time of the reference calls
        made during it.

        Per round, so a change in the host's speed that lasts a round is
        divided out; a median, so a spell shorter than half a round and a
        single slow call are not.  A round with no call uses every call."""
        out = []
        start = 0
        for total, end in zip(round_totals, self.marks):
            times = self.samples[start:end] or self.samples
            out.append(total / statistics.median(times))
            start = end
        return out

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.samples:  # a run shorter than one interval
            self._tick()
        return False
