"""Timings in seconds at a fixed reference speed, for a shared machine.

On a machine shared with other tenants the same pure-Python code runs up
to twice as slow for stretches of a second to minutes, CPU time included,
so two runs of the same code read very different wall times.  This clock
measures how fast the machine runs pure Python while a timed interval
runs, and scales the interval to a fixed reference speed.

A probe times one small fixed chunk of pure-Python work (tuples, dicts,
sets, a sort).  While the clock is on, a ``SIGALRM`` timer runs a probe
every ``PERIOD_S`` seconds in the main thread, between bytecodes of the
timed code, so probes sample the machine's speed uniformly over the
interval; a burst of probes before and after each interval covers short
intervals.  An interval's reference time is its wall time less the
probes run inside it, times the mean of ``CHUNK_REF_S / probe seconds``
(the work the interval did, divided by the reference rate).
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
BURST = 4
# Seconds one probe chunk takes at the reference speed: its typical time
# on an unloaded vCPU of the 2-vCPU Xeon the benchmark was defined on
# (Python 3.11).  A fixed constant, so values compare across runs and commits.
CHUNK_REF_S = 4.5e-4


def chunk() -> int:
    """A fixed piece of pure-Python work shaped like the library's.

    Adjacency sets of a small graph and their intersections, then a dict
    keyed by tuples and a sort: the kinds of work the library does.
    """
    adj = [set() for _ in range(60)]
    for i in range(900):
        a, b = i * 37 % 60, (i * 11 + 7) % 60
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    common = [sorted(adj[v] & adj[(v + 1) % 60]) for v in range(60)]
    table: dict[tuple[int, int], int] = {}
    seen = set()
    acc = 0
    for i in range(600):
        key = (i * 7919 % 211, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(key[0] ^ key[1])
        acc += len(table) & 7
    return acc + len(sorted(table)) + len(seen) + sum(map(len, common))


class RefClock:
    """Times intervals and scales them to the reference speed; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per probe
        self._saved_handler = None

    def __enter__(self) -> RefClock:
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        chunk()
        self.samples.append((start, time.perf_counter() - start))

    def time(self, fn, *args):
        """Call ``fn(*args)``; returns (result, wall seconds, reference seconds).

        The wall seconds exclude the probes run inside the call.
        """
        first = len(self.samples)
        for _ in range(BURST):
            self._probe()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        for _ in range(BURST):
            self._probe()
        probes = self.samples[first:]
        del self.samples[first:]
        work = (t1 - t0) - sum(d for s, d in probes if t0 <= s < t1)
        speed = statistics.fmean(CHUNK_REF_S / d for _, d in probes)
        return result, work, work * speed
