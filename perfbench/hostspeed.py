"""Host-speed sampler: fixed pure-Python probes timed *during* a pass.

On a shared host the speed of the same interpreter code drifts by tens
of percent, both from one second to the next and between quiet and busy
minutes.  CPU time tracks wall time, so this is other tenants slowing
the cores (both cores of the development host slow together), not
scheduling.  A probe timed only between passes misses most of it.

So every untraced pass runs a :class:`Sampler`: a ``SIGALRM`` interval
timer interrupts the pass every ``INTERVAL_S`` seconds and times one
small probe, alternating two kinds -- dict lookups in a table that fits
the core's caches (``small``), and random lookups in a 400k-entry table
that does not (``big``) -- so that it sees both a slower core and a
busier memory system.  Each probe's own time is taken out of the pass's
times, and what is left is rescaled to *reference-host seconds*::

    reference_s = (host_s - probe_s) * speed
    speed       = (mean(SMALL_REF / small_i) * mean(BIG_REF / big_i)) ** (EXPONENT / 2)

over the probes of the same stretch of time.  On a host exactly as fast
as the reference, reference-host seconds equal host seconds.

``EXPONENT`` is fitted: when the host slows, the grids slow a little
more than the probes.  On the development host, passes of three
workloads were taken on slow and on fast stretches, whose raw grid
times differed by a factor of 1.6-1.8.  Regressing log grid time on
log probe speed over all of them gave slopes of 1.19-1.27.  With 1.2
the median rescaled passes of the stretches agreed within 0.3-4.5%,
where a plain ratio (slope 1) left the slow stretches 1-12% high and a
slope of 1.5, fitted on a slow stretch alone, left the fast ones
10-13% high.  Within a stretch the pass-to-pass wobble follows the
probes less closely, so a run takes the median of several passes.

A job is rescaled by the probes of at least the 0.1 s around it:
narrower windows see too few probes, wider ones miss how fast the
host's speed changes.  Ticking every 10 ms instead of 20 ms cut the
jobs' spread by another 10-15%.

The probes import nothing from ``repro``: a change to the program never
changes them.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

#: probe times of the reference host: the development host (2-core
#: x86-64 VM at 2.1 GHz, CPython 3.11) during a grid on a slow stretch.
SMALL_REF_S = 0.00050
BIG_REF_S = 0.00140

INTERVAL_S = 0.010  # one probe per tick; about 10% of a pass
EXPONENT = 1.2
JOB_WINDOW_S = 0.1

_SMALL_ENTRIES = 4096
_BIG_ENTRIES = 400_000
_BIG_LOOKUPS = 1500
_HASH = 2654435761


def _key(i: int) -> int:
    return i * _HASH % (1 << 40)


class Sampler:
    """The probes' tables, built once per pass, and the probes taken.

    ``samples`` holds ``(start, kind, seconds)`` per probe, with
    ``start`` on the ``time.monotonic`` clock.  The big table is a dict
    of ints only, so the garbage collector does not track it;
    ``footprint_mb`` is the resident memory it adds, which the pass
    takes out of its peak RSS.
    """

    def __init__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.small = {_key(i) % 65536: i for i in range(_SMALL_ENTRIES)}
        self.small_keys = list(self.small)
        self.big = {_key(i): i for i in range(_BIG_ENTRIES)}
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.footprint_mb = (after - before) / 1024.0
        self.samples = []
        self._tick = 0
        self._cursor = 0

    def _probe_small(self) -> int:
        table, keys = self.small, self.small_keys
        total = 0
        for i in range(0, 2 * _SMALL_ENTRIES, 3):
            total += table[keys[i & (_SMALL_ENTRIES - 1)]] ^ (i * 7)
        return total

    def _probe_big(self) -> int:
        table = self.big
        start = self._cursor
        total = 0
        for j in range(start, start + _BIG_LOOKUPS):
            total += table[_key(j * _HASH % _BIG_ENTRIES)]
        self._cursor = (start + _BIG_LOOKUPS) % _BIG_ENTRIES
        return total

    def _on_alarm(self, signum, frame) -> None:
        kind = self._tick & 1
        self._tick += 1
        start = time.monotonic()
        if kind:
            self._probe_big()
        else:
            self._probe_small()
        self.samples.append((start, kind, time.monotonic() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Host time the probes took between ``t0`` and ``t1``."""
        return sum(s for start, _, s in self.samples if t0 <= start < t1)

    def speed(self, t0: float, t1: float) -> float:
        """Reference seconds per host second between ``t0`` and ``t1``;
        the whole pass's probes if that stretch lacks a kind."""
        window = [(k, s) for start, k, s in self.samples if t0 <= start < t1]
        if len({k for k, _ in window}) < 2:
            window = [(k, s) for _, k, s in self.samples]
        small = statistics.mean(SMALL_REF_S / s for k, s in window if k == 0)
        big = statistics.mean(BIG_REF_S / s for k, s in window if k == 1)
        return (small * big) ** (EXPONENT / 2)

    def to_reference(self, t0: float, t1: float, min_width: float = 0.0) -> float:
        """Host seconds from ``t0`` to ``t1``, probes taken out, in
        reference-host seconds; the speed comes from a stretch widened
        around it to at least ``min_width`` seconds."""
        host = t1 - t0 - self.probe_seconds(t0, t1)
        margin = max(0.0, (min_width - (t1 - t0)) / 2)
        return host * self.speed(t0 - margin, t1 + margin)
