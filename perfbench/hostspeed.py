"""Host speed, sampled from a thread while the benchmark's runs are timed.

The benchmark's host is a few cores of a shared machine.  Its neighbours
contend for the memory hierarchy, so the same run can take half as long
again a few minutes later, while CPU time stays equal to wall time.  A
run's wall time therefore mixes the program's speed with the host's.

:class:`HostSpeed` measures the host's side.  A thread wakes every
:data:`INTERVAL_S`, takes the GIL from the run and times a *probe*: a fixed
number of look-ups, in shuffled order, into a dictionary of
:data:`ENTRIES` entries, the kind of scattered interpreter memory traffic
the simulator makes.  The probe's CPU time over :data:`REFERENCE_S` is how
much slower the host is than the reference host at that moment.  A run's
*slowdown* is the mean over the probes made during it, and ``run.py``
scales the run's throughput by it.  The scaling removes the host's drift,
not the program's speed: a change to the program leaves the probe alone.
The thread costs the run about 2 % of its time, the same on every commit.
"""

from __future__ import annotations

import random
import statistics
import threading
import time

#: Mean probe time on a quiet 2-core Xeon (Sapphire Rapids) KVM guest
#: under Python 3.11.  Only ratios of the scaled figures mean anything;
#: this constant keeps them near the raw ones.
REFERENCE_S = 4.0e-4
#: Seconds the sampling thread sleeps between probes.
INTERVAL_S = 0.015
#: Dictionary entries the probe looks up (about 45 MB with their keys).
ENTRIES = 400_000
#: Look-ups per probe.
PROBE_KEYS = 400


class HostSpeed:
    """Samples the host's speed from a daemon thread, as a context manager.

    Build it after anything that measures this process's peak memory:
    its dictionary is resident for as long as it lives.
    """

    def __init__(self) -> None:
        rng = random.Random(2011)
        self._table = {rng.getrandbits(40): i for i in range(ENTRIES)}
        self._keys = list(self._table)
        rng.shuffle(self._keys)
        self._at = 0
        self._samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-hostspeed")

    def probe(self) -> float:
        """CPU seconds of one probe, at the next place in the key order."""
        table = self._table
        keys = self._keys[self._at:self._at + PROBE_KEYS]
        self._at = (self._at + PROBE_KEYS) % (ENTRIES - PROBE_KEYS)
        total = 0
        start = time.thread_time()
        for key in keys:
            total += table[key]
        return time.thread_time() - start

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._samples.append(self.probe())

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        """A position in the samples, to pass to :meth:`slowdown` later."""
        return len(self._samples)

    def slowdown(self, since: int) -> float:
        """Mean probe time since ``since``, over :data:`REFERENCE_S`.

        With no probe in between (a run shorter than the interval), one
        probe is made now.
        """
        samples = self._samples[since:] or [self.probe()]
        return statistics.mean(samples) / REFERENCE_S
