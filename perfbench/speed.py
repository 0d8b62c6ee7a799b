"""Host-speed probes, so that timings from a shared host can be compared.

The benchmark runs on a few vCPUs of a shared host. Their speed moves by
up to half within seconds and drifts over minutes; CPU time moves with it,
so neither wall nor CPU time of the same work repeats from run to run (see
NOTES.md). A probe times a fixed piece of work that is benchmark code and
never touches cycloseq, in the two kinds cycloseq spends its time on: an
interpreted loop storing into a list, and numpy gathers from a 4 x 4 table
by uint8 index arrays followed by an xor-reduce (the shape of the GF(4)
products in Berlekamp-Massey and the gcd route). REF_S is what a probe
takes at the reference speed: about its median on the 2-vCPU Xeon host
the benchmark was defined on.

A span of work that took t seconds while probes read p1..pk is reported
as t * mean(REF_S / pi): the seconds it would have taken at the reference
speed. A change to cycloseq moves these scaled times in proportion, as it
moves raw times; the host's speed at the moment of the run cancels out.
The raw times are recorded beside them.
"""

import signal
import statistics
import time

import numpy as np

REF_S = 0.00012
INTERVAL_S = 0.01

_SMALL = tuple(range(200)) * 5
_TABLE = np.arange(16, dtype=np.uint8).reshape(4, 4) ^ 3
_ROWS = (np.arange(4096) * 7 % 4).astype(np.uint8)
_COLS = (np.arange(4096) * 5 % 4).astype(np.uint8)


def probe():
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    slots = [0] * 64
    for x in _SMALL:
        slots[x & 63] = x
    for _ in range(4):
        np.bitwise_xor.reduce(_TABLE[_ROWS, _COLS])
    return time.perf_counter() - start


def speed_factor(probes):
    """Reference seconds per raw second, from probe readings."""
    return statistics.fmean(REF_S / p for p in probes)


class Sampler:
    """Probes the host every INTERVAL_S while installed, from SIGALRM.

    The handler runs between bytecodes of the main thread, inside whatever
    operation is running; the time it takes is kept in `spent`, so the
    caller can take it out of the operation's time. Each operation is
    bracketed by begin() and end(), which also probe at its edges, so a
    short operation still gets two readings.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        took = probe()
        self.probes.append(took)
        self.spent += took

    def install(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        self.probes = [probe()]
        self.spent = 0.0

    def end(self):
        """Speed factor over the operation since begin()."""
        self.probes.append(probe())
        return speed_factor(self.probes)
