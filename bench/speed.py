"""Timing rescaled to a reference core speed.

The cores this benchmark runs on change speed by tens of percent over
seconds to minutes, with the run itself unchanged (other tenants share
the host).  So every timed section is bracketed by short probes of fixed
pure-Python work, and the section's time is rescaled by how long the
probes took against PROBE_REF_S:

    reference seconds = measured seconds * PROBE_REF_S / probe seconds

A change to cayleykit moves the section time and leaves the probe alone,
so it shows in full; a change of core speed moves both and cancels out.
The raw times are reported beside the rescaled ones.
"""

import contextlib
import statistics
import threading
from time import perf_counter

# the probe's time on an otherwise idle 2-core Intel Xeon (Sapphire Rapids
# class, KVM guest) running Python 3.11
PROBE_REF_S = 0.85e-3
PROBE_REPEATS = 3


def probe():
    """Seconds the fixed probe work takes now (median of three runs)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        table = {}
        acc = 0.0
        for i in range(6000):
            table[i & 255] = acc
            acc += (i * 0.5) % 3.0
        times.append(perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Accumulates the raw and the rescaled time of timed sections.

    A section is opened by ``lap()``, which closes the open one, or by the
    ``section()`` context manager.  Probes bracket every section, and the
    section is rescaled by the mean of the probe before, the one after and
    any taken by ``sampling()`` in between."""

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.sections = []  # rescaled time of each section, in order
        self.first = None  # (start, probe seconds) of the first section
        self._open = None
        self._samples = []

    def add(self, seconds, probe_s):
        self.raw_s += seconds
        self.ref_s += seconds * PROBE_REF_S / probe_s
        self.sections.append(seconds * PROBE_REF_S / probe_s)

    def _close(self):
        end = perf_counter()
        p = probe()
        if self._open is not None:
            start, before = self._open
            probes = [before, p] + self._samples
            self.add(end - start, sum(probes) / len(probes))
            self._open = None
        self._samples = []  # a sample racing this reset is dropped, harmlessly
        return p

    def lap(self):
        """Close the open section, if any, and open the next one."""
        p = self._close()
        self._open = (perf_counter(), p)
        if self.first is None:
            self.first = self._open

    def stop(self):
        if self._open is not None:
            self._close()

    @contextlib.contextmanager
    def section(self):
        """Time the body of the ``with`` statement as one section."""
        self.lap()
        try:
            yield
        finally:
            self.stop()

    @contextlib.contextmanager
    def sampling(self, every):
        """Probe from a thread every ``every`` seconds while the body runs.

        For sections too long for their bracketing probes alone.  Each
        probe is shorter than the interpreter's switch interval, so it runs
        without handing the interpreter back to the timed thread."""
        done = threading.Event()

        def sample():
            while not done.wait(every):
                self._samples.append(probe())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            yield
        finally:
            done.set()
            sampler.join()
