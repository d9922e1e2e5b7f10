"""Host-speed probe: express host times in a reference host's units.

On a shared 2-CPU host the same pure-Python work takes up to 30% longer
for tens of seconds at a time.  Measured on such a host, the median
simulator rate of 10-second windows spread by 0.15 (quartile distance
over median), and by 0.05 once each round's rate was scaled by a probe
taken just before it.  So every host-time metric is scaled by
``NOMINAL_S / probe``, where ``probe`` is the time of a fixed loop run
next to the measured work and ``NOMINAL_S`` that loop's time on the
reference host.  The raw values are printed too.

The probe is the benchmark's own code and never changes between the
two commits a comparison measures, so it cannot hide a change in the
program; it only removes the host's drift.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: the probe's wall time on an unloaded reference host (a shared 2-CPU
#: VM, Python 3.11); it only sets the scale of the reported numbers.
NOMINAL_S = 0.0060


def _loop() -> int:
    table = {}
    total = 0
    for i in range(40_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 7) >> 3
    return total + len(table)


def probe() -> float:
    """Wall seconds of one run of the fixed loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Speed:
    """Probes taken through a run; ``factor`` scales a host time to the
    reference host (multiply rates by ``1 / factor``)."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def add(self, *samples: float) -> float:
        """Record the mean of probes taken on the processes doing the
        work; returns the factor it alone implies."""
        sample = sum(samples) / len(samples)
        self.samples.append(sample)
        return NOMINAL_S / sample

    def probe(self) -> float:
        """Probe this process; returns the factor it alone implies."""
        return self.add(probe())

    def factor(self) -> float:
        """The factor implied by the median probe so far."""
        return NOMINAL_S / statistics.median(self.samples)
