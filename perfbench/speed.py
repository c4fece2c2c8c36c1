"""Op times that leave out the shared host: CPU time at a reference speed.

The benchmark runs on a few cores of a shared host.  Its ops are
single-threaded, CPU-bound and do no I/O, so they are timed in CPU
seconds of the process: their wall time less the time the host gave the
CPU to other work.  The host's speed drifts as well: back-to-back runs
of one fixed pure-Python loop took 0.44 to 0.88 s within minutes, and
the same census unit ran at 18 to 31 ops/s within two minutes, longer
than a run can average over.  So the timed loop also times a fixed
reference kernel every ``EVERY_S`` seconds, and every op's CPU time is
scaled by ``REF_S / (the kernel's local median time)``: the time the op
would have taken with the host at the speed where the kernel takes
``REF_S``.  The kernel never touches the library, so a change to the
library moves the scaled times exactly as it moves the raw ones.

The kernel is plain Python like the library's: text formatting, regex
parsing and integer parsing (as in argparse and the CSV and JSON
output), and polynomial products mod p over tuples and lists (as in the
field and polynomial arithmetic).  Of the kernels tried, its time
tracked the library's best: over six minutes of census, weights, verify
and construct ops, the ops' CPU time divided by its time varied half as
much as the ops' CPU time (log standard deviation 0.02-0.025 against
0.04-0.055, over 10-second windows), where a kernel of small objects
with arithmetic dunders did not help at all on verify.
"""

from __future__ import annotations

import bisect
import re
import statistics
import time
from typing import List, Sequence

# the kernel's median time on the reference host (2-CPU Xeon VM, Python
# 3.11) in CPU seconds; scaled timings read as times on that host
REF_S = 0.0005
# seconds of ops between two kernel timings, and the kernel timings on
# each side of an op that make its local median
EVERY_S = 0.05
HALF_WINDOW = 20

_PAIR = re.compile(r"(\d+):(\d+)")


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    acc = 0
    for i in range(50):
        text = ",".join(f"{j}:{i * j % 7}" for j in range(6))
        acc += sum(int(value) for _, value in _PAIR.findall(text))
    a, b = tuple(range(1, 13)), tuple(range(3, 15))
    for _ in range(6):
        c = [0] * 23
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % 7
        a = tuple(c[:12])
    return acc + sum(a)


def cpu_time() -> float:
    """This process's CPU seconds (user and system)."""
    return time.process_time()


def time_kernel() -> float:
    """CPU seconds of one kernel call."""
    c0 = cpu_time()
    kernel()
    return cpu_time() - c0


class Gauge:
    """Kernel timings taken at most every ``EVERY_S`` seconds by ``tick``."""

    def __init__(self):
        self.at: List[float] = []
        self.took: List[float] = []
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.at.append(now)
            self.took.append(time_kernel())
            self._next = time.perf_counter() + EVERY_S

    def scale(self, when: Sequence[float], seconds: Sequence[float]) -> List[float]:
        """``seconds[i]``, measured at ``when[i]``, at the reference speed."""
        out = []
        for t, dt in zip(when, seconds):
            j = bisect.bisect(self.at, t)
            local = self.took[max(0, j - HALF_WINDOW): j + HALF_WINDOW]
            out.append(dt * REF_S / statistics.median(local))
        return out
