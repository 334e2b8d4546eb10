"""A fixed probe of the machine's current speed.

The benchmark shares a few cores of a host with other tenants, and their
load slows the whole machine in spells that last from seconds to
minutes. :func:`probe` times a fixed piece of work that does not touch
``oldb2d``: interpreted Python calls, many numpy operations on small
arrays, and a few on a large array, the three kinds of work the
workloads do. ``run.py`` probes before and after every run of the
program and rescales the run's times to a machine on which the probe
takes :data:`REFERENCE_S`, so that a slow spell does not read as a
slower program.
"""

from __future__ import annotations

import time

import numpy as np

#: probe time, in seconds, of the reference machine the time metrics are
#: rescaled to (about the median probe on the 2-core x86-64 machine the
#: benchmark was written on, where it ranged from 0.24 to 0.33 s)
REFERENCE_S = 0.3


class _Cell:
    def __init__(self, v: int) -> None:
        self.v = v

    def step(self, x: int) -> int:
        return self.v * x + 1


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    cells = [_Cell(i) for i in range(100)]
    acc = 0
    for k in range(6000):
        for c in cells:
            acc += c.step(k) & 7
    rng = np.random.default_rng(0)
    fields = [rng.random((68, 68)) for _ in range(7)]
    for _ in range(450):
        for a in fields:
            d = (a[2:, 1:-1] - a[:-2, 1:-1]) * 0.5
            a[1:-1, 1:-1] -= 1e-4 * d
            acc += int(d.sum() > 0)
    big = rng.random((512, 512))
    for _ in range(60):
        diff = np.roll(big, 1, axis=1) - big
        big = big + 1e-3 * diff * diff
    return time.perf_counter() - t0
