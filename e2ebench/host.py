"""How fast the host runs a fixed kernel right now.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 2x over tens of minutes and switches between a fast and a ~1.6x slower
state within seconds.  Every process of a run times :func:`calibrate` as it
goes; the rates and set-up times are scaled by those readings (see
``run.py``), and the parent's before-and-after readings are the diagnostic
``host.probe_s``.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = np.random.default_rng(0).random((24, 24))


def calibrate(samples: int = 5) -> list[float]:
    """Times of a fixed kernel, one per sample.

    The kernel mixes an interpreter loop with small matrix products, like
    the program's own hot paths.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for index in range(20000):
            total += index
        matrix = _MATRIX
        for _ in range(100):
            matrix = np.tanh(matrix @ _MATRIX * 0.05)
        times.append(time.perf_counter() - start)
    return times
