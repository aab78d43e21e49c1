"""Host speed reference for scaling timings.

On a shared host the same work can take 0.76 s or 1.48 s within one
process a minute apart (one `synth --n 1`, timed 140 times over 150 s on a
2-core host): the whole CPU speeds up and slows down in spells that last
from seconds to minutes.  A fixed reference workload timed next to the
work slows down with it (correlation 0.84 there), so dividing a timing by
the reference's current slowdown cancels most of the drift: over five
datagen runs the quartile spread of the per-run synth rate was 0.18 raw
and 0.11 scaled.  Spells shorter than a pass are not cancelled.

The reference mixes the three kinds of work evimatch does: interpreter
loops, small-array numpy calls and BLAS matrix products.  It belongs to
the benchmark, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median seconds of one reference unit on the host the baseline was
# recorded on (2 cores, 1 BLAS thread); timings are scaled to this speed
NOMINAL_S = 0.0009
UNITS = 40

_SMALL = np.linspace(0.1, 1.0, 4096).reshape(64, 64)
_MATRIX = np.random.default_rng(0).normal(size=(128, 128))


def _unit():
    s = 0
    for i in range(5000):
        s += i * i
    a = _SMALL
    for _ in range(20):
        a = np.sqrt(a * 0.5 + 0.25)
    x = _MATRIX
    for _ in range(2):
        x = _MATRIX @ x
        x = x / np.abs(x).max()
    return s, a, x


def reference_s():
    """Median seconds of one reference unit, measured now."""
    times = []
    for _ in range(UNITS):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown(before_s, after_s):
    """Host slowdown against NOMINAL_S over an interval the two bracket."""
    return (before_s + after_s) / (2.0 * NOMINAL_S)
