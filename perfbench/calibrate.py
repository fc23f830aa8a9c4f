"""The calibration loop that tracks the host's speed between ops.

The host's effective CPU speed moves by up to 2x in phases lasting seconds
(see README.md). The benchmark times this fixed pure-Python loop right
before and after every op and reports the op's time scaled by
``REFERENCE_S / loop time``: the time the op would take at the speed at
which the loop takes ``REFERENCE_S``. The loop is the benchmark's own code,
so no change to the program can change it.
"""

from __future__ import annotations

import time

# the loop's time in the fast phases of a 2-core x86-64 VM (Python 3.11)
REFERENCE_S = 0.0012


def loop() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(1000):
        key = tuple(int(v) for v in (i, i >> 1, i >> 2))
        seen[key] = seen.get(key, 0) + 1
    sorted(seen, key=lambda k: (k[2], k[0]))
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two loop times, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
