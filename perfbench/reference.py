"""A fixed reference workload that gauges how fast the machine runs now.

On a shared virtual machine the same code runs up to a third slower for
seconds or minutes at a time, whatever the program does. The benchmark
times short chunks of this workload right before and right after each
timed run, on the same CPU, and scales that run's times by
`NOMINAL_CHUNK_S / median(those chunk times)`: the result is the time the
run would have taken on a machine where one chunk takes `NOMINAL_CHUNK_S`.
The work mixes what rcaudit spends its time on (interpreted Python, JSON
and small numpy arrays) and does not touch rcaudit, so a change to the
program cannot change it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Chunk time the metrics are scaled to; about the median chunk time on the
# 2.1 GHz vCPUs of the shared virtual machine the README's numbers come from.
NOMINAL_CHUNK_S = 0.008

_DOC = {f"k{k}": [k * 0.5, str(k), k % 7] for k in range(120)}
_ARRAY = np.arange(300, dtype=float)


def chunk_s() -> float:
    """Time one fixed chunk of interpreted, JSON and small-array work."""
    start = time.perf_counter()
    total = 0
    for _ in range(18):
        total += len(json.loads(json.dumps(_DOC)))
        for k in range(1, 25):
            total += int(np.argmax(_ARRAY[k:] - _ARRAY[:-k]))
        total += sum(sorted(x * 37 % 101 for x in range(1000)))
    return time.perf_counter() - start


def chunks_for(seconds: float) -> list[float]:
    """Times of chunks run back to back for about `seconds` (at least one)."""
    times = [chunk_s()]
    while sum(times) < seconds:
        times.append(chunk_s())
    return times
