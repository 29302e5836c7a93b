"""The reference kernel and the host-speed correction built on it.

The host is shared: its speed drifts between phases up to about 2x apart
that last a second to tens of seconds, and process CPU time drifts with it.
The reference kernel is a fixed burst of small numpy operations driven from
Python, the same mix of interpreter and tiny-array work as the program's own
inner loops. The benchmark times one burst before every op, outside the op,
and scales the op's wall time by NOMINAL_MS over that burst's time. Reported
times are therefore wall times at the speed where one burst takes
NOMINAL_MS; raw wall times are printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 0.5          # one burst on this 2-CPU host in its fast phase

_X = np.random.default_rng(1).standard_normal((14, 64)).astype(np.float32)
_W = np.random.default_rng(0).standard_normal((64, 64)).astype(np.float32) / 8


def kernel_ms() -> float:
    """Time one burst: 100 rounds of tanh, scale, shift and a 14x64 @ 64x64."""
    t0 = time.perf_counter()
    y = _X
    for _ in range(100):
        y = np.tanh(y * 0.5 + 0.1) @ _W
    return (time.perf_counter() - t0) * 1e3


class BurstLog:
    """Bursts taken at chosen points, and the wall time they took."""

    def __init__(self):
        self.ms: list[float] = []
        self.seconds = 0.0

    def sample(self, repeats: int) -> None:
        t0 = time.perf_counter()
        self.ms.extend(kernel_ms() for _ in range(repeats))
        self.seconds += time.perf_counter() - t0


def kernel_median_ms(repeats: int = 5) -> float:
    return statistics.median(kernel_ms() for _ in range(repeats))


def factors(burst_ms: list[float]) -> np.ndarray:
    """Per-op speed factor: NOMINAL_MS over the burst just before the op.

    Phases change within a second or two, so the nearest burst tracks the
    op's speed best; a running median over neighbouring ops did worse."""
    return NOMINAL_MS / np.asarray(burst_ms, dtype=float)
