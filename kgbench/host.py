"""Host calibration read beside every traced run: memory bandwidth, a
fixed single-core kernel and the load average. None of them depends on
the program; a shift in them says the host changed, not the code."""

from __future__ import annotations

import os
import time

import numpy as np


def memcpy_gbps(mb: int = 64, repeats: int = 5) -> float:
    """Best-of-``repeats`` copy bandwidth of an ``mb`` MB buffer, GB/s."""
    src = np.ones(mb * 1_000_000 // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return src.nbytes / 1e9 / best


def kernel_s(n: int = 2_000_000, repeats: int = 3) -> float:
    """Median time of a fixed pure-Python integer loop on one core."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def calibrate() -> dict:
    return {
        "host.memcpy_gbps": memcpy_gbps(),
        "host.kernel_s": kernel_s(),
        "host.load1": os.getloadavg()[0],
    }
