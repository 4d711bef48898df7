"""Summaries of timing samples and the environment a run measured in."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource

import numpy as np

# Percentiles the tail may report, in tenths of a percent.
_TAIL_LADDER = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least MIN_BEYOND of ``n``
    samples beyond it; 100.0 (the maximum) when even the median has fewer."""
    best = None
    for p in _TAIL_LADDER:
        if n * (1000 - p) >= MIN_BEYOND * 1000:
            best = p
    return 100.0 if best is None else best / 10


def summarize(samples) -> dict:
    """Median, tail percentile and its value, and the sample count."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no samples")
    p = tail_percentile(arr.size)
    return {
        "n": int(arr.size),
        "p50": float(np.percentile(arr, 50)),
        "tail_percentile": p,
        "tail": float(np.percentile(arr, p)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg_1min": os.getloadavg()[0],
    }
