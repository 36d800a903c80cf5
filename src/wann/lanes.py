"""When independent work may run on a second core beside the caller.

Two places split work that shares no state over two lanes: the risk-gap
estimator trains its two adversaries on two threads, and the harness runs
a repeat's methods in the calling process and one forked child. Both ask
``lane_count`` whether a second lane pays.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np


@functools.cache
def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot
    be read (another BLAS, or no library found)."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        get.argtypes = ()
        return get()
    return None


def lane_count(engine: tuple, original: tuple) -> int:
    """2 when numpy's BLAS runs one thread, this process may use two
    cores and each function of ``engine`` is the one in ``original``
    (the package's own, as the caller imported them); 1 otherwise.

    Two lanes on a multi-threaded BLAS contend for its threads and run
    slower than one after the other. A replaced engine function (a
    profiler's wrapper, say) may keep state of its own across calls, so
    it is never called from two lanes.
    """
    if engine != original or blas_threads() != 1:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(2, cores)
