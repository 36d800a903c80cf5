"""When independent work may run on a second core beside the caller.

Two places split work that shares no state over two lanes: the risk-gap
estimator trains its two adversaries on two threads (``lane_count``),
and the harness runs a repeat's methods in the calling process and one
forked child (``child_lanes``). The modules whose functions the lanes
call register them with ``engine``.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np

# per registered namespace, its callables as bound when registered
_ENGINE: list[tuple[dict, dict]] = []


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


def engine(namespace: dict) -> None:
    """Record every callable bound in ``namespace`` (a module's
    ``globals()``, in its last statement, or a registry) as bound now."""
    _ENGINE.append((namespace, {name: value for name, value
                                in namespace.items() if callable(value)}))


def lane_count() -> int:
    """2 when numpy's BLAS runs one thread, this process may use two
    cores and no callable ``engine`` recorded is rebound or unbound; 1
    otherwise. Two lanes on a multi-threaded BLAS contend for its
    threads and run slower than one after the other. A rebound function
    (a profiler's wrapper, say) may keep state of its own across calls,
    so it is never called from two lanes.
    """
    if blas_threads() != 1 or any(
            namespace.get(name) is not value
            for namespace, bound in _ENGINE
            for name, value in bound.items()):
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(2, cores)


def child_lanes() -> int:
    """Lanes for a repeat's methods, the caller and one forked child:
    ``lane_count()``, but 1 when another thread runs (a child forked
    beside it may inherit a lock it holds), in a process multiprocessing
    started (a worker for repeats, whose siblings fill the cores, or a
    lane's own child) and where there is no ``fork``.
    """
    if (threading.active_count() > 1
            or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return lane_count()
