"""The environment a benchmark result was measured in."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

# Thread-count variables of the BLAS builds numpy may link against. They are
# read when the BLAS library loads, so they must be set before numpy import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One BLAS thread. On a shared two-core host a GEMM split over two threads
# waits for whichever core is busy elsewhere: synth-paper passes ran about
# 10% slower and spread wider with two threads, and one other busy process
# on the host made them up to 20x slower. KMM and the batch-1000 GEMMs gain
# from a second thread (KMM about 2x) but are timed single-threaded too.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Set every BLAS thread variable to BLAS_THREADS (at most nproc)."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy loads")
    threads = min(nproc(), BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cache_sizes() -> dict:
    """Unified/data cache sizes of cpu0 in bytes, keyed L1d, L2, L3."""
    sizes = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            raw = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(raw[-1:], 1)
        digits = raw.rstrip("KM")
        if digits.isdigit():
            sizes["L1d" if level == "1" else f"L{level}"] = int(digits) * scale
    return sizes


def _git_sha(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
        "machine": platform.machine(),
    }
