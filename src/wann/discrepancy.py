"""Empirical estimation of the worst-case target/weighted-source risk gap.

The quantity of interest is the maximum over a clipped hypothesis
class of |target risk - weighted source risk|. A fresh adversary is
trained by gradient ascent on the signed gap

    d(h') = mean_j (h'(x'_j) - y'_j)^2 - sum_i w_i (h'(x_i) - y_i)^2

and a second one on -d, recovering the absolute value dropped from
the differentiable objective. The reported figure is the running best
|d| over full-sample evaluations, a lower bound on the true maximum.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledSample, checked
from .nn import (AdamState, ArchSpec, FitConfig, Mlp, TrainingDivergedError,
                 adam_step, forward, weighted_mse_grad)

# default ascent budget per side, shorter than the training protocol's
ASCENT_EPOCHS = 100

# the engine functions an ascent calls, as imported (see _ascent_workers)
_ENGINE = (forward, weighted_mse_grad, adam_step)


@dataclass
class DiscrepancyEstimate:
    """Two-sided estimate; ``value`` is the larger of the two runs."""

    value: float
    positive_side: float
    negative_side: float


def gap_weights(w: np.ndarray, is_target: np.ndarray, scale: float
                ) -> np.ndarray:
    """Per-row factors v with sum_i v_i (h'(x_i) - y_i)^2 the batch's
    estimate of the signed gap d(h').

    ``w`` are the rows' weights in the weighted source risk and
    ``is_target`` marks target rows. The target risk is the mean over
    the batch's target rows, an unbiased estimate already; the weighted
    source sum over a batch understates the full-set sum by
    batch/total, so the weights are multiplied by ``scale`` =
    total/batch rows. A batch without target rows has no target term.
    """
    v = -scale * w
    n_b = int(is_target.sum())
    if n_b:
        v = v + is_target / n_b
    return v


@dataclass(frozen=True)
class _Pooled:
    """The source rows, then the target rows, as both adversaries read
    them: the pooled labels ``y``, target flags and weights ``w`` (0 on
    target rows), and the features as given. There is no pooled feature
    matrix; each side gathers its batch rows into a buffer of its own.
    """

    source_x: np.ndarray
    target_x: np.ndarray
    y: np.ndarray
    is_target: np.ndarray
    w: np.ndarray

    def gather(self, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Pooled rows ``idx`` in the leading rows of ``out``."""
        rows = out[:len(idx)]
        n_src = len(self.source_x)
        if n_src:
            # target positions are clipped to a source row, then replaced
            np.take(self.source_x, idx, axis=0, out=rows, mode="clip")
        at = np.flatnonzero(self.is_target[idx])
        rows[at] = np.take(self.target_x, idx[at] - n_src, axis=0)
        return rows


def _pool(source_x, source_y, source_w, target: LabeledSample) -> _Pooled:
    n_src, n_tgt = len(source_x), len(target)
    return _Pooled(source_x, target.X, np.concatenate([source_y, target.y]),
                   np.arange(n_src + n_tgt) >= n_src,
                   np.concatenate([source_w, np.zeros(n_tgt)]))


def _signed_gap(net: Mlp, pooled: _Pooled) -> float:
    n_src = len(pooled.source_x)
    src_err = forward(net, pooled.source_x) - pooled.y[:n_src]
    tgt_err = forward(net, pooled.target_x) - pooled.y[n_src:]
    return float(np.mean(tgt_err * tgt_err)
                 - np.dot(pooled.w[:n_src], src_err * src_err))


def _ascend(net: Mlp, sign: float, pooled: _Pooled, config: FitConfig,
            rng: np.random.Generator,
            stop: threading.Event | None = None) -> float:
    """Gradient-ascend sign*d, returning the best |d| seen on full data.

    Touches only ``net``, its own Adam state and batch buffer and
    ``rng``; ``pooled`` is only read. Once ``stop`` is set, no further
    epoch starts.
    """
    n = len(pooled.y)
    rows = np.empty((min(config.batch_size, n), net.n_inputs))
    state = AdamState.for_net(net, lr=config.lr)
    best = abs(_signed_gap(net, pooled))
    for epoch in range(config.epochs):
        if stop is not None and stop.is_set():
            break
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            v = gap_weights(pooled.w[idx], pooled.is_target[idx], n / len(idx))
            # ascend sign * d: descend on the loss with weights -sign * v
            weighted_mse_grad(net, pooled.gather(idx, rows), pooled.y[idx],
                              -sign * v)
            adam_step(net, state)
        d = _signed_gap(net, pooled)
        if not math.isfinite(d):
            raise TrainingDivergedError(epoch)
        best = max(best, abs(d))
    return best


@functools.cache
def _blas_threads() -> int | None:
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


def _ascent_workers() -> int:
    """Threads the two one-sided ascents run on: 2 when numpy's BLAS runs
    one thread, this process may use two cores and the engine functions
    are the package's own, 1 otherwise.

    Two ascents on a multi-threaded BLAS contend for its threads and run
    slower than one after the other. A replaced engine function (a
    profiler's wrapper, say) may keep state of its own across calls, so
    it is never called from two threads.
    """
    engine = (forward, weighted_mse_grad, adam_step)
    if any(f is not g for f, g in zip(engine, _ENGINE)):
        return 1
    if _blas_threads() != 1:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(2, cores)


def estimate_y_discrepancy(source_x: np.ndarray, source_y: np.ndarray,
                           source_w: np.ndarray, target: LabeledSample, *,
                           arch: ArchSpec | None = None,
                           config: FitConfig | None = None,
                           init_net: Mlp | None = None) -> DiscrepancyEstimate:
    """Two-sided adversarial estimate of the maximal risk gap.

    ``source_w`` are fixed nonnegative instance weights (a weighted
    empirical source distribution). ``arch`` is the hypothesis class
    (default ``ArchSpec()``) and ``config`` the ascent schedule and seed
    (default ``FitConfig(epochs=ASCENT_EPOCHS)``). Both adversaries
    start from ``init_net`` when given, otherwise from fresh seeded
    members of ``arch``. The running best is evaluated before training
    and after every epoch, so a larger epoch budget never lowers the
    estimate. An input array of the wrong shape or with a non-finite
    value is a ``ValueError`` that names the array, raised before any
    network is built.

    The two sides share no state, so when numpy's BLAS runs one thread
    and a second core is free, the -d side runs on a worker thread while
    the +d side runs on the calling thread; the result is the same to
    the bit either way. If both sides fail, the +d side's error is
    raised.
    """
    source_x = checked("source_x", source_x)
    source_y = checked("source_y", source_y, ndim=1)
    source_w = checked("source_w", source_w, ndim=1)
    if not (len(source_x) == len(source_y) == len(source_w)):
        raise ValueError("source_x, source_y and source_w differ in length")
    checked("target.X", target.X,
            width=(source_x.shape[1], "target.X", "source_x"))
    checked("target.y", target.y, ndim=1)
    if (source_w < 0).any():
        raise ValueError("source_w must be nonnegative")
    if len(target.X) == 0:
        raise ValueError("target sample is empty")

    arch = arch or ArchSpec()
    config = config or FitConfig(epochs=ASCENT_EPOCHS)
    seed = config.seed
    if init_net is not None:
        net_pos, net_neg = init_net.copy(), init_net.copy()
    else:
        init_rng = np.random.default_rng(seed)
        net_pos = arch.build(source_x.shape[1], rng=init_rng)
        net_neg = arch.build(source_x.shape[1], rng=init_rng)

    pooled = _pool(source_x, source_y, source_w, target)
    stop = threading.Event()
    run_pos = functools.partial(_ascend, net_pos, 1.0, pooled, config,
                                rng=np.random.default_rng([seed, 1]))
    run_neg = functools.partial(_ascend, net_neg, -1.0, pooled, config,
                                rng=np.random.default_rng([seed, 2]),
                                stop=stop)
    if _ascent_workers() < 2:
        pos, neg = run_pos(), run_neg()
    else:
        # leaving the block waits for the worker, also when +d raised
        with ThreadPoolExecutor(max_workers=1) as worker:
            # in the caller's context, so np.errstate holds on both sides
            neg_future = worker.submit(contextvars.copy_context().run,
                                       run_neg)
            try:
                pos = run_pos()
            except BaseException:
                stop.set()  # the -d result would be thrown away
                raise
            neg = neg_future.result()
    return DiscrepancyEstimate(max(pos, neg), pos, neg)
