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

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSample
from .nn import (AdamState, ArchSpec, FitConfig, Mlp, TrainingDivergedError,
                 adam_step, forward, weighted_mse_grad)

# default ascent budget per side, shorter than the training protocol's
ASCENT_EPOCHS = 100


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


def _signed_gap(net: Mlp, src_x, src_y, src_w, tgt_x, tgt_y) -> float:
    src_err = forward(net, src_x) - src_y
    tgt_err = forward(net, tgt_x) - tgt_y
    return float(np.mean(tgt_err * tgt_err) - np.dot(src_w, src_err * src_err))


def _ascend(net: Mlp, sign: float, src_x, src_y, src_w, tgt_x, tgt_y,
            config: FitConfig, rng: np.random.Generator) -> float:
    """Gradient-ascend sign*d, returning the best |d| seen on full data."""
    X = np.concatenate([src_x, tgt_x])
    y = np.concatenate([src_y, tgt_y])
    flags = np.concatenate([np.zeros(len(src_x), dtype=bool),
                            np.ones(len(tgt_x), dtype=bool)])
    w_full = np.concatenate([src_w, np.zeros(len(tgt_x))])
    state = AdamState.for_net(net, lr=config.lr)
    best = abs(_signed_gap(net, src_x, src_y, src_w, tgt_x, tgt_y))
    for epoch in range(config.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = order[start:start + config.batch_size]
            v = gap_weights(w_full[idx], flags[idx], len(X) / len(idx))
            # ascend sign * d: descend on the loss with weights -sign * v
            weighted_mse_grad(net, X[idx], y[idx], -sign * v)
            adam_step(net, state)
        d = _signed_gap(net, src_x, src_y, src_w, tgt_x, tgt_y)
        if not math.isfinite(d):
            raise TrainingDivergedError(epoch)
        best = max(best, abs(d))
    return best


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
    estimate.
    """
    source_x = np.asarray(source_x, dtype=np.float64)
    source_y = np.asarray(source_y, dtype=np.float64)
    source_w = np.asarray(source_w, dtype=np.float64)
    if not (len(source_x) == len(source_y) == len(source_w)):
        raise ValueError("source arrays must have matching lengths")
    if (source_w < 0).any():
        raise ValueError("source weights must be nonnegative")
    if source_x.shape[1] != target.X.shape[1]:
        raise ValueError("source and target have different feature counts")
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

    args = (source_x, source_y, source_w, target.X, target.y, config)
    pos = _ascend(net_pos, 1.0, *args, rng=np.random.default_rng([seed, 1]))
    neg = _ascend(net_neg, -1.0, *args, rng=np.random.default_rng([seed, 2]))
    return DiscrepancyEstimate(max(pos, neg), pos, neg)
