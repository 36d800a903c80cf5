"""Adversarial instance-weighting trainer (WANN).

Three networks are trained jointly on the combined source+target set:
the task hypothesis h, an adversary h' approximating the worst-case
risk gap between target and reweighted source, and a nonnegative
weighting network q producing per-instance loss weights. Per batch the
scalar objective is

    sum_i q(x_i) (h(x_i) - y_i)^2                      [task term]
    + mean over batch target rows of (h'(x) - y)^2      [target risk]
    - sum_i q(x_i) (h'(x_i) - y_i)^2                    [weighted risk]

with gradient descent on h and q and ascent on h', all from the same
parameter snapshot, followed by weight clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledSample, TrainingSet
from .discrepancy import gap_weights
from .nn import (AdamState, ArchSpec, FitConfig, FitTrace, Mlp,
                 TrainingDivergedError, _backward, _forward_cache, adam_step,
                 fit_regression, forward)


@dataclass(frozen=True)
class WannConfig(FitConfig):
    """Training protocol for the adversarial weighting run.

    The fitting fields and their defaults are ``FitConfig``'s; the
    weighter pretraining runs ``pretrain_epochs`` epochs of that same
    configuration.
    """

    pretrain_epochs: int = 50

    def __post_init__(self):
        super().__post_init__()
        if self.pretrain_epochs < 0:
            raise ValueError(
                f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")


@dataclass
class WannModel:
    """Task network h, adversary h' and weighting network q.

    h, h' and q share one architecture class and clipping constant, and
    all three are plain ``Mlp``s with a linear output. This module puts
    a relu on q's output wherever it reads weights from q, so the
    weights are nonnegative.

    The weighting network emits relative weights; the instance weight
    is the relu of its output times ``weight_scale``. Pretraining sets
    the scale to 1/(m+n) and fits the network toward 1, so the network
    itself works at unit scale, which Adam's step size can actually
    resolve, while the effective weights start at the uniform 1/(m+n).
    """

    task: Mlp
    adversary: Mlp
    weighter: Mlp
    opt_task: AdamState
    opt_adversary: AdamState
    opt_weighter: AdamState
    weight_scale: float = 1.0

    def __post_init__(self):
        if self.weight_scale <= 0.0:
            raise ValueError("weight_scale must be positive")

    def instance_weights(self, X: np.ndarray) -> np.ndarray:
        return self.weight_scale * np.maximum(forward(self.weighter, X), 0.0)


def build_wann_model(n_inputs: int, arch: ArchSpec | None = None,
                     config: FitConfig | None = None) -> WannModel:
    """Create a fresh model: h, h' and q in the class ``arch``.

    h and q are drawn sequentially from one generator stream seeded
    with ``config.seed``; the optimizers take ``config.lr``. Defaults:
    ``ArchSpec()`` and ``WannConfig()``.
    """
    arch = arch or ArchSpec()
    config = config or WannConfig()
    rng = np.random.default_rng(config.seed)
    task = arch.build(n_inputs, rng=rng)
    # The adversary starts at the task's parameters: their loss
    # difference, which drives the weighter, is then exactly zero at
    # step one and grows out of the adversarial play itself. Distinct
    # random starts instead hand the weighter several full-size steps
    # of pure initialization luck, enough to saturate its relu output.
    adversary = task.copy()
    weighter = arch.build(n_inputs, rng=rng)
    nets = (task, adversary, weighter)
    return WannModel(*nets, *(AdamState.for_net(net, lr=config.lr)
                              for net in nets))


def _require_both_domains(train: TrainingSet) -> None:
    if train.n_source == 0 or train.n_target == 0:
        raise ValueError("training set needs both source and target rows")


def pretrain_weighter(model: WannModel, train: TrainingSet,
                      config: WannConfig) -> WannModel:
    """Fit q toward the constant 1/(m+n) so all weights start uniform.

    Sets the model's weight scale to 1/(m+n) and fits the network
    toward the constant 1. The fit targets q's linear output, before
    the relu that turns it into weights (the relu is inactive at the
    positive constant anyway); fitting through the relu instead leaves
    rows that dip negative without a gradient. Raises ``ValueError``
    before any training unless ``train`` has the source and target rows
    ``fit_wann`` needs.
    """
    _require_both_domains(train)
    k = len(train)
    model.weight_scale = 1.0 / k
    target = np.ones(k)
    uniform = np.full(k, 1.0 / k)
    fit_regression(model.weighter, train.X, target, uniform,
                   replace(config, epochs=config.pretrain_epochs))
    return model


@dataclass
class StepDiagnostics:
    """Batch losses reported by one adversarial step."""

    l_q_h: float
    l_tgt_hp: float
    l_q_hp: float

    @property
    def objective(self) -> float:
        return self.l_q_h + self.l_tgt_hp - self.l_q_hp


def wann_step(model: WannModel, X: np.ndarray, y: np.ndarray,
              is_target: np.ndarray, total_rows: int, epoch: int = 0
              ) -> StepDiagnostics:
    """One gradient descent-ascent step on a batch.

    All three gradients are taken at the same parameter snapshot, then
    the updates are applied adversary -> task -> weighter, each
    followed by clipping. Batches without target rows contribute zero
    to the target-risk term; the weighted sums run over every row, so
    a batch of target rows only is a valid step too.

    ``total_rows`` is the size of the full training set the batch was
    drawn from. The weighted sums over a batch understate the full-set
    sums by batch/total while the target-risk mean is already unbiased,
    so the update gradients rescale the weighted terms by total/batch.
    ``epoch`` only labels a ``TrainingDivergedError``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    if not (len(X) == len(y) == len(is_target)):
        raise ValueError("X, y and is_target must have matching lengths")
    scale = total_rows / len(X)

    # q's relu, in place on its output buffer; rows it zeroes get no
    # weight and pass no gradient into q
    g, cache_q = _forward_cache(model.weighter, X)
    np.maximum(g, 0.0, out=g)
    w = model.weight_scale * g
    out_h, cache_h = _forward_cache(model.task, X)
    out_hp, cache_hp = _forward_cache(model.adversary, X)
    err_h = out_h - y
    err_hp = out_hp - y
    sq_h = err_h * err_h
    sq_hp = err_hp * err_hp

    n_b = int(is_target.sum())
    l_q_h = float(np.dot(w, sq_h))
    l_q_hp = float(np.dot(w, sq_hp))
    l_tgt_hp = float(sq_hp[is_target].mean()) if n_b else 0.0
    if not (math.isfinite(l_q_h) and math.isfinite(l_q_hp)
            and math.isfinite(l_tgt_hp)):
        raise TrainingDivergedError(epoch)

    _backward(model.task, cache_h, 2.0 * scale * w * err_h)
    v = gap_weights(w, is_target, scale)
    # the adversary ascends: -2.0 * v * err_hp is the exact negation of
    # the gap gradient's seed 2.0 * v * err_hp
    _backward(model.adversary, cache_hp, -2.0 * v * err_hp)
    factors = model.weight_scale * scale * (sq_h - sq_hp)
    _backward(model.weighter, cache_q, factors * (g > 0.0))

    adam_step(model.adversary, model.opt_adversary)
    adam_step(model.task, model.opt_task)
    adam_step(model.weighter, model.opt_weighter)
    return StepDiagnostics(l_q_h, l_tgt_hp, l_q_hp)


def fit_wann(model: WannModel, train: TrainingSet, config: WannConfig,
             validation: LabeledSample | None = None) -> FitTrace:
    """Run the full adversarial schedule over seeded shuffled batches.

    The model must have been pretrained (see ``pretrain_weighter``).
    When a validation sample is given, the returned trace holds h's
    validation MSE after each epoch and h's predictions after the last.
    A batch size above the number of rows makes one full batch, as in
    ``fit_regression``. Deterministic per seed; mutates the model.
    """
    _require_both_domains(train)
    rng = np.random.default_rng(config.seed)
    trace = FitTrace()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            idx = order[start:start + config.batch_size]
            wann_step(model, train.X[idx], train.y[idx],
                      train.is_target[idx], len(train), epoch)
        if validation is not None:
            trace.record(model.task, validation)
    return trace


@dataclass
class TrainingWeights:
    """Raw weighter outputs plus a mean-one normalized copy."""

    raw: np.ndarray
    normalized: np.ndarray


def training_weights(model: WannModel, train: TrainingSet) -> TrainingWeights:
    """Evaluate q on every training row.

    The normalized copy is scaled so the mean weight is one (the
    histogram convention). Raises if every weight is zero.
    """
    raw = model.instance_weights(train.X)
    mean = raw.mean()
    if mean == 0.0:
        raise ValueError("all training weights are zero; cannot normalize")
    return TrainingWeights(raw, raw / mean)


def predict(model: WannModel, X: np.ndarray) -> np.ndarray:
    """Deterministic task-network predictions."""
    return forward(model.task, X)
