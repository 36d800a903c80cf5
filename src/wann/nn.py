"""Minimal dense network engine for scalar regression.

Forward passes, exact reverse-mode gradients of per-example-weighted
losses, Adam updates and coordinate-wise weight clipping. Everything is
float64 and deterministic given a seed; no autodiff framework involved.

Every network has one shape: a relu after each layer but the last and a
linear scalar output. A caller that needs a nonnegative output (the
weighting network of ``wann.training``) applies its own relu to it.
Every network is a member of an ``ArchSpec``, its parameters clipped.

Memory layout: an ``Mlp`` keeps every parameter in one contiguous
vector, ``Mlp.params``, and its ``layers`` are read-only pairs of
``weights`` and ``biases`` views into it. The working memory of
training belongs to the network (activation buffers that grow to the
largest row count seen, and the flat gradient ``Mlp.grad``) or to its
``AdamState`` (flat moments and two scratch vectors). Once the buffers
have grown, a training step allocates only a few per-row vectors, so
the allocator does not hand large blocks back and forth with the
operating system on every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .data import LabeledSample

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _require_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number > 0."""
    if not (isinstance(value, Real) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, not a bool."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ArchSpec:
    """Architecture class: hidden widths and clip constant.

    Made, it rejects a width that is not an integer of at least 1 and a
    clip that is not finite and positive, before any network is built;
    every network is a member of an ``ArchSpec``, so no other place
    checks them.
    """

    hidden: tuple[int, ...] = (100, 100)
    clip: float = 1.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "hidden", tuple(self.hidden))
        except TypeError:
            raise ValueError(f"hidden must be a sequence of widths, got "
                             f"{self.hidden!r}") from None
        for k, width in enumerate(self.hidden):
            _require_integer(f"hidden[{k}]", width)
            if width < 1:
                raise ValueError(
                    f"layer {k} has {width} units, needs at least 1")
        _require_positive("clip", self.clip)

    def build(self, n_inputs: int, *, rng: np.random.Generator) -> "Mlp":
        """A member of the class on ``n_inputs`` features: weights
        Glorot-uniform from ``rng``, biases zero, and then clipped."""
        _require_integer("n_inputs", n_inputs)
        net = Mlp(self, n_inputs, np.zeros(_size([n_inputs, *self.hidden, 1])))
        for layer in net.layers:
            limit = np.sqrt(6.0 / sum(layer.weights.shape))
            layer.weights[...] = rng.uniform(-limit, limit,
                                             size=layer.weights.shape)
        return clip_weights(net)


class Layer(NamedTuple):
    """Fully connected layer: out = x @ weights + biases, followed by a
    relu unless it is the last layer of its ``Mlp``. The arrays are
    views into the network's flat vector, updated in place."""

    weights: np.ndarray
    biases: np.ndarray


def _size(dims: list[int]) -> int:
    """Parameter count of the layers of widths ``dims``."""
    return sum((a + 1) * b for a, b in zip(dims, dims[1:]))


def _layers(flat: np.ndarray, dims: list[int]) -> tuple[Layer, ...]:
    """``flat`` seen as the layers of widths ``dims``: layer k's weights
    (row-major), then its biases, then layer k+1."""
    layers, at = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights = flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        layers.append(Layer(weights, flat[at:at + fan_out]))
        at += fan_out
    return tuple(layers)


@dataclass(eq=False)
class Mlp:
    """A member of the class ``arch`` on ``n_inputs`` features: relu
    hidden layers and a linear scalar output.

    ``params`` is the network's own copy of every parameter, layer by
    layer, and ``layers`` are views into it. After every optimizer step
    all of them are projected onto [-arch.clip, arch.clip]. ``grad`` is
    the gradient, laid out like ``params``, which every gradient
    computation on the network overwrites.
    """

    arch: ArchSpec
    n_inputs: int
    params: np.ndarray = field(repr=False)
    layers: tuple[Layer, ...] = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    # per-layer views into ``grad`` that the backward pass writes
    _grads: tuple[Layer, ...] = field(init=False, repr=False)
    # grow-only per-layer output buffers; a pass on b rows uses the
    # leading b rows of each
    _activations: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        _require_integer("n_inputs", self.n_inputs)
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")
        dims = [self.n_inputs, *self.arch.hidden, 1]
        size = _size(dims)
        self.params = np.array(self.params, dtype=np.float64)
        if self.params.shape != (size,):
            raise ValueError(f"params must be a vector of {size} values, "
                             f"got shape {self.params.shape}")
        self.layers = _layers(self.params, dims)
        self.grad = np.zeros(size)
        self._grads = _layers(self.grad, dims)
        self._activations = [np.empty((0, width)) for width in dims[1:]]

    def copy(self) -> "Mlp":
        """Independent network with equal parameters and fresh buffers."""
        return Mlp(self.arch, self.n_inputs, self.params)


def _forward_cache(net: Mlp, X: np.ndarray):
    """Forward pass keeping per-layer caches for the backward pass.

    Returns (outputs [b], caches). Each cache holds the layer input and
    the layer output. Outputs and caches are views into the net's
    activation buffers: they stay valid until the next forward or
    backward pass on the same net.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix [batch x features]")
    if X.shape[1] != net.n_inputs:
        raise ValueError(
            f"X has {X.shape[1]} columns, network expects {net.n_inputs}"
        )
    rows = len(X)
    last = len(net.layers) - 1
    caches = []
    a = X
    for k, (weights, biases) in enumerate(net.layers):
        buf = net._activations[k]
        if len(buf) < rows:
            buf = net._activations[k] = np.empty((rows, len(biases)))
        out = buf[:rows]
        np.matmul(a, weights, out=out)
        out += biases
        if k < last:
            np.maximum(out, 0.0, out=out)
        caches.append((a, out))
        a = out
    return a[:, 0], caches


def _backward(net: Mlp, caches, d_out: np.ndarray) -> None:
    """Reverse-mode parameter gradients from d(loss)/d(outputs).

    Consumes the forward caches: each layer's input gradient is written
    over that layer's input buffer, and a hidden relu's derivative is
    read from its output (positive exactly where the pre-activation is)
    before that buffer is overwritten. The gradient is written into
    ``net.grad``.
    """
    delta = caches[-1][1]
    delta[:, 0] = d_out
    last = len(net.layers) - 1
    for k in range(last, -1, -1):
        a_in = caches[k][0]
        d_weights, d_biases = net._grads[k]
        np.matmul(a_in.T, delta, out=d_weights)
        np.sum(delta, axis=0, out=d_biases)
        if k > 0:
            pos = a_in > 0.0
            if k == last:
                # the scalar output's product has one term per entry, so
                # this outer product has the matmul's bits without BLAS;
                # copying first gives the multiply one broadcast operand
                # to buffer, not two
                np.copyto(a_in, net.layers[k].weights.T)
                a_in *= delta
            else:
                np.matmul(delta, net.layers[k].weights.T, out=a_in)
            a_in *= pos
            delta = a_in


def forward(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch, returning one output per row.

    The result is a deterministic function of (net, X) and a new array
    owned by the caller.
    """
    y, _ = _forward_cache(net, X)
    return y.copy()


def weighted_mse_grad(net: Mlp, X: np.ndarray, y: np.ndarray, w: np.ndarray
                      ) -> float:
    """Weighted sum of squared errors; its exact gradient goes into
    ``net.grad``.

    loss = sum_i w_i * (net(x_i) - y_i)^2. Weights may be negative
    (signed per-example factors appear in adversarial updates). The
    loss and gradient share one forward pass; the gradient stays in
    ``net.grad`` until the next gradient computation on the same net.
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if not (len(X) == len(y) == len(w)):
        raise ValueError("X, y and w must have the same number of rows")
    if len(X) < 1:
        raise ValueError("need at least one example")
    out, caches = _forward_cache(net, X)
    err = out - y
    loss = float(np.dot(w, err * err))
    _backward(net, caches, 2.0 * w * err)
    return loss


@dataclass(frozen=True)
class FitConfig:
    """Mini-batch Adam training configuration.

    The defaults are the paper's protocol (300 epochs of batch 128,
    Adam at lr 0.001); every other default in the package that concerns
    training refers back to this class. Every trainer takes its schedule
    from here, so a bad value fails when the configuration is made. It
    is frozen, so no value skips that check: a changed copy is made with
    ``dataclasses.replace``.
    """

    epochs: int = 300
    batch_size: int = 128
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        _require_integer("epochs", self.epochs)
        _require_integer("batch_size", self.batch_size)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _require_positive("lr", self.lr)


@dataclass
class AdamState:
    """Adam accumulators for one Mlp.

    ``m`` and ``v`` are the first and second moments, flat and laid out
    like ``Mlp.params``; ``scratch`` holds two vectors of the same size
    that each update works in.
    """

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = FitConfig.lr
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_net(cls, net: Mlp, lr: float = FitConfig.lr) -> "AdamState":
        """Zero moments for ``net`` with step size ``lr``."""
        return cls(np.zeros_like(net.params), np.zeros_like(net.params),
                   lr=lr)


def adam_step(net: Mlp, state: AdamState) -> None:
    """One in-place Adam update along ``net.grad``, then clipping.

    The update runs once over the flat vectors, in the state's scratch
    space, with the per-element arithmetic of the textbook form:
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g, and
    params -= lr (m / c1) / (sqrt(v / c2) + eps), with b1, b2 and eps
    the module's ``BETA1``, ``BETA2`` and ``EPSILON``.
    """
    state.step_count += 1
    corr1 = 1.0 - BETA1 ** state.step_count
    corr2 = 1.0 - BETA2 ** state.step_count
    g, m, v = net.grad, state.m, state.v
    s, t = state.scratch
    np.multiply(g, 1.0 - BETA1, out=s)
    m *= BETA1
    m += s
    np.multiply(g, 1.0 - BETA2, out=s)
    s *= g
    v *= BETA2
    v += s
    np.divide(v, corr2, out=s)
    np.sqrt(s, out=s)
    s += EPSILON
    np.divide(m, corr1, out=t)
    t *= state.lr
    t /= s
    net.params -= t
    clip_weights(net)


def clip_weights(net: Mlp) -> Mlp:
    """Project every weight and bias onto [-clip, clip], in place."""
    np.clip(net.params, -net.arch.clip, net.arch.clip, out=net.params)
    return net


@dataclass
class FitTrace:
    """Per-epoch validation MSE and the last epoch's validation
    predictions, when a validation sample is given."""

    val_mse: list[float] = field(default_factory=list)
    predictions: np.ndarray | None = None

    def record(self, net: Mlp, validation: LabeledSample, epoch: int
               ) -> None:
        """Keep ``net``'s predictions on ``validation`` and append their
        MSE, the quantity every run's curve records; raises
        ``TrainingDivergedError`` with ``epoch`` when the MSE is not
        finite."""
        self.predictions = forward(net, validation.X)
        mse = float(np.mean((self.predictions - validation.y) ** 2))
        if not math.isfinite(mse):
            raise TrainingDivergedError(epoch)
        self.val_mse.append(mse)


def fit_regression(net: Mlp, X: np.ndarray, y: np.ndarray, w: np.ndarray,
                   config: FitConfig, validation: LabeledSample | None = None
                   ) -> FitTrace:
    """Mini-batch Adam on the weighted MSE, in place.

    Batches are drawn by seeded shuffling each epoch, so the run is
    deterministic given (inputs, config). Per-batch gradients are
    scaled by total/batch rows, the unbiased estimate of the full-set
    weighted loss (for uniform 1/k weights this is plain mean-MSE
    training). When ``validation`` is given, records the unweighted
    validation MSE of the current network after each epoch and keeps the
    last epoch's predictions. Raises ``TrainingDivergedError`` once a
    batch loss, a parameter or the validation MSE stops being finite.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("empty training set")
    if not (len(X) == len(y) == len(w)):
        raise ValueError("X, y and w must have the same number of rows")
    rng = np.random.default_rng(config.seed)
    state = AdamState.for_net(net, lr=config.lr)
    trace = FitTrace()
    for epoch in range(config.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = order[start:start + config.batch_size]
            scale = len(X) / len(idx)
            batch_loss = weighted_mse_grad(net, X[idx], y[idx],
                                           scale * w[idx])
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch)
            adam_step(net, state)
        if not np.isfinite(net.params).all():
            raise TrainingDivergedError(epoch)
        if validation is not None:
            trace.record(net, validation, epoch)
    return trace


def fit_network(arch: ArchSpec, X: np.ndarray, y: np.ndarray, w: np.ndarray,
                config: FitConfig, validation: LabeledSample | None = None
                ) -> tuple[Mlp, FitTrace]:
    """``fit_regression`` of a fresh member of ``arch``, drawn from
    ``np.random.default_rng(config.seed)``; returns the net and trace."""
    net = arch.build(np.shape(X)[1], rng=np.random.default_rng(config.seed))
    return net, fit_regression(net, X, y, w, config, validation)


class TrainingDivergedError(RuntimeError):
    """A training loss became non-finite; carries the failing epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        return type(self), (self.epoch,)
