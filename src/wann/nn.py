"""Minimal dense network engine for scalar regression.

Forward passes, exact reverse-mode gradients of per-example-weighted
losses, Adam updates and coordinate-wise weight clipping. Everything is
float64 and deterministic given a seed; no autodiff framework involved.

Every network has one shape: a relu after each layer but the last and a
linear scalar output. A caller that needs a nonnegative output (the
weighting network of ``wann.training``) applies its own relu to it.
Every network is clipped: its parameters stay in [-clip, clip].

Memory layout: an ``Mlp`` keeps every parameter in one contiguous
vector, ``Mlp.params``, and each layer's ``weights`` and ``biases`` are
views into it. The working memory of training belongs to the network
(activation buffers that grow to the largest row count seen, and the
flat gradient ``Mlp.grad``) or to its ``AdamState`` (flat moments and
two scratch vectors). Once the buffers have grown, a training step
allocates only a few per-row vectors, so the allocator does not hand
large blocks back and forth with the operating system on every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .data import LabeledSample

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _pack(weights: list[np.ndarray], biases: list[np.ndarray]):
    """Copy per-layer arrays into one flat vector, returning it and views.

    Layer k's weights (row-major) come first, then its biases, then
    layer k+1. Returns (flat, weight views, bias views).
    """
    flat = np.concatenate([np.ravel(a) for pair in zip(weights, biases)
                           for a in pair], dtype=np.float64)
    weight_views, bias_views = [], []
    at = 0
    for w, b in zip(weights, biases):
        weight_views.append(flat[at:at + w.size].reshape(w.shape))
        at += w.size
        bias_views.append(flat[at:at + b.size].reshape(b.shape))
        at += b.size
    return flat, weight_views, bias_views


def _require_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number > 0."""
    if not (isinstance(value, Real) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_arch(widths, clip) -> None:
    """Raise ``ValueError`` for a layer width below 1 or a clip that is
    not finite and positive."""
    for k, width in enumerate(widths):
        if width < 1:
            raise ValueError(f"layer {k} has {width} units, needs at least 1")
    _require_positive("clip", clip)


@dataclass
class DenseLayer:
    """Fully connected layer: out = x @ weights + biases, followed by a
    relu unless it is the last layer of its ``Mlp``.

    Inside an ``Mlp`` the arrays are views into the network's flat
    parameter vector: update them in place, never rebind them.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        # own copies: layers are updated in place by the optimizer
        self.weights = np.array(self.weights, dtype=np.float64)
        self.biases = np.array(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("layer weights must be a 2-D matrix")
        if self.biases.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias shape {self.biases.shape} does not match "
                f"{self.weights.shape[1]} output units"
            )

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[1]


@dataclass
class Mlp:
    """Feed-forward network with relu hidden layers and a linear scalar
    output.

    ``clip`` is the weight-clipping constant: after every optimizer step
    all weights and biases are projected onto [-clip, clip]. Every
    network is clipped.

    The network takes over its layers' storage: ``params`` holds every
    parameter, layer by layer, and the layers' arrays become views
    into it. ``grad`` is the gradient, laid out like ``params``, which
    every gradient computation on the network overwrites.
    """

    layers: list[DenseLayer]
    clip: float
    params: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    # per-layer views into ``grad`` that the backward pass writes
    _d_weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    _d_biases: list[np.ndarray] = field(init=False, repr=False, compare=False)
    # grow-only per-layer output buffers; a pass on b rows uses the
    # leading b rows of each
    _activations: list[np.ndarray] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if self.layers[-1].n_outputs != 1:
            raise ValueError("only scalar-output networks are supported")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.n_outputs != nxt.n_inputs:
                raise ValueError(
                    f"layer dims incompatible: {prev.n_outputs} -> {nxt.n_inputs}"
                )
        _check_arch([layer.n_outputs for layer in self.layers], self.clip)
        self.params, weights, biases = _pack(
            [layer.weights for layer in self.layers],
            [layer.biases for layer in self.layers])
        for layer, w, b in zip(self.layers, weights, biases):
            layer.weights, layer.biases = w, b
        self.grad, self._d_weights, self._d_biases = _pack(
            [np.zeros_like(w) for w in weights],
            [np.zeros_like(b) for b in biases])
        self._activations = [np.empty((0, layer.n_outputs))
                             for layer in self.layers]

    @property
    def n_inputs(self) -> int:
        return self.layers[0].n_inputs

    def copy(self) -> "Mlp":
        """Independent network with equal parameters and fresh buffers."""
        # DenseLayer copies the arrays it is given
        return Mlp([DenseLayer(layer.weights, layer.biases)
                    for layer in self.layers], self.clip)


@dataclass(frozen=True)
class ArchSpec:
    """Architecture class: hidden widths and clip constant.

    Made, it rejects a width below 1 and a clip that is not finite and
    positive, before any network is built; ``Mlp`` checks the same.
    """

    hidden: tuple[int, ...] = (100, 100)
    clip: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        _check_arch(self.hidden, self.clip)

    def build(self, n_inputs: int, *, rng: np.random.Generator) -> "Mlp":
        return build_mlp(n_inputs, self.hidden, clip=self.clip, rng=rng)


def build_mlp(n_inputs: int, hidden: tuple[int, ...] = ArchSpec.hidden, *,
              clip: float = ArchSpec.clip, rng: np.random.Generator) -> Mlp:
    """Create an MLP with relu hidden layers and a linear scalar output.

    Weights are Glorot-uniform from ``rng``, biases zero, and then
    clipped.
    """
    dims = [n_inputs, *hidden, 1]
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(weights, np.zeros(fan_out)))
    return clip_weights(Mlp(layers, clip=clip))


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
    for k, layer in enumerate(net.layers):
        buf = net._activations[k]
        if len(buf) < rows:
            buf = net._activations[k] = np.empty((rows, layer.n_outputs))
        out = buf[:rows]
        np.matmul(a, layer.weights, out=out)
        out += layer.biases
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
        np.matmul(a_in.T, delta, out=net._d_weights[k])
        np.sum(delta, axis=0, out=net._d_biases[k])
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
    np.clip(net.params, -net.clip, net.clip, out=net.params)
    return net


@dataclass
class FitTrace:
    """Per-epoch validation MSE and the last epoch's validation
    predictions, when a validation sample is given."""

    val_mse: list[float] = field(default_factory=list)
    predictions: np.ndarray | None = None

    def record(self, net: Mlp, validation: LabeledSample) -> None:
        """Keep ``net``'s predictions on ``validation`` and append their
        MSE, the quantity every run's curve records."""
        self.predictions = forward(net, validation.X)
        self.val_mse.append(
            float(np.mean((self.predictions - validation.y) ** 2)))


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
    batch loss or a parameter stops being finite.
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
            trace.record(net, validation)
    return trace


class TrainingDivergedError(RuntimeError):
    """A training loss became non-finite; carries the failing epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch
