"""The flat, buffer-reusing engine against a per-layer reference.

``RefNet`` is the per-layer engine the flat one replaced: fresh arrays
for every forward, backward and Adam update, one layer at a time. The
flat engine runs the same element-wise arithmetic in the same order, so
parameters must agree bit for bit, not just to a tolerance.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

from wann.data import LabeledSample, TrainingSet, labeling_fn
from wann.discrepancy import _ascend, _pool
from wann.nn import (AdamState, ArchSpec, FitConfig, adam_step, fit_regression,
                     forward, weighted_mse_grad)
from wann.training import WannConfig, WannModel, build_wann_model, wann_step

from nets import adam_states


class RefNet:
    """Per-layer copy of an Mlp with the per-layer engine and Adam: relu
    hidden layers and a linear output."""

    def __init__(self, net, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.weights = [layer.weights.copy() for layer in net.layers]
        self.biases = [layer.biases.copy() for layer in net.layers]
        self.clip = net.arch.clip
        self.m_w = [np.zeros_like(w) for w in self.weights]
        self.v_w = [np.zeros_like(w) for w in self.weights]
        self.m_b = [np.zeros_like(b) for b in self.biases]
        self.v_b = [np.zeros_like(b) for b in self.biases]
        self.step_count = 0
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon

    def params(self):
        return np.concatenate([np.concatenate([w.ravel(), b])
                               for w, b in zip(self.weights, self.biases)])

    def forward_cache(self, X):
        caches = []
        a = np.asarray(X, dtype=np.float64)
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            caches.append((a, z))
            a = np.maximum(z, 0.0) if k < last else z
        return a[:, 0], caches

    def backward(self, caches, d_out):
        delta = np.asarray(d_out, dtype=np.float64)[:, None]
        n = len(self.weights)
        d_w, d_b = [None] * n, [None] * n
        for k in range(n - 1, -1, -1):
            a_in, z = caches[k]
            if k < n - 1:
                delta = delta * (z > 0.0).astype(np.float64)
            d_w[k] = a_in.T @ delta
            d_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = delta @ self.weights[k].T
        return d_w, d_b

    def _update(self, param, grad, m, v, corr1, corr2):
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / corr1
        v_hat = v / corr2
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def adam_step(self, d_w, d_b):
        self.step_count += 1
        corr1 = 1.0 - self.beta1 ** self.step_count
        corr2 = 1.0 - self.beta2 ** self.step_count
        for k in range(len(self.weights)):
            self._update(self.weights[k], d_w[k], self.m_w[k], self.v_w[k],
                         corr1, corr2)
            self._update(self.biases[k], d_b[k], self.m_b[k], self.v_b[k],
                         corr1, corr2)
        for arr in self.weights + self.biases:
            np.clip(arr, -self.clip, self.clip, out=arr)

    def mse_grad(self, X, y, w):
        out, caches = self.forward_cache(X)
        err = out - y
        return self.backward(caches, 2.0 * w * err)


def ref_wann_step(task, adversary, weighter, weight_scale, X, y, is_target,
                  total_rows):
    """The per-layer descent-ascent step, adversary gradient negated last;
    q's relu is applied to its linear output here, as ``wann_step`` does."""
    scale = total_rows / len(X)
    q_out, cache_q = weighter.forward_cache(X)
    g = np.maximum(q_out, 0.0)
    w = weight_scale * g
    out_h, cache_h = task.forward_cache(X)
    out_hp, cache_hp = adversary.forward_cache(X)
    err_h, err_hp = out_h - y, out_hp - y
    sq_h, sq_hp = err_h * err_h, err_hp * err_hp
    n_b = int(is_target.sum())
    grads_h = task.backward(cache_h, 2.0 * scale * w * err_h)
    v = -scale * w
    if n_b:
        v = v + is_target / n_b
    d_w, d_b = adversary.backward(cache_hp, 2.0 * v * err_hp)
    factors = weight_scale * scale * (sq_h - sq_hp)
    grads_q = weighter.backward(cache_q, factors * (q_out > 0.0))
    adversary.adam_step([-1.0 * g for g in d_w], [-1.0 * g for g in d_b])
    task.adam_step(*grads_h)
    weighter.adam_step(*grads_q)


def mixed_train(k, d, n_target, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k, d))
    flags = np.zeros(k, dtype=bool)
    flags[rng.choice(k, n_target, replace=False)] = True
    return TrainingSet(X, labeling_fn(X), flags)


def negative_q_model(d, seed, X):
    """h, h' and q drawn apart, q's output bias set so its linear output
    is negative on about half of the rows of X."""
    nets = [ArchSpec((12, 8), clip=1.0).build(
                d, rng=np.random.default_rng(seed + k)) for k in range(3)]
    q = nets[2]
    q.layers[-1].biases[...] -= np.median(forward(q, X))
    return WannModel(*nets, weight_scale=0.05)


MODELS = {
    "negative-q-rows": lambda d, X: negative_q_model(d, 2, X),
    "hidden-100-50": lambda d, X: build_wann_model(d, ArchSpec((100, 50)),
                                                   WannConfig(seed=3)),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_wann_steps_match_reference(kind):
    d, k, batch = 5, 23, 8
    train = mixed_train(k, d, 6, seed=4)
    model = MODELS[kind](d, train.X)
    if kind == "negative-q-rows":
        q_out = forward(model.weighter, train.X)
        assert (q_out < 0.0).sum() >= 5 and (q_out > 0.0).sum() >= 5
    else:
        model.weight_scale = 1.0 / k
    nets = (model.task, model.adversary, model.weighter)
    refs = [RefNet(net) for net in nets]
    starts = [net.params.copy() for net in nets]
    order = np.random.default_rng(6).permutation(k)
    # full batches, a ragged last batch of 7 and a single row, twice over
    batches = [order[s:s + batch] for s in range(0, k, batch)] + [order[:1]]
    # one set of Adam states carried across both passes, as in fit_wann
    opt = adam_states(model)
    for idx in batches * 2:
        args = (train.X[idx], train.y[idx], train.is_target[idx])
        wann_step(model, opt, *args, total_rows=k)
        ref_wann_step(*refs, model.weight_scale, *args, k)
    for net, ref, start in zip(nets, refs, starts):
        assert not np.array_equal(net.params, start)
        assert np.array_equal(net.params, ref.params())


@pytest.mark.parametrize("w_low,hidden,batch", [
    (0.0, (100, 50), 7), (-0.2, (6, 4), 5), (0.0, (), 1),
])
def test_fit_regression_matches_reference(w_low, hidden, batch):
    # w_low < 0 gives some rows signed loss weights
    rng = np.random.default_rng(7)
    X, y = rng.normal(size=(17, 4)), rng.normal(size=17)
    w = rng.uniform(w_low, 0.2, size=17)
    net = ArchSpec(hidden, clip=0.5).build(4, rng=np.random.default_rng(8))
    ref = RefNet(net, lr=0.01)
    config = FitConfig(epochs=3, batch_size=batch, lr=0.01, seed=9)
    fit_regression(net, X, y, w, config)

    ref_rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = ref_rng.permutation(len(X))
        for start in range(0, len(X), batch):
            idx = order[start:start + batch]
            scale = len(X) / len(idx)
            ref.adam_step(*ref.mse_grad(X[idx], y[idx], scale * w[idx]))
    assert np.array_equal(net.params, ref.params())


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ascend_matches_reference(sign):
    rng = np.random.default_rng(10)
    src_x, tgt_x = rng.normal(size=(13, 3)), rng.normal(0.5, 1.0, size=(6, 3))
    src_y, tgt_y = labeling_fn(src_x), labeling_fn(tgt_x)
    src_w = np.full(13, 1.0 / 13)
    net = ArchSpec((10, 6), clip=1.0).build(3, rng=np.random.default_rng(11))
    ref = RefNet(net, lr=0.01)
    _ascend(net, sign, _pool(src_x, src_y, src_w, LabeledSample(tgt_x, tgt_y)),
            FitConfig(epochs=3, batch_size=5, lr=0.01),
            rng=np.random.default_rng(12))

    X, y = np.concatenate([src_x, tgt_x]), np.concatenate([src_y, tgt_y])
    flags = np.arange(19) >= 13
    w_full = np.concatenate([src_w, np.zeros(6)])
    ref_rng = np.random.default_rng(12)
    for _ in range(3):
        order = ref_rng.permutation(19)
        for start in range(0, 19, 5):
            idx = order[start:start + 5]
            # the source weights are scaled by total/batch rows
            n_b = int(flags[idx].sum())
            u = -(19 / len(idx)) * w_full[idx]
            if n_b:
                u = u + flags[idx] / n_b
            d_w, d_b = ref.mse_grad(X[idx], y[idx], sign * u)
            ref.adam_step([-1.0 * g for g in d_w], [-1.0 * g for g in d_b])
    assert np.array_equal(net.params, ref.params())


def test_eval_forward_matches_reference_and_is_caller_owned():
    net = ArchSpec((9, 7)).build(6, rng=np.random.default_rng(13))
    ref = RefNet(net)
    X = np.random.default_rng(14).normal(size=(40, 6))
    first = forward(net, X)
    assert np.array_equal(first, ref.forward_cache(X)[0])
    forward(net, X[:3] + 1.0)
    assert np.array_equal(first, ref.forward_cache(X)[0])


class TestFlatStorage:
    def test_layer_arrays_are_views_of_params(self):
        net = ArchSpec((5, 4)).build(3, rng=np.random.default_rng(15))
        assert net.params.size == sum(l.weights.size + l.biases.size
                                      for l in net.layers)
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.biases, net.params)
        net.params[:] = 0.25
        assert all((l.weights == 0.25).all() and (l.biases == 0.25).all()
                   for l in net.layers)

    def test_copy_is_independent(self):
        net = ArchSpec((5,), clip=1.0).build(3, rng=np.random.default_rng(16))
        twin = net.copy()
        assert np.array_equal(twin.params, net.params)
        assert not np.shares_memory(twin.params, net.params)
        assert not np.shares_memory(twin.grad, net.grad)
        before = net.params.copy()
        grad_before = net.grad.copy()
        X = np.random.default_rng(17).normal(size=(6, 3))
        out = forward(net, X)
        weighted_mse_grad(twin, X, np.ones(6), np.ones(6))
        adam_step(twin, AdamState.for_net(twin))
        assert np.array_equal(net.grad, grad_before)
        assert np.array_equal(net.params, before)
        assert not np.array_equal(twin.params, before)
        assert np.array_equal(forward(net, X), out)

    def test_gradient_is_flat_and_owned_by_the_net(self):
        net = ArchSpec((5,)).build(3, rng=np.random.default_rng(18))
        X = np.ones((4, 3))
        loss = weighted_mse_grad(net, X, np.zeros(4), np.ones(4))
        assert type(loss) is float
        assert net.grad.shape == net.params.shape
        assert not np.shares_memory(net.grad, net.params)
        assert net.grad.any()
        # Adam reads the net's own gradient: its first step moves every
        # parameter by lr against the sign of its gradient
        assert list(inspect.signature(adam_step).parameters) == ["net",
                                                                 "state"]
        net.grad[:] = 1.0
        before = net.params.copy()
        adam_step(net, AdamState.for_net(net, lr=0.01))
        np.testing.assert_allclose(net.params, before - 0.01 / (1.0 + 1e-8),
                                   rtol=1e-12, atol=1e-15)


KIB = 1024


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [64, 256])
def test_steady_state_step_and_eval_allocate_little(dim):
    # the per-layer engine needed 2.1 MiB (dim 64) and 3.3 MiB (dim 256)
    # per step and 3.1 MiB per 1000-row forward
    rng = np.random.default_rng(20)
    model = build_wann_model(dim, ArchSpec((100, 100)),
                             WannConfig(seed=21))
    X, y = rng.normal(size=(128, dim)), rng.normal(size=128)
    is_target = rng.random(128) < 0.2
    X_eval = rng.normal(size=(1000, dim))
    opt = adam_states(model)

    def step():
        wann_step(model, opt, X, y, is_target, total_rows=1000)

    for _ in range(2):
        step()
        forward(model.task, X_eval)
    assert traced_peak(step) <= 128 * KIB
    assert traced_peak(lambda: forward(model.task, X_eval)) <= 128 * KIB
