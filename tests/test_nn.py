import dataclasses
import inspect

import numpy as np
import pytest

from wann.baselines import KliepConfig, KmmConfig, TradaboostConfig
from wann.data import LabeledSample, MixtureShiftSpec
from wann.discrepancy import estimate_y_discrepancy
from wann.harness import ExperimentConfig, MethodConfigs
from wann.nn import (AdamState, ArchSpec, DenseLayer, FitConfig, Mlp,
                     TrainingDivergedError, _backward, _forward_cache,
                     adam_step, build_mlp, clip_weights, fit_regression,
                     forward, weighted_mse_grad)
from wann.training import WannConfig, build_wann_model, wann_step


def random_net(rng, n_in=3, hidden=(6, 4), clip=1.0):
    return build_mlp(n_in, hidden, clip=clip, rng=rng)


def flatten_params(net):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases])
                           for l in net.layers])


def set_params(net, flat):
    i = 0
    for layer in net.layers:
        for arr in (layer.weights, layer.biases):
            arr.flat[:] = flat[i:i + arr.size]
            i += arr.size


def flatten_grads(net):
    return net.grad.copy()


class TestForward:
    def test_single_layer_linear_map(self):
        net = Mlp([DenseLayer(np.array([[1.0], [1.0]]), np.zeros(1))],
                  clip=1.0)
        out = forward(net, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [3.0])

    def test_zero_net_output_is_zero(self):
        layers = [DenseLayer(np.zeros((3, 4)), np.zeros(4)),
                  DenseLayer(np.zeros((4, 1)), np.zeros(1))]
        net = Mlp(layers, clip=1.0)
        out = forward(net, np.ones((5, 3)))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_two_layer_hand_chain(self):
        # expected values recomputed with explicit matrix algebra
        w1 = np.array([[0.5, -1.0], [2.0, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.5], [-0.5]])
        b2 = np.array([0.3])
        net = Mlp([DenseLayer(w1, b1), DenseLayer(w2, b2)], clip=2.0)
        X = np.array([[1.0, 2.0], [-0.5, 0.25]])
        hidden = np.maximum(X @ w1 + b1, 0.0)
        expected = (hidden @ w2 + b2)[:, 0]
        np.testing.assert_allclose(forward(net, X), expected, rtol=1e-15)

    def test_relu_hidden_layers_and_linear_output(self):
        # the one network shape: a relu after every layer but the last
        rng = np.random.default_rng(0)
        net = random_net(rng)
        X = rng.normal(size=(20, 3))
        # centre the output so that a relu on it would show
        net.layers[-1].biases -= np.median(forward(net, X))
        a = X
        for layer in net.layers[:-1]:
            a = np.maximum(a @ layer.weights + layer.biases, 0.0)
        expected = (a @ net.layers[-1].weights + net.layers[-1].biases)[:, 0]
        out = forward(net, X)
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)
        assert (out < 0.0).any() and (out > 0.0).any()

    def test_dimension_mismatch_rejected(self):
        net = random_net(np.random.default_rng(1))
        with pytest.raises(ValueError, match="columns"):
            forward(net, np.ones((2, 5)))


class TestWeightedMseGrad:
    def test_perfect_fit_zero_loss_zero_grads(self):
        net = Mlp([DenseLayer(np.array([[2.0]]), np.zeros(1))], clip=2.0)
        X = np.array([[1.0], [2.0], [-3.0]])
        y = 2.0 * X[:, 0]
        loss = weighted_mse_grad(net, X, y, np.full(3, 0.5))
        assert loss == 0.0
        assert np.all(flatten_grads(net) == 0.0)

    def test_zero_weights_zero_everything(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        X = rng.normal(size=(4, 3))
        loss = weighted_mse_grad(net, X, rng.normal(size=4), np.zeros(4))
        assert loss == 0.0
        assert np.all(flatten_grads(net) == 0.0)

    def test_length_mismatch_rejected(self):
        net = random_net(np.random.default_rng(4))
        with pytest.raises(ValueError, match="same number"):
            weighted_mse_grad(net, np.ones((3, 3)), np.ones(2), np.ones(3))

    @pytest.mark.parametrize("hidden", [(6, 4), (5,), ()])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(5)
        net = random_net(rng, hidden=hidden)
        X = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        w = rng.normal(size=4)  # signed weights supported
        weighted_mse_grad(net, X, y, w)
        assert_grads_match_fd(net, lambda n: weighted_mse_grad(n, X, y, w))

    def test_loss_linear_in_weights(self):
        rng = np.random.default_rng(7)
        net = random_net(rng)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        w1 = rng.normal(size=6)
        w2 = rng.normal(size=6)
        l1 = weighted_mse_grad(net, X, y, w1)
        l2 = weighted_mse_grad(net, X, y, w2)
        l12 = weighted_mse_grad(net, X, y, w1 + w2)
        assert abs(l12 - (l1 + l2)) <= 1e-10 * max(abs(l12), 1.0)


def assert_grads_match_fd(net, loss_fn, step=1e-5, rtol=1e-4):
    """Compare ``net.grad``, left by the last gradient call on ``net``,
    with central differences of ``loss_fn``."""
    flat = flatten_params(net)
    analytic = flatten_grads(net)
    probe = net.copy()
    fd = np.zeros_like(flat)
    for k in range(len(flat)):
        bumped = flat.copy()
        bumped[k] += step
        set_params(probe, bumped)
        up = loss_fn(probe)
        bumped[k] -= 2 * step
        set_params(probe, bumped)
        down = loss_fn(probe)
        fd[k] = (up - down) / (2 * step)
    denom = np.maximum(np.abs(fd), 1e-8)
    np.testing.assert_allclose(analytic, fd, rtol=rtol, atol=1e-8 * denom.max())


def weighted_output_grad(net, X, v):
    """sum_i v_i * net(x_i), its gradient left in ``net.grad``: the
    weighter update's form."""
    out, caches = _forward_cache(net, X)
    value = float(np.dot(v, out))
    _backward(net, caches, v)
    return value


class TestWeightedOutputGrad:
    """The weighter update seeds the backward pass with per-row factors
    v, which makes it the gradient of a weighted sum of outputs."""

    def test_value_is_weighted_sum(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        X = rng.normal(size=(5, 3))
        v = rng.normal(size=5)
        value = weighted_output_grad(net, X, v)
        np.testing.assert_allclose(value, np.dot(v, forward(net, X)),
                                   rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = random_net(rng)
        X = rng.normal(size=(4, 3))
        v = rng.normal(size=4)
        weighted_output_grad(net, X, v)
        assert_grads_match_fd(net, lambda n: weighted_output_grad(n, X, v))


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        rng = np.random.default_rng(10)
        net = random_net(rng)
        before = flatten_params(net).copy()
        state = AdamState.for_net(net)
        net.grad[:] = 0.0
        adam_step(net, state)
        np.testing.assert_array_equal(flatten_params(net), before)
        assert state.step_count == 1

    def test_single_scalar_first_step(self):
        net = Mlp([DenseLayer(np.array([[0.0]]), np.zeros(1))], clip=1.0)
        state = AdamState.for_net(net, lr=0.001)
        net.grad[:] = [1.0, 0.0]  # d/dweight, d/dbias
        adam_step(net, state)
        # bias-corrected first step: -lr * 1 / (sqrt(1) + eps)
        expected = -0.001 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(net.layers[0].weights[0, 0], expected,
                                   rtol=1e-12)

    def test_update_clipped_at_boundary(self):
        net = Mlp([DenseLayer(np.array([[0.499]]), np.zeros(1))], clip=0.5)
        state = AdamState.for_net(net, lr=0.2)
        net.grad[:] = [-1.0, 0.0]
        adam_step(net, state)  # would land near 0.699 without clip
        assert net.layers[0].weights[0, 0] == 0.5

    def test_step_count_strictly_increases(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        state = AdamState.for_net(net)
        for expected in (1, 2, 3):
            adam_step(net, state)
            assert state.step_count == expected


class TestClipWeights:
    def test_inside_box_is_identity(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, clip=10.0)
        before = flatten_params(net).copy()
        clip_weights(net)
        np.testing.assert_array_equal(flatten_params(net), before)

    def test_outside_value_projected(self):
        net = Mlp([DenseLayer(np.array([[2.0]]), np.array([-3.0]))], clip=1.0)
        clip_weights(net)
        assert net.layers[0].weights[0, 0] == 1.0
        assert net.layers[0].biases[0] == -1.0

    def test_idempotent_on_random_nets(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            net = random_net(rng, clip=0.1)
            for layer in net.layers:
                layer.weights += rng.normal(scale=0.5,
                                            size=layer.weights.shape)
            clip_weights(net)
            once = flatten_params(net).copy()
            clip_weights(net)
            np.testing.assert_array_equal(flatten_params(net), once)
            assert np.abs(once).max() <= 0.1


class TestFitRegression:
    def test_linear_data_converges(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(64, 1))
        y = 2.0 * X[:, 0]
        net = build_mlp(1, (), clip=4.0, rng=np.random.default_rng(0))
        fit_regression(net, X, y, np.full(64, 1 / 64),
                       FitConfig(epochs=500, batch_size=16, lr=0.01, seed=1))
        err = forward(net, X) - y
        assert np.mean(err * err) < 1e-3

    def test_zero_epochs_returns_net_unchanged(self):
        rng = np.random.default_rng(17)
        net = random_net(rng)
        before = flatten_params(net).copy()
        X, y = rng.normal(size=(8, 3)), rng.normal(size=8)
        trace = fit_regression(net, X, y, np.full(8, 0.125),
                               FitConfig(epochs=0, batch_size=4, seed=0),
                               validation=LabeledSample(X, y))
        np.testing.assert_array_equal(flatten_params(net), before)
        assert trace.val_mse == []

    def test_same_seed_bit_identical_traces(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        w = np.full(30, 1 / 30)
        runs = []
        for _ in range(2):
            net = build_mlp(3, (5,), rng=np.random.default_rng(7))
            trace = fit_regression(net, X, y, w,
                                   FitConfig(epochs=10, batch_size=8, seed=3),
                                   validation=LabeledSample(X, y))
            runs.append((net.params.copy(), trace.val_mse))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert len(runs[0][1]) == 10 and runs[0][1] == runs[1][1]

    def test_empty_training_set_rejected(self):
        net = random_net(np.random.default_rng(19))
        with pytest.raises(ValueError, match="empty"):
            fit_regression(net, np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                           FitConfig())

    def test_divergence_guard_raises_with_epoch(self):
        net = Mlp([DenseLayer(np.array([[1.0]]), np.zeros(1))], clip=1.0)
        X = np.array([[1.0], [2.0]])
        y = np.array([np.inf, 0.0])
        with pytest.raises(TrainingDivergedError) as err:
            fit_regression(net, X, y, np.ones(2),
                           FitConfig(epochs=3, batch_size=2, seed=0))
        assert err.value.epoch == 0


class TestBuildMlp:
    def test_glorot_bounds_and_zero_biases(self):
        net = build_mlp(10, (20,), rng=np.random.default_rng(20))
        limit0 = np.sqrt(6.0 / 30)
        assert np.abs(net.layers[0].weights).max() <= limit0
        assert np.all(net.layers[0].biases == 0.0)

    def test_incompatible_layers_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            Mlp([DenseLayer(np.zeros((2, 3)), np.zeros(3)),
                 DenseLayer(np.zeros((4, 1)), np.zeros(1))], clip=1.0)

    def test_clipping_invariant_after_updates(self):
        rng = np.random.default_rng(21)
        net = build_mlp(3, (6,), clip=0.05, rng=rng)
        state = AdamState.for_net(net, lr=0.1)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        w = np.ones(10)
        for _ in range(20):
            weighted_mse_grad(net, X, y, w)
            adam_step(net, state)
            assert np.abs(flatten_params(net)).max() <= 0.05

    def test_arch_spec_builds_equivalent_net(self):
        spec = ArchSpec(hidden=(8, 4), clip=0.7)
        net = spec.build(5, rng=np.random.default_rng(22))
        assert [l.n_outputs for l in net.layers] == [8, 4, 1]
        assert net.clip == 0.7


class TestCarriersRejectBadValues:
    """The configurations and ``Mlp`` check the schedule and the network
    class when they are made; no trainer checks them again."""

    @pytest.mark.parametrize("field,value,message", [
        ("epochs", -3, "epochs must be >= 0, got -3"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("batch_size", -5, "batch_size must be >= 1, got -5"),
        ("lr", -0.01, "lr must be finite and positive, got -0.01"),
        ("lr", 0.0, "lr must be finite and positive"),
        ("lr", float("nan"), "lr must be finite and positive, got nan"),
        ("lr", float("inf"), "lr must be finite and positive, got inf"),
    ])
    def test_fit_config(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(**{field: value})

    @pytest.mark.parametrize("hidden,clip,message", [
        ((0,), 1.0, "layer 0 has 0 units"),
        ((4, 0), 1.0, "layer 1 has 0 units"),
        ((4,), 0.0, "clip must be finite and positive, got 0.0"),
        ((4,), -1.0, "clip must be finite and positive, got -1.0"),
        ((4,), float("nan"), "clip must be finite and positive, got nan"),
        ((4,), float("inf"), "clip must be finite and positive, got inf"),
        ((4,), None, "clip must be finite and positive, got None"),
    ])
    @pytest.mark.parametrize("make", [
        ArchSpec,
        lambda hidden, clip: build_mlp(3, hidden, clip=clip,
                                       rng=np.random.default_rng(0)),
    ], ids=["ArchSpec", "Mlp"])
    def test_arch_spec_build(self, make, hidden, clip, message):
        # the class checks itself before any network is built; a network
        # built by hand checks the same
        with pytest.raises(ValueError, match=message):
            make(hidden, clip)

    @pytest.mark.parametrize("carrier,kwargs,field,value", [
        *[(carrier, {"epochs": 2, "batch_size": 4}, field, value)
          for carrier in (FitConfig, WannConfig)
          for field, value in (("epochs", -3), ("batch_size", 0))],
        (ArchSpec, {}, "hidden", (0,)),
        (ArchSpec, {}, "clip", 0.0),
        (KmmConfig, {}, "tol", -1.0),
        (KliepConfig, {}, "n_centers", 0),
        (TradaboostConfig, {}, "n_iterations", 0),
        (MixtureShiftSpec, {"dim": 2}, "target_fraction", 0.0),
        (ExperimentConfig, {"scenario": MixtureShiftSpec(dim=2),
                            "methods": []}, "n_workers", 0),
        (MethodConfigs.from_params, {"params": {}, "seed": 0}, "fit", None),
    ])
    def test_a_field_cannot_be_assigned_past_the_check(self, carrier, kwargs,
                                                       field, value):
        config = carrier(**kwargs)
        before = getattr(config, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)
        assert getattr(config, field) == before

    def test_clip_is_required(self):
        with pytest.raises(TypeError, match="clip"):
            Mlp([DenseLayer(np.ones((2, 1)), np.zeros(1))])


class TestEngineKnobs:
    """The engine's settable fields and parameters, pinned: a knob cannot
    come back without an edit here."""

    def test_dense_layer_fields(self):
        assert [f.name for f in dataclasses.fields(DenseLayer)] == [
            "weights", "biases"]

    def test_mlp_init_fields(self):
        assert [f.name for f in dataclasses.fields(Mlp) if f.init] == [
            "layers", "clip"]

    def test_build_mlp_parameters(self):
        assert list(inspect.signature(build_mlp).parameters) == [
            "n_inputs", "hidden", "clip", "rng"]

    def test_carrier_fields(self):
        # the network class and the schedule have one carrier each
        def fields(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert fields(ArchSpec) == ["hidden", "clip"]
        assert fields(FitConfig) == ["epochs", "batch_size", "lr", "seed"]
        assert fields(WannConfig) == ["epochs", "batch_size", "lr", "seed",
                                      "pretrain_epochs"]

    @pytest.mark.parametrize("fn,names", [
        (build_wann_model, ["n_inputs", "arch", "config"]),
        (estimate_y_discrepancy, ["source_x", "source_y", "source_w",
                                  "target", "arch", "config", "init_net"]),
        (wann_step, ["model", "X", "y", "is_target", "total_rows", "epoch"]),
    ])
    def test_trainer_parameters(self, fn, names):
        assert list(inspect.signature(fn).parameters) == names
