from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wann import training
from wann.data import TrainingSet, LabeledSample, labeling_fn
from wann.nn import ArchSpec, TrainingDivergedError, _forward_cache, forward
from wann.training import (WannConfig, WannModel, build_wann_model, fit_wann,
                           predict, pretrain_weighter, training_weights,
                           wann_step)

from nets import adam_states, hand_net


def small_train(k=60, d=3, n_target=15, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k, d))
    flags = np.zeros(k, dtype=bool)
    flags[rng.choice(k, n_target, replace=False)] = True
    return TrainingSet(X, labeling_fn(X), flags)


def linear_net(weights, bias, clip=1.0):
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return hand_net([(w, np.array([float(bias)]))], clip=clip)


def params_of(net):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases])
                           for l in net.layers])


def adam_first_step(theta, grad, lr=0.001, eps=1e-8):
    return theta - lr * grad / (np.abs(grad) + eps)


@pytest.mark.parametrize("field,value,message", [
    ("epochs", -3, "epochs must be >= 0, got -3"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("lr", -0.5, "lr must be finite and positive, got -0.5"),
    ("lr", float("nan"), "lr must be finite and positive, got nan"),
    ("pretrain_epochs", -2, "pretrain_epochs must be >= 0, got -2"),
    ("pretrain_epochs", 1.5, "pretrain_epochs must be an integer, got 1.5"),
    ("epochs", 2.5, "epochs must be an integer, got 2.5"),
])
def test_wann_config_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        WannConfig(**{field: value})


class TestBuildModel:
    def test_adversary_starts_at_task(self):
        model = build_wann_model(4, ArchSpec((8,)), WannConfig(seed=1))
        np.testing.assert_array_equal(params_of(model.task),
                                      params_of(model.adversary))

    def test_weights_are_zero_where_q_is_negative(self):
        # q is a plain network with a linear output; the relu that makes
        # its weights nonnegative is the trainer's
        train = small_train(seed=2)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=2))
        model.weight_scale = 0.5
        q = model.weighter
        q.layers[-1].biases[...] -= np.median(forward(q, train.X))
        q_out = forward(q, train.X)
        negative = q_out < 0.0
        assert negative.sum() >= 10 and (q_out > 0.0).sum() >= 10
        w = model.instance_weights(train.X)
        np.testing.assert_array_equal(w, 0.5 * np.maximum(q_out, 0.0))
        assert (w[negative] == 0.0).all() and (w[~negative] > 0.0).all()
        tw = training_weights(model, train)
        np.testing.assert_array_equal(tw.raw, w)
        assert (tw.normalized[negative] == 0.0).all()

    def test_weighter_clip_defaults_to_task_clip(self):
        model = build_wann_model(4, ArchSpec((8,), 0.7), WannConfig(seed=3))
        assert model.weighter.arch.clip == 0.7


class TestPretrainWeighter:
    def test_mean_weight_within_ten_percent(self):
        train = small_train(k=1000, d=4, n_target=200, seed=4)
        config = WannConfig(batch_size=128, pretrain_epochs=50, seed=4)
        model = build_wann_model(4, ArchSpec((16,)), config)
        pretrain_weighter(model, train, config)
        mean = model.instance_weights(train.X).mean()
        assert 0.0009 <= mean <= 0.0011

    def test_zero_epochs_leaves_weighter(self):
        train = small_train(seed=5)
        config = WannConfig(pretrain_epochs=0, batch_size=16, seed=5)
        model = build_wann_model(3, ArchSpec((8,)), config)
        before = params_of(model.weighter).copy()
        pretrain_weighter(model, train, config)
        np.testing.assert_array_equal(params_of(model.weighter), before)

    def test_leaves_the_weighter_structure_unchanged(self):
        train = small_train(seed=5)
        config = WannConfig(pretrain_epochs=3, batch_size=16, seed=5)
        model = build_wann_model(3, ArchSpec((8, 6), 0.7), config)
        q = model.weighter
        layers = list(q.layers)
        shapes = [(l.weights.shape, l.biases.shape) for l in layers]
        before = q.params.copy()
        pretrain_weighter(model, train, config)
        assert model.weighter is q and len(q.layers) == len(layers)
        assert all(a is b for a, b in zip(q.layers, layers))
        assert [(l.weights.shape, l.biases.shape) for l in q.layers] == shapes
        assert q.arch.clip == 0.7
        for layer in q.layers:
            assert np.shares_memory(layer.weights, q.params)
            assert np.shares_memory(layer.biases, q.params)
        assert not np.array_equal(q.params, before)
        # its output stays linear: the pretrained fit is not clamped
        X = np.random.default_rng(5).normal(size=(4, 3))
        a = X
        for layer in q.layers[:-1]:
            a = np.maximum(a @ layer.weights + layer.biases, 0.0)
        top = q.layers[-1]
        np.testing.assert_allclose(
            forward(q, X), (a @ top.weights + top.biases)[:, 0], rtol=1e-14)

    def test_all_zero_weighter_learns_the_constant(self):
        # only the output bias can move, so give it room to travel to 1
        train = small_train(k=100, d=3, n_target=20, seed=6)
        config = WannConfig(pretrain_epochs=400, batch_size=16, seed=6)
        model = build_wann_model(3, ArchSpec((8,)), config)
        for layer in model.weighter.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        assert np.all(model.instance_weights(train.X) == 0.0)
        pretrain_weighter(model, train, config)
        mean = model.instance_weights(train.X).mean()
        assert abs(mean - 0.01) <= 0.001


class TestWannStep:
    def test_zero_weighter_freezes_task_and_weighter(self):
        train = small_train(seed=7)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=7))
        for layer in model.weighter.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        task_before = params_of(model.task).copy()
        weighter_before = params_of(model.weighter).copy()
        adversary_before = params_of(model.adversary).copy()
        wann_step(model, adam_states(model), train.X[:16], train.y[:16],
                  train.is_target[:16], 16)
        np.testing.assert_array_equal(params_of(model.task), task_before)
        np.testing.assert_array_equal(params_of(model.weighter),
                                      weighter_before)
        assert not np.array_equal(params_of(model.adversary),
                                  adversary_before)

    def test_identical_task_and_adversary_zero_weighter_gradient(self):
        train = small_train(seed=8)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=8))
        config = WannConfig(pretrain_epochs=5, batch_size=16, seed=8)
        pretrain_weighter(model, train, config)
        model.adversary = model.task.copy()
        weighter_before = params_of(model.weighter).copy()
        wann_step(model, adam_states(model), train.X[:16], train.y[:16],
                  train.is_target[:16], 16)
        np.testing.assert_array_equal(params_of(model.weighter),
                                      weighter_before)

    def test_diagnostics_match_direct_sums(self):
        train = small_train(seed=9)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=9))
        config = WannConfig(pretrain_epochs=5, batch_size=16, seed=9)
        pretrain_weighter(model, train, config)
        X, y = train.X[:20], train.y[:20]
        flags = train.is_target[:20]
        w = model.instance_weights(X)
        sq_h = (forward(model.task, X) - y) ** 2
        sq_hp = (forward(model.adversary, X) - y) ** 2
        diag = wann_step(model, adam_states(model), X, y, flags, len(X))
        np.testing.assert_allclose(diag.l_q_h, np.dot(w, sq_h), rtol=1e-12)
        np.testing.assert_allclose(diag.l_q_hp, np.dot(w, sq_hp), rtol=1e-12)
        np.testing.assert_allclose(diag.l_tgt_hp, sq_hp[flags].mean(),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            diag.objective, diag.l_q_h + diag.l_tgt_hp - diag.l_q_hp,
            rtol=1e-15)

    def test_batch_without_targets_contributes_zero_target_term(self):
        train = small_train(seed=10)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=10))
        src = ~train.is_target
        diag = wann_step(model, adam_states(model), train.X[src][:8],
                         train.y[src][:8], np.zeros(8, dtype=bool), 8)
        assert diag.l_tgt_hp == 0.0

    def test_all_target_batch_steps(self):
        # the weighted sums run over every row, target rows included
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(4, 3)), rng.normal(size=4)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=11))
        w = model.instance_weights(X)
        sq_h = (forward(model.task, X) - y) ** 2
        sq_hp = (forward(model.adversary, X) - y) ** 2
        adversary_before = params_of(model.adversary).copy()
        diag = wann_step(model, adam_states(model), X, y,
                         np.ones(4, dtype=bool), 4)
        np.testing.assert_allclose(
            [diag.l_q_h, diag.l_tgt_hp, diag.l_q_hp],
            [np.dot(w, sq_h), sq_hp.mean(), np.dot(w, sq_hp)], rtol=1e-12)
        assert not np.array_equal(params_of(model.adversary),
                                  adversary_before)

    def test_non_finite_loss_raises_with_epoch(self):
        model = build_wann_model(2, ArchSpec((4,)), WannConfig(seed=12))
        X = np.ones((3, 2))
        y = np.array([0.0, np.inf, 1.0])
        flags = np.array([False, False, True])
        with pytest.raises(TrainingDivergedError) as err:
            wann_step(model, adam_states(model), X, y, flags, 3, epoch=17)
        assert err.value.epoch == 17

    # c = 0.8 keeps all of q's linear outputs positive (0.65, 1.05,
    # 1.175), so its relu is locally the identity; c = 0 makes them
    # -0.15, 0.25 and 0.375, so the relu zeroes the first row, which then
    # leaves the weighted sums and passes no gradient into q
    @pytest.mark.parametrize("c", [0.8, 0.0])
    def test_one_step_matches_hand_derived_objective_gradients(self, c):
        # 2 source rows + 1 target row, single linear layers. With
        # q_i = relu(x_i . u + c), gradients of
        #   J = sum_i q_i (h(x_i)-y_i)^2 + (h'(x3)-y3)^2
        #       - sum_i q_i (h'(x_i)-y_i)^2
        # are written out longhand below, followed by one exact
        # bias-corrected Adam step (ascent for h') and clipping.
        X = np.array([[0.5, -1.0], [1.5, 0.5], [-0.25, 2.0]])
        y = np.array([0.3, -0.7, 1.1])
        flags = np.array([False, False, True])
        a = np.array([0.2, -0.1])
        b = 0.05
        ap = np.array([-0.3, 0.15])
        bp = -0.2
        u = np.array([0.1, 0.2])
        lr, eps, clip = 0.001, 1e-8, 1.0

        model = WannModel(
            task=linear_net(a, b, clip=clip),
            adversary=linear_net(ap, bp, clip=clip),
            weighter=linear_net(u, c, clip=clip),
        )
        diag = wann_step(model, adam_states(model, lr), X, y, flags, len(X))

        pre = X @ u + c
        active = (pre > 0.0).astype(float)
        assert active.tolist() == ([1.0, 1.0, 1.0] if c else [0.0, 1.0, 1.0])
        q = active * pre
        e_h = X @ a + b - y
        e_hp = X @ ap + bp - y
        t = flags.astype(float)

        np.testing.assert_allclose(diag.l_q_h, np.dot(q, e_h ** 2),
                                   rtol=1e-14)
        np.testing.assert_allclose(diag.l_tgt_hp, e_hp[2] ** 2, rtol=1e-14)
        np.testing.assert_allclose(diag.l_q_hp, np.dot(q, e_hp ** 2),
                                   rtol=1e-14)

        grad_a = 2.0 * (q * e_h) @ X
        grad_b = 2.0 * np.sum(q * e_h)
        gap_a = 2.0 * ((t - q) * e_hp) @ X  # n_b = 1
        gap_b = 2.0 * np.sum((t - q) * e_hp)
        grad_u = (active * (e_h ** 2 - e_hp ** 2)) @ X
        grad_c = np.sum(active * (e_h ** 2 - e_hp ** 2))
        # the step leaves q's gradient in q.grad: weights, then bias
        np.testing.assert_allclose(model.weighter.grad, [*grad_u, grad_c],
                                   rtol=1e-14, atol=0)

        want_a = np.clip(adam_first_step(a, grad_a, lr, eps), -clip, clip)
        want_b = np.clip(adam_first_step(b, grad_b, lr, eps), -clip, clip)
        want_ap = np.clip(adam_first_step(ap, -gap_a, lr, eps), -clip, clip)
        want_bp = np.clip(adam_first_step(bp, -gap_b, lr, eps), -clip, clip)
        want_u = np.clip(adam_first_step(u, grad_u, lr, eps), -clip, clip)
        want_c = np.clip(adam_first_step(c, grad_c, lr, eps), -clip, clip)

        np.testing.assert_allclose(model.task.layers[0].weights[:, 0],
                                   want_a, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.task.layers[0].biases[0], want_b,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.adversary.layers[0].weights[:, 0],
                                   want_ap, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.adversary.layers[0].biases[0],
                                   want_bp, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.weighter.layers[0].weights[:, 0],
                                   want_u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.weighter.layers[0].biases[0],
                                   want_c, rtol=0, atol=1e-10)

    def test_weighter_gradient_matches_finite_differences(self):
        # q's gradient, left in q.grad by the step, is the gradient of
        # weight_scale * scale * sum_i relu(q(x_i)) (sq_h_i - sq_hp_i)
        # at the step's snapshot of h and h'; some rows of q are negative
        train = small_train(k=40, d=3, n_target=10, seed=30)
        idx = np.arange(12)
        X, y, flags = train.X[idx], train.y[idx], train.is_target[idx]
        model = build_wann_model(3, ArchSpec((6, 5)), WannConfig(seed=30))
        model.weight_scale = 1.0 / len(train)
        q = model.weighter
        q.layers[-1].biases[...] -= np.median(forward(q, X))
        assert (forward(q, X) < 0.0).sum() >= 4
        # h' apart from h, so the factors differ
        for layer in model.adversary.layers:
            layer.weights[...] *= 0.5
        sq_h = (forward(model.task, X) - y) ** 2
        sq_hp = (forward(model.adversary, X) - y) ** 2
        probe = q.copy()
        start = probe.params.copy()
        scale = len(train) / len(X)

        def objective(params):
            probe.params[:] = params
            out, _ = _forward_cache(probe, X)
            return float(model.weight_scale * scale
                         * np.dot(np.maximum(out, 0.0), sq_h - sq_hp))

        wann_step(model, adam_states(model), X, y, flags,
                  total_rows=len(train))
        fd = np.empty_like(start)
        for k in range(len(start)):
            bumped = start.copy()
            bumped[k] += 1e-6
            up = objective(bumped)
            bumped[k] -= 2e-6
            fd[k] = (up - objective(bumped)) / 2e-6
        assert np.abs(fd).max() > 0.0
        np.testing.assert_allclose(q.grad, fd, rtol=1e-5,
                                   atol=1e-8 * np.abs(fd).max())


class TestFitWann:
    def make_ready(self, seed=13, k=80, d=3):
        train = small_train(k=k, d=d, n_target=k // 4, seed=seed)
        config = WannConfig(epochs=4, batch_size=16, pretrain_epochs=5,
                            seed=seed)
        model = build_wann_model(d, ArchSpec((8,)), config)
        pretrain_weighter(model, train, config)
        return model, train, config

    def test_zero_epochs_empty_curve_model_unchanged(self):
        model, train, config = self.make_ready()
        config = replace(config, epochs=0)
        before = params_of(model.task).copy()
        val = LabeledSample(train.X[:5], train.y[:5])
        trace = fit_wann(model, train, config, validation=val)
        assert trace.val_mse == []
        np.testing.assert_array_equal(params_of(model.task), before)

    def test_same_seed_identical_results(self):
        curves, weights = [], []
        for _ in range(2):
            model, train, config = self.make_ready(seed=14)
            val = LabeledSample(train.X[:10], train.y[:10])
            trace = fit_wann(model, train, config, validation=val)
            curves.append(trace.val_mse)
            weights.append(model.instance_weights(train.X))
        assert curves[0] == curves[1]
        np.testing.assert_array_equal(weights[0], weights[1])

    def test_curve_length_equals_epochs(self):
        model, train, config = self.make_ready(seed=15)
        val = LabeledSample(train.X[:10], train.y[:10])
        trace = fit_wann(model, train, config, validation=val)
        assert len(trace.val_mse) == config.epochs
        assert trace.predictions is not None

    @given(m=st.integers(2, 40), target_fraction=st.floats(0.0, 1.0),
           batch_size=st.integers(1, 40), epochs=st.integers(0, 3))
    # one-row batches: every target row makes a batch of target rows only
    @example(m=6, target_fraction=0.5, batch_size=1, epochs=2)
    def test_any_domain_mix_and_batch_size_completes_deterministically(
            self, m, target_fraction, batch_size, epochs):
        n_target = min(max(round(target_fraction * m), 1), m - 1)
        batch_size = min(batch_size, m)
        train = small_train(k=m, d=2, n_target=n_target, seed=m)
        val = LabeledSample(train.X, train.y)
        results = []
        for _ in range(2):
            config = WannConfig(epochs=epochs, batch_size=batch_size,
                                pretrain_epochs=2, seed=31)
            model = build_wann_model(2, ArchSpec((4,)), config)
            pretrain_weighter(model, train, config)
            trace = fit_wann(model, train, config, validation=val)
            err = predict(model, val.X) - val.y
            if epochs:
                # the last epoch's MSE is the final model's
                assert trace.val_mse[-1] == float(np.mean(err * err))
            else:
                assert trace.predictions is None
            assert len(trace.val_mse) == epochs
            results.append((trace, model.instance_weights(train.X)))
        (first, first_weights), (second, second_weights) = results
        assert first.val_mse == second.val_mse
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first_weights, second_weights)

    def test_batch_above_row_count_is_one_full_batch(self):
        results = []
        for extra_rows in (0, 1):
            model, train, config = self.make_ready(seed=16)
            config = replace(config, batch_size=len(train) + extra_rows)
            val = LabeledSample(train.X[:10], train.y[:10])
            trace = fit_wann(model, train, config, validation=val)
            results.append((trace, model.instance_weights(train.X)))
        (full, full_weights), (above, above_weights) = results
        assert full.val_mse == above.val_mse
        np.testing.assert_array_equal(full.predictions, above.predictions)
        np.testing.assert_array_equal(full_weights, above_weights)

    def test_non_finite_validation_mse_raises_with_epoch(self):
        # finite labels whose squared errors overflow to inf
        model, train, config = self.make_ready(seed=19)
        val = LabeledSample(train.X[:10], np.full(10, 1e200))
        with (np.errstate(over="ignore"),
              pytest.raises(TrainingDivergedError) as err):
            fit_wann(model, train, config, validation=val)
        assert err.value.epoch == 0

    def test_steps_at_its_own_lr(self):
        # the model carries no step size: built at 0.001 and fit at 0.5,
        # it is the model built and fit at 0.5
        train = small_train(k=80, d=3, n_target=20, seed=25)
        config = WannConfig(epochs=2, batch_size=16, pretrain_epochs=2,
                            seed=25)

        def run(build_lr, fit_lr):
            model = build_wann_model(3, ArchSpec((8,)),
                                     replace(config, lr=build_lr))
            pretrain_weighter(model, train, replace(config, lr=fit_lr))
            fit_wann(model, train, replace(config, lr=fit_lr))
            return np.concatenate([model.task.params, model.adversary.params,
                                   model.weighter.params])

        moved = run(0.001, 0.5)
        assert moved.tobytes() == run(0.5, 0.5).tobytes()
        assert not np.array_equal(moved, run(0.001, 0.001))

    # a weight scale of 1 would make every weight k times its intended 1/k
    @pytest.mark.parametrize("pretrain_rows", [None, 60],
                             ids=["never", "other-size"])
    def test_unpretrained_model_fails_before_any_step(self, pretrain_rows):
        train = small_train(k=80, d=3, n_target=20, seed=26)
        config = WannConfig(epochs=2, batch_size=16, pretrain_epochs=2,
                            seed=26)
        model = build_wann_model(3, ArchSpec((8,)), config)
        if pretrain_rows:
            other = small_train(k=pretrain_rows, d=3, n_target=15, seed=27)
            pretrain_weighter(model, other, config)
        nets = (model.task, model.adversary, model.weighter)
        before = [net.params.copy() for net in nets]
        with pytest.raises(ValueError, match="run pretrain_weighter"):
            fit_wann(model, train, config)
        for net, params in zip(nets, before):
            assert net.params.tobytes() == params.tobytes()

    def test_requires_both_domains(self):
        model, train, config = self.make_ready(seed=17)
        only_src = TrainingSet(train.X, train.y,
                               np.zeros(len(train), dtype=bool))
        with pytest.raises(ValueError, match="source and target"):
            fit_wann(model, only_src, config)

    @pytest.mark.parametrize("domain", ["source", "target"])
    def test_one_domain_fails_before_pretraining(self, monkeypatch, domain):
        def no_training(*args, **kwargs):
            raise AssertionError("the weighter was trained")

        monkeypatch.setattr(training, "fit_regression", no_training)
        train = small_train(k=40, d=3, n_target=10, seed=18)
        one_side = TrainingSet(train.X, train.y,
                               np.full(len(train), domain == "target"))
        config = WannConfig(epochs=2, batch_size=16, pretrain_epochs=5,
                            seed=18)
        model = build_wann_model(3, ArchSpec((8,)), config)
        with pytest.raises(ValueError, match="source and target"):
            pretrain_weighter(model, one_side, config)


class TestTrainingWeights:
    def test_pretrained_weighter_gives_normalized_ones(self):
        train = small_train(k=200, d=3, n_target=40, seed=21)
        config = WannConfig(pretrain_epochs=200, batch_size=32, seed=21)
        model = build_wann_model(3, ArchSpec((8,)), config)
        pretrain_weighter(model, train, config)
        tw = training_weights(model, train)
        np.testing.assert_allclose(tw.normalized, 1.0, atol=0.3)
        np.testing.assert_allclose(tw.normalized.mean(), 1.0, rtol=1e-12)

    def test_nonnegative_by_construction(self):
        train = small_train(seed=22)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=22))
        tw = training_weights(model, train)
        assert tw.raw.min() >= 0.0

    def test_all_zero_weights_rejected(self):
        train = small_train(seed=23)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=23))
        for layer in model.weighter.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        with pytest.raises(ValueError, match="zero"):
            training_weights(model, train)


class TestPredict:
    def test_matches_eval_forward_and_ignores_weighter(self):
        train = small_train(seed=24)
        model = build_wann_model(3, ArchSpec((8,)), WannConfig(seed=24))
        base = predict(model, train.X)
        np.testing.assert_array_equal(base, forward(model.task, train.X))
        for layer in model.weighter.layers:
            layer.weights[...] += 1.0
        np.testing.assert_array_equal(predict(model, train.X), base)
