import collections
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wann import discrepancy, lanes
from wann.data import LabeledSample, TrainingSet, gen_uniform_shift_1d, labeling_fn
from wann.discrepancy import estimate_y_discrepancy, gap_weights
from wann.nn import ArchSpec, FitConfig, TrainingDivergedError
from wann.training import (WannConfig, build_wann_model, fit_wann,
                           pretrain_weighter, training_weights)


class TestIdentityCase:
    def test_identical_samples_uniform_weights_give_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        target = LabeledSample(X.copy(), y.copy())
        est = estimate_y_discrepancy(X, y, np.full(30, 1 / 30), target,
                                     arch=ArchSpec((8,)),
                                     config=FitConfig(4, 16, seed=0))
        assert est.value <= 1e-6
        assert est.positive_side <= 1e-6
        assert est.negative_side <= 1e-6


class TestGapWeights:
    def test_equal_batches_average_to_the_full_data_gap(self):
        # 24 rows in 4 batches of 6, each batch with 2 target rows; the
        # source weights sum to one and are zero on target rows
        rng = np.random.default_rng(3)
        batches = rng.permutation(24).reshape(4, 6)
        is_target = np.zeros(24, dtype=bool)
        is_target[batches[:, :2]] = True
        w = np.where(is_target, 0.0, rng.uniform(size=24))
        w /= w.sum()
        losses = rng.uniform(0.0, 2.0, size=24)
        source_term = -float(np.dot(w, losses))
        full_gap = float(losses[is_target].mean()) + source_term

        def batch_mean(flags, scale):
            return np.mean([np.dot(gap_weights(w[idx], flags[idx], scale),
                                   losses[idx]) for idx in batches])

        no_target = np.zeros(24, dtype=bool)
        assert np.isclose(batch_mean(no_target, 24 / 6), source_term,
                          rtol=1e-14)
        assert np.isclose(batch_mean(is_target, 24 / 6), full_gap, rtol=1e-14)
        # unscaled, the source term shrinks to batch/total of its size
        assert np.isclose(batch_mean(no_target, 1.0), source_term / 4,
                          rtol=1e-14)


class TestShiftCase:
    def test_disjoint_supports_strictly_positive(self):
        train, _ = gen_uniform_shift_1d(60, 30, seed=1)
        src = train.source_rows()
        tgt = train.target_rows()
        est = estimate_y_discrepancy(src.X, src.y,
                                     np.full(len(src), 1 / len(src)), tgt,
                                     arch=ArchSpec((16,)),
                                     config=FitConfig(20, 32, seed=1))
        assert est.value > 0.0


class TestMonotoneBudget:
    def test_more_epochs_never_decrease_estimate(self):
        rng = np.random.default_rng(2)
        src_x = rng.normal(size=(40, 2))
        src_y = labeling_fn(src_x)
        tgt_x = rng.normal(0.5, 1.0, size=(20, 2))
        target = LabeledSample(tgt_x, labeling_fn(tgt_x))
        w = np.full(40, 1 / 40)
        values = [estimate_y_discrepancy(src_x, src_y, w, target,
                                         arch=ArchSpec((8,), 0.5),
                                         config=FitConfig(epochs, 16,
                                                          seed=5)).value
                  for epochs in (0, 3, 10, 25)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestGridOracle:
    def test_linear_class_matches_box_grid_search(self):
        # clipped linear models a*x+b on fixed points: the true maximal
        # |gap| over the box comes from a dense grid
        src_x = np.array([[0.0], [1.0]])
        src_y = np.array([0.0, 1.0])
        src_w = np.array([0.5, 0.5])
        tgt_x = np.array([[2.0], [3.0]])
        tgt_y = np.array([0.5, 2.5])
        clip = 1.0

        grid = np.linspace(-clip, clip, 801)
        A, B = np.meshgrid(grid, grid, indexing="ij")

        def gap(a, b):
            tgt = 0.5 * ((a * 2.0 + b - 0.5) ** 2 + (a * 3.0 + b - 2.5) ** 2)
            src = (0.5 * (a * 0.0 + b - 0.0) ** 2
                   + 0.5 * (a * 1.0 + b - 1.0) ** 2)
            return tgt - src

        true_max = np.abs(gap(A, B)).max()
        target = LabeledSample(tgt_x, tgt_y)
        est = estimate_y_discrepancy(src_x, src_y, src_w, target,
                                     arch=ArchSpec((), clip),
                                     config=FitConfig(400, 4, 0.02, 3))
        assert est.value == pytest.approx(true_max, rel=0.05)
        assert est.value <= true_max + 1e-9  # lower bound on the box max


class TestBoundDirection:
    def test_estimate_dominates_task_risk_gap(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        flags = np.zeros(80, dtype=bool)
        flags[rng.choice(80, 20, replace=False)] = True
        train = TrainingSet(X, labeling_fn(X) + 0.3 * X[:, 0], flags)
        config = WannConfig(epochs=5, batch_size=16, pretrain_epochs=20,
                            seed=4)
        model = build_wann_model(3, ArchSpec((8,)), config)
        pretrain_weighter(model, train, config)
        fit_wann(model, train, config)

        w = training_weights(model, train).raw
        tgt = train.target_rows()
        from wann.nn import forward
        task_tgt_risk = float(np.mean((forward(model.task, tgt.X)
                                       - tgt.y) ** 2))
        weighted_risk = float(np.dot(w, (forward(model.task, train.X)
                                         - train.y) ** 2))
        est = estimate_y_discrepancy(
            train.X, train.y, w, tgt, arch=ArchSpec((8,)),
            config=FitConfig(10, 16, seed=4), init_net=model.task)
        assert task_tgt_risk - weighted_risk <= est.value + 1e-12


class TestValidation:
    def test_negative_weights_rejected(self):
        X = np.ones((3, 2))
        target = LabeledSample(X, np.ones(3))
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_y_discrepancy(X, np.ones(3), np.array([0.5, -0.1, 0.6]),
                                   target)

    def test_feature_mismatch_rejected(self):
        target = LabeledSample(np.ones((3, 3)), np.ones(3))
        with pytest.raises(ValueError, match="feature"):
            estimate_y_discrepancy(np.ones((3, 2)), np.ones(3),
                                   np.full(3, 1 / 3), target)

    @pytest.mark.parametrize("bad", [{"batch_size": -5}, {"epochs": -3},
                                     {"lr": -0.01}])
    def test_bad_schedule_rejected(self, bad):
        # these once returned the untrained estimate (batch_size, epochs)
        # or turned the ascent into descent (lr); the schedule now comes
        # only as a FitConfig, which refuses them
        X = np.ones((3, 2))
        target = LabeledSample(X, np.ones(3))
        (field, value), = bad.items()
        with pytest.raises(ValueError, match=f"{field} must be"):
            estimate_y_discrepancy(X, np.ones(3), np.full(3, 1 / 3), target,
                                   config=FitConfig(**bad))
        with pytest.raises(TypeError, match=field):
            estimate_y_discrepancy(X, np.ones(3), np.full(3, 1 / 3), target,
                                   **bad)

    def test_empty_target_rejected_before_any_network(self, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(discrepancy.ArchSpec, "build", no_network)
        target = LabeledSample(np.ones((0, 2)), np.ones(0))
        with pytest.raises(ValueError, match="target sample is empty"):
            estimate_y_discrepancy(np.ones((3, 2)), np.ones(3),
                                   np.full(3, 1 / 3), target)

    @pytest.mark.parametrize("shape", [(3,), (3, 1, 1)],
                             ids=["1-D", "3-D"])
    def test_source_x_not_a_matrix_rejected_before_any_network(
            self, shape, monkeypatch):
        # a 1-D source_x once failed as a bare IndexError on shape[1]
        def no_network(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(discrepancy.ArchSpec, "build", no_network)
        target = LabeledSample(np.ones((3, 1)), np.ones(3))
        with pytest.raises(ValueError, match="source_x must be a 2-D matrix"):
            estimate_y_discrepancy(np.ones(shape), np.ones(3),
                                   np.full(3, 1 / 3), target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["source_x", "source_y", "source_w",
                                      "target.X", "target.y"])
    def test_non_finite_input_rejected_by_name_before_any_network(
            self, name, bad, monkeypatch):
        # a NaN weight once read "training diverged at epoch 0"
        def no_network(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(discrepancy.ArchSpec, "build", no_network)
        arrays = {"source_x": np.ones((4, 2)), "source_y": np.ones(4),
                  "source_w": np.full(4, 0.25), "target.X": np.ones((3, 2)),
                  "target.y": np.ones(3)}
        arrays[name][2] = bad
        target = LabeledSample(arrays["target.X"], arrays["target.y"])
        with pytest.raises(ValueError,
                           match=rf"{name} has a non-finite value in row 2"):
            estimate_y_discrepancy(arrays["source_x"], arrays["source_y"],
                                   arrays["source_w"], target)


# 40 source and 15 target rows at batch 16: 4 ascent steps per epoch
STEPS_PER_EPOCH = 4


def _shifted_draw():
    rng = np.random.default_rng(6)
    src_x = rng.normal(size=(40, 3))
    tgt_x = rng.normal(0.5, 1.0, size=(15, 3))
    return (src_x, labeling_fn(src_x), rng.uniform(size=40) / 20,
            LabeledSample(tgt_x, labeling_fn(tgt_x)))


def _estimate(epochs=6):
    return estimate_y_discrepancy(*_shifted_draw(), arch=ArchSpec((8,)),
                                  config=FitConfig(epochs, 16, 0.01, seed=3))


def _diverge_in(monkeypatch, epochs: dict[float, int]) -> None:
    """Make the ascent of each sign in ``epochs`` diverge in that epoch:
    its net's parameters turn NaN after the epoch's first step."""
    steps: dict[int, list] = {}
    ascend, adam_step = discrepancy._ascend, discrepancy.adam_step

    def tagged_ascend(net, sign, *args, **kwargs):
        if sign in epochs:
            steps[id(net)] = [epochs[sign] * STEPS_PER_EPOCH + 1, 0]
        return ascend(net, sign, *args, **kwargs)

    def poisoning_step(net, state):
        adam_step(net, state)
        count = steps.get(id(net))
        if count is not None:
            count[1] += 1
            if count[1] == count[0]:
                net.params[:] = np.nan

    monkeypatch.setattr(discrepancy, "_ascend", tagged_ascend)
    monkeypatch.setattr(discrepancy, "adam_step", poisoning_step)


class TestConcurrentSides:
    def test_worker_count_leaves_every_bit(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: 1)
        serial = _estimate()
        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: 2)
        assert _estimate() == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_minus_side_runs_on_a_worker_thread_only_with_two(
            self, workers, monkeypatch):
        seen = {}
        ascend = discrepancy._ascend

        def recording_ascend(net, sign, *args, **kwargs):
            seen[sign] = (threading.get_ident(), np.geterr()["over"])
            return ascend(net, sign, *args, **kwargs)

        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: workers)
        monkeypatch.setattr(discrepancy, "_ascend", recording_ascend)
        with np.errstate(over="raise"):
            _estimate(epochs=1)
        caller = threading.get_ident()
        assert seen[1.0] == (caller, "raise")
        # the worker runs in the caller's numpy error state
        assert seen[-1.0][1] == "raise"
        assert (seen[-1.0][0] != caller) == (workers == 2)

    @pytest.mark.parametrize("blas", [1, 2, None])
    def test_two_workers_only_on_one_blas_thread(self, blas, monkeypatch):
        monkeypatch.setattr(lanes, "blas_threads", lambda: blas)
        cores = len(os.sched_getaffinity(0))
        assert discrepancy._ascent_workers() == (min(2, cores) if blas == 1
                                                 else 1)

    def test_replaced_engine_function_runs_serially(self, monkeypatch):
        monkeypatch.setattr(lanes, "blas_threads", lambda: 1)
        forward = discrepancy.forward
        monkeypatch.setattr(discrepancy, "forward",
                            lambda net, X: forward(net, X))
        assert discrepancy._ascent_workers() == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_minus_side_divergence_names_its_epoch(self, workers,
                                                   monkeypatch):
        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: workers)
        _diverge_in(monkeypatch, {-1.0: 2})
        with pytest.raises(TrainingDivergedError) as err:
            _estimate()
        assert err.value.epoch == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plus_side_error_wins_when_both_fail(self, workers, monkeypatch):
        # the -d side fails first, in epoch 0; the +d side in epoch 3
        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: workers)
        _diverge_in(monkeypatch, {1.0: 3, -1.0: 0})
        with pytest.raises(TrainingDivergedError) as err:
            _estimate()
        assert err.value.epoch == 3

    def test_plus_side_failure_stops_the_worker_early(self, monkeypatch):
        epochs = 200
        monkeypatch.setattr(discrepancy, "_ascent_workers", lambda: 2)
        _diverge_in(monkeypatch, {1.0: 0})
        ascend, adam_step = discrepancy._ascend, discrepancy.adam_step
        minus, steps = [], collections.Counter()

        def counting_ascend(net, sign, *args, **kwargs):
            if sign < 0:
                minus.append(net)
            return ascend(net, sign, *args, **kwargs)

        def counting_step(net, state):
            adam_step(net, state)
            steps[id(net)] += 1

        monkeypatch.setattr(discrepancy, "_ascend", counting_ascend)
        monkeypatch.setattr(discrepancy, "adam_step", counting_step)
        with pytest.raises(TrainingDivergedError) as err:
            _estimate(epochs)
        assert err.value.epoch == 0
        assert steps[id(minus[0])] < epochs * STEPS_PER_EPOCH

    def test_one_blas_thread_takes_the_concurrent_path(self):
        # a fresh process, so the BLAS reads its thread count from the
        # environment; the serial result comes from the same process
        script = (
            "import os\n"
            "from wann import discrepancy, lanes\n"
            "from test_discrepancy import _estimate\n"
            "workers = discrepancy._ascent_workers()\n"
            "concurrent = _estimate()\n"
            "discrepancy._ascent_workers = lambda: 1\n"
            "serial = _estimate()\n"
            "print(lanes.blas_threads(), workers,\n"
            "      len(os.sched_getaffinity(0)))\n"
            "print(*(v.hex() for v in (concurrent.value,\n"
            "      concurrent.positive_side, concurrent.negative_side)))\n"
            "print(*(v.hex() for v in (serial.value, serial.positive_side,\n"
            "      serial.negative_side)))\n")
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(here.parent / "src"), str(here),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        threads, concurrent, serial = proc.stdout.splitlines()
        blas, workers, cores = threads.split()
        if blas == "None":
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        assert (blas, int(workers)) == ("1", min(2, int(cores)))
        assert concurrent == serial
