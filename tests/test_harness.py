import dataclasses
import filecmp
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wann import baselines, harness, lanes, nn, training
from wann.data import (LabeledSample, MixtureShiftSpec, TrainingSet,
                       gen_mixture_shift)
from wann.harness import (PARAM_KEYS, RUNNERS, ExperimentConfig, MethodSpec,
                          build_comparison_table, compute_metrics,
                          emit_plot_data, export_results, method_lanes,
                          run_experiment, run_method, run_methods)
from wann.nn import ArchSpec, FitConfig, forward
from wann.training import predict
from wann.baselines import uniform_fit
from wann.results import RunResult, parse_kv_lines, parse_run_file, write_run_file

FAST = {"epochs": 3, "batch_size": 16, "hidden": (6,), "clip": 1.0,
        "pretrain_epochs": 3}
TINY = MixtureShiftSpec(dim=2, m=40, n_validation=50)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        metrics = compute_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert metrics.mse == 0.0 and metrics.mae == 0.0

    def test_hand_example(self):
        metrics = compute_metrics(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert metrics.mse == 1.0 and metrics.mae == 1.0

    def test_jensen_mse_at_least_mae_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pred = rng.normal(size=50)
            labels = rng.normal(size=50)
            metrics = compute_metrics(pred, labels)
            assert metrics.mse >= metrics.mae ** 2 - 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            compute_metrics(np.zeros(3), np.zeros(4))


class TestRunResultPersistence:
    def test_round_trip_all_fields(self, tmp_path):
        result = RunResult(method="wann", seed=7,
                           curve=[0.5, 0.25, 1e-17],
                           final_mse=0.125, final_mae=0.25,
                           weights=np.array([1e-9, 2.0, 0.3333333333333333]))
        path = tmp_path / "run.txt"
        write_run_file(result, path)
        parsed = parse_run_file(path)
        assert parsed.method == result.method
        assert parsed.seed == result.seed
        assert parsed.curve == result.curve
        assert parsed.final_mse == result.final_mse
        assert parsed.final_mae == result.final_mae
        np.testing.assert_array_equal(parsed.weights, result.weights)
        assert parsed.error is None

    def test_round_trip_failure_record(self, tmp_path):
        result = RunResult(method="kmm", seed=3, error="ValueError: boom")
        path = tmp_path / "fail.txt"
        write_run_file(result, path)
        parsed = parse_run_file(path)
        assert parsed.error == "ValueError: boom"
        assert parsed.final_mse is None and parsed.curve == []

    def test_empty_curve_round_trip(self, tmp_path):
        result = RunResult(method="tradaboost", seed=1, final_mse=1.0,
                           final_mae=0.5)
        write_run_file(result, tmp_path / "r.txt")
        parsed = parse_run_file(tmp_path / "r.txt")
        assert parsed.curve == []

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_kv_lines("method wann\n")


class TestComparisonTable:
    def test_means_and_ranks(self):
        results = [
            RunResult("a", 0, final_mse=1.0, final_mae=0.5),
            RunResult("a", 1, final_mse=3.0, final_mae=1.5),
            RunResult("b", 0, final_mse=0.5, final_mae=0.25),
            RunResult("b", 1, final_mse=0.7, final_mae=0.35),
        ]
        table = build_comparison_table(results)
        assert [row.method for row in table] == ["b", "a"]
        assert table[0].rank == 1 and table[1].rank == 2
        assert table[1].mean_mse == 2.0
        assert table[1].n_runs == 2
        np.testing.assert_allclose(table[1].std_mse, 1.0)

    def test_failed_method_ranked_last(self):
        results = [RunResult("good", 0, final_mse=1.0, final_mae=1.0),
                   RunResult("bad", 0, error="x")]
        table = build_comparison_table(results)
        assert table[0].method == "good"
        assert table[1].method == "bad"
        assert table[1].mean_mse is None
        assert table[0].rank == 1 and table[1].rank is None
        # a table of failures ranks nothing
        table = build_comparison_table([RunResult("a", 0, error="x"),
                                        RunResult("b", 0, error="y")])
        assert [row.rank for row in table] == [None, None]


class TestRunExperiment:
    def test_single_method_single_repeat(self, tmp_path):
        config = ExperimentConfig(
            scenario=TINY,
            methods=[MethodSpec("uniform", dict(FAST))],
            n_repeats=1, base_seed=2, out_dir=str(tmp_path / "exp"))
        results, table = run_experiment(config)
        assert len(results) == 1
        assert len(table) == 1
        assert (tmp_path / "exp" / "runs" / "uniform_2.txt").exists()
        assert (tmp_path / "exp" / "table.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        def launch(where):
            config = ExperimentConfig(
                scenario=TINY,
                methods=[MethodSpec("wann", dict(FAST)),
                         MethodSpec("uniform", dict(FAST))],
                n_repeats=2, base_seed=5, out_dir=str(where))
            run_experiment(config)

        launch(tmp_path / "one")
        launch(tmp_path / "two")
        files_one = sorted(p.relative_to(tmp_path / "one")
                           for p in (tmp_path / "one").rglob("*")
                           if p.is_file())
        files_two = sorted(p.relative_to(tmp_path / "two")
                           for p in (tmp_path / "two").rglob("*")
                           if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert filecmp.cmp(tmp_path / "one" / rel, tmp_path / "two" / rel,
                               shallow=False), rel

    def test_method_failure_recorded_not_fatal(self, tmp_path):
        bad = dict(FAST, batch_size=0)  # below 1, which WannConfig rejects
        config = ExperimentConfig(
            scenario=TINY,
            methods=[MethodSpec("wann", bad),
                     MethodSpec("uniform", dict(FAST))],
            n_repeats=2, base_seed=0, out_dir=str(tmp_path / "exp"))
        results, table = run_experiment(config)
        assert len(results) == 4  # every (method, repeat) pair present
        wann_runs = [r for r in results if r.method == "wann"]
        assert all(r.error is not None for r in wann_runs)
        parsed = parse_run_file(tmp_path / "exp" / "runs" / "wann_0.txt")
        assert parsed.error is not None

    def test_fairness_methods_share_data(self):
        scenario = TINY
        config = ExperimentConfig(
            scenario=scenario,
            methods=[MethodSpec("uniform", dict(FAST))],
            n_repeats=1, base_seed=11, out_dir=None)
        results, _ = run_experiment(config)
        data = gen_mixture_shift(replace(scenario, seed=11))
        grid = data.validation
        net, _ = uniform_fit(data.train, ArchSpec((6,), clip=1.0),
                             FitConfig(epochs=3, batch_size=16, seed=11),
                             validation=grid)
        metrics = compute_metrics(forward(net, grid.X), grid.y)
        assert results[0].final_mse == metrics.mse

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError,
                           match=f"n_workers must be >= 1, got {workers}"):
            ExperimentConfig(scenario=TINY, methods=[], n_workers=workers)

    def test_methods_kept_as_a_tuple(self):
        methods = [MethodSpec("uniform", dict(FAST))]
        config = ExperimentConfig(scenario=TINY, methods=methods)
        methods.append(MethodSpec("wann"))
        assert config.methods == (MethodSpec("uniform", dict(FAST)),)

    def test_unique_method_names_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig(scenario=TINY,
                             methods=[MethodSpec("a"), MethodSpec("a")])

    def test_parallel_matches_serial(self, tmp_path):
        def launch(where, workers):
            config = ExperimentConfig(
                scenario=TINY,
                methods=[MethodSpec("uniform", dict(FAST))],
                n_repeats=3, base_seed=1, out_dir=str(where),
                n_workers=workers)
            run_experiment(config)

        launch(tmp_path / "serial", 1)
        launch(tmp_path / "parallel", 2)
        for rel in sorted((tmp_path / "serial").rglob("*")):
            if rel.is_file():
                other = tmp_path / "parallel" / rel.relative_to(
                    tmp_path / "serial")
                assert filecmp.cmp(rel, other, shallow=False), rel


class TestMethodSpec:
    def test_unknown_param_rejected_by_name(self):
        with pytest.raises(ValueError, match="'epoch'") as err:
            MethodSpec("wann", {"epoch": 5})
        assert "'epochs'" in str(err.value)  # the accepted keys are listed

    def test_spec_is_read_only_and_pickles(self):
        given = {"epochs": 5}
        spec = MethodSpec("uniform", given)
        given["epoch"] = 1  # the spec holds its own copy
        with pytest.raises(TypeError):
            spec.params["epoch"] = 5  # once silently ignored by run_method
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.params = {"epoch": 5}
        assert dict(spec.params) == {"epochs": 5}
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_accepted_keys_are_the_documented_eleven(self):
        assert PARAM_KEYS == {
            "hidden", "clip", "epochs", "batch_size", "lr", "pretrain_epochs",
            "kernel_bandwidth", "B", "eps", "n_centers", "n_iterations"}

    @pytest.mark.parametrize("method", ["wann", "uniform", "tradaboost"])
    def test_predictions_kept_in_memory_only(self, method, tmp_path):
        data = gen_mixture_shift(replace(TINY, seed=4))
        params = dict(FAST, n_iterations=2) if method == "tradaboost" else FAST
        result = run_method(MethodSpec(method, dict(params)), data.train,
                            data.validation, seed=4)
        assert result.error is None
        assert result.predictions.shape == data.validation.y.shape
        metrics = compute_metrics(result.predictions, data.validation.y)
        assert (metrics.mse, metrics.mae) == (result.final_mse,
                                              result.final_mae)
        write_run_file(result, tmp_path / "run.txt")
        assert "predictions" not in (tmp_path / "run.txt").read_text()

    @pytest.mark.parametrize("method", ["wann", "uniform", "target_only",
                                        "kmm", "kliep"])
    def test_last_epoch_predictions_are_reused(self, monkeypatch, method):
        # the fit's last validation forward already gives the predictions;
        # only a fit of zero epochs needs one more, whose MSE is the final
        data = gen_mixture_shift(replace(TINY, seed=5))
        validation = data.validation
        calls = []

        def counting(predictor):
            def predict_and_keep(model, X):
                calls.append(predictor(model, X))
                return calls[-1]
            return predict_and_keep

        monkeypatch.setattr(harness, "forward", counting(forward))
        monkeypatch.setattr(harness, "predict", counting(predict))
        trained = run_method(MethodSpec(method, dict(FAST)), data.train,
                             validation, seed=5)
        assert trained.error is None and calls == []
        # the trainer's own last-epoch MSE is the run's final MSE
        assert (compute_metrics(trained.predictions, validation.y).mse
                == trained.curve[-1] == trained.final_mse)
        untrained = run_method(MethodSpec(method, dict(FAST, epochs=0)),
                               data.train, validation, seed=5)
        assert untrained.error is None and untrained.curve == []
        assert len(calls) == 1 and calls[0].shape == validation.y.shape
        err = calls[0] - validation.y
        assert untrained.final_mse == float(np.mean(err * err))

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        # every method trains through fit_regression first (wann in
        # pretrain_weighter, the others through nn.fit_network), after kmm
        # and kliep solve for their weights
        for module in (nn, training):
            monkeypatch.setattr(module, "fit_regression", refuse)
        monkeypatch.setattr(baselines, "kmm_weights", refuse)
        monkeypatch.setattr(baselines, "kliep_weights", refuse)

    @pytest.mark.parametrize("method,bad,message", [
        *[(method, bad, message) for method in sorted(RUNNERS)
          for bad, message in [({"epochs": -3}, "epochs must be >= 0"),
                               ({"batch_size": 0}, "batch_size must be"),
                               ({"lr": -0.5}, "lr must be finite"),
                               ({"hidden": (0,)}, "layer 0 has 0 units"),
                               ({"clip": 0.0}, "clip must be finite"),
                               ({"clip": float("nan")},
                                "clip must be finite and positive, got nan"),
                               # keys of other methods are checked too
                               ({"pretrain_epochs": -2},
                                "pretrain_epochs must be >= 0"),
                               ({"B": -1.0}, "B must be finite and positive"),
                               ({"eps": 1.0}, "eps must lie in (0, 1)"),
                               ({"kernel_bandwidth": 0.0},
                                "kernel_bandwidth must be finite"),
                               ({"n_centers": 0}, "n_centers must be >= 1"),
                               ({"n_iterations": 0},
                                "n_iterations must be >= 1")]],
    ])
    def test_bad_params_recorded_before_training(self, no_training, method,
                                                 bad, message):
        data = gen_mixture_shift(replace(TINY, seed=6))
        params = {**FAST, "n_iterations": 2, **bad}
        result = run_method(MethodSpec(method, params), data.train,
                            data.validation, seed=6)
        assert result.error.startswith("ValueError: "), result.error
        assert message in result.error

    def test_validation_width_checked_before_the_method_runs(
            self, monkeypatch):
        def spy(*args):
            raise AssertionError("the runner was called")

        monkeypatch.setitem(harness.RUNNERS, "uniform", spy)
        data = gen_mixture_shift(replace(TINY, seed=7))
        narrow = LabeledSample(data.validation.X[:, :1], data.validation.y)
        result = run_method(MethodSpec("uniform", dict(FAST)), data.train,
                            narrow, seed=7)
        assert result.error == ("ValueError: validation sample has 1 "
                                "features, training set has 2")

    @pytest.mark.parametrize("method", sorted(RUNNERS))
    @pytest.mark.parametrize("bad,message", [
        ("empty train", "training set is empty"),
        ("empty validation", "validation sample is empty"),
        ("inf in train.X", "train.X has a non-finite value in row 3"),
        ("nan in validation.y",
         "validation.y has a non-finite value in row 3")])
    def test_bad_sample_recorded_before_training(self, no_training, method,
                                                 bad, message):
        # an empty training set once recorded "ZeroDivisionError: float
        # division by zero" from uniform, and a nan label an MSE of nan
        data = gen_mixture_shift(replace(TINY, seed=8))
        train, validation = data.train, data.validation
        if bad == "empty train":
            train = TrainingSet(np.zeros((0, 2)), np.zeros(0),
                                np.zeros(0, dtype=bool))
        elif bad == "empty validation":
            validation = LabeledSample(np.zeros((0, 2)), np.zeros(0))
        elif bad == "inf in train.X":
            train.X[3, 1] = np.inf
        else:
            validation.y[3] = np.nan
        result = run_method(MethodSpec(method, dict(FAST)), train,
                            validation, seed=8)
        assert result.error == f"ValueError: {message}"


# a mixed list for the lane tests: four methods that train and one whose
# configuration fails before it starts
LANE_SPECS = (MethodSpec("wann", dict(FAST)), MethodSpec("uniform", dict(FAST)),
              MethodSpec("target_only", dict(FAST)),
              MethodSpec("kmm", dict(FAST)),
              MethodSpec("kliep", dict(FAST, hidden=(0,))))


def same_results(one: RunResult, two: RunResult) -> bool:
    """Every field but the wall time is equal, arrays to the bit."""
    def arrays(r):
        return [None if a is None else np.asarray(a).tobytes()
                for a in (r.weights, r.predictions)]
    return ((one.method, one.seed, one.curve, one.final_mse, one.final_mae,
             one.error) == (two.method, two.seed, two.curve, two.final_mse,
                            two.final_mae, two.error)
            and arrays(one) == arrays(two))


def wait_for(path: Path, seconds: float = 60.0) -> None:
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.005)


class TestMethodLanes:
    @pytest.fixture
    def one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(lanes, "blas_threads", lambda: 1)
        return min(2, len(os.sched_getaffinity(0)))

    def test_two_lanes_give_the_bits_of_one(self, tmp_path, monkeypatch):
        runs = {}
        for n_lanes in (1, 2):
            monkeypatch.setattr(harness, "method_lanes",
                                lambda n_workers=1, n=n_lanes: n)
            out = tmp_path / f"lanes{n_lanes}"
            results, _ = run_experiment(ExperimentConfig(
                scenario=TINY, methods=LANE_SPECS, n_repeats=2, base_seed=3,
                out_dir=str(out)))
            runs[n_lanes] = results
        assert len(runs[1]) == len(runs[2]) == 10
        assert all(same_results(a, b) for a, b in zip(runs[1], runs[2]))
        assert sum(r.error is not None for r in runs[2]) == 2
        files = sorted(p.relative_to(tmp_path / "lanes1")
                       for p in (tmp_path / "lanes1").rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "lanes2")
                               for p in (tmp_path / "lanes2").rglob("*")
                               if p.is_file())
        for rel in files:
            assert filecmp.cmp(tmp_path / "lanes1" / rel,
                               tmp_path / "lanes2" / rel, shallow=False), rel
        assert multiprocessing.active_children() == []

    def test_results_keep_the_order_of_the_specs(self):
        data = gen_mixture_shift(replace(TINY, seed=4))
        results = run_methods(LANE_SPECS[::-1], data.train, data.validation,
                              4, n_lanes=2)
        assert [r.method for r in results] == [
            spec.name for spec in LANE_SPECS[::-1]]

    def test_two_lanes_on_one_blas_thread(self, one_blas_thread):
        assert method_lanes() == one_blas_thread

    @pytest.mark.parametrize("blas", [2, None])
    def test_one_lane_unless_blas_runs_one_thread(self, blas, monkeypatch):
        monkeypatch.setattr(lanes, "blas_threads", lambda: blas)
        assert method_lanes() == 1

    def test_one_lane_on_one_core(self, one_blas_thread, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert method_lanes() == 1

    @pytest.mark.parametrize("replaced", ["forward", "runner"])
    def test_one_lane_with_a_replaced_engine_function(
            self, one_blas_thread, monkeypatch, replaced):
        if replaced == "forward":
            monkeypatch.setattr(harness, "forward",
                                lambda net, X: forward(net, X))
        else:
            monkeypatch.setitem(RUNNERS, "uniform", RUNNERS["target_only"])
        assert method_lanes() == 1

    def test_one_lane_beside_another_thread(self, one_blas_thread):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert method_lanes() == 1
        finally:
            release.set()
            other.join()
        assert method_lanes() == one_blas_thread

    def test_one_lane_beside_worker_processes(self, one_blas_thread):
        assert method_lanes(n_workers=2) == 1

    def test_a_dead_child_gives_error_results(self, monkeypatch):
        # the child runs every spec but the first; its first runner ends
        # it with exit code 3, so neither of its results is sent
        caller, target_only = os.getpid(), RUNNERS["target_only"]

        def fatal_target_only(*args):
            if os.getpid() != caller:
                os._exit(3)
            return target_only(*args)

        monkeypatch.setitem(RUNNERS, "target_only", fatal_target_only)
        data = gen_mixture_shift(replace(TINY, seed=5))
        specs = [MethodSpec("uniform", dict(FAST)),
                 MethodSpec("target_only", dict(FAST)),
                 MethodSpec("wann", dict(FAST))]
        results = run_methods(specs, data.train, data.validation, 5,
                              n_lanes=2)
        assert [r.method for r in results] == ["uniform", "target_only",
                                               "wann"]
        for result in results[1:]:
            assert result.error == (
                "ChildProcessError: the method lane's child exited with "
                "code 3 before sending this result")
            assert result.final_mse is None
        monkeypatch.undo()
        assert same_results(results[0], run_method(
            specs[0], data.train, data.validation, 5))
        assert multiprocessing.active_children() == []

    def test_a_caller_error_ends_the_child(self, tmp_path, monkeypatch):
        caller, taken = os.getpid(), tmp_path / "taken"

        def interrupted(*args):
            wait_for(taken)
            raise KeyboardInterrupt

        def endless(*args):
            if os.getpid() != caller:
                taken.touch()
            time.sleep(120)

        monkeypatch.setitem(RUNNERS, "uniform", interrupted)
        monkeypatch.setitem(RUNNERS, "target_only", endless)
        data = gen_mixture_shift(replace(TINY, seed=5))
        specs = [MethodSpec("uniform", dict(FAST)),
                 MethodSpec("target_only", dict(FAST))]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_methods(specs, data.train, data.validation, 5, n_lanes=2)
        assert time.monotonic() - start < 60
        assert multiprocessing.active_children() == []

    def test_the_child_leaves_ctrl_c_to_the_caller(self, monkeypatch):
        caller, target_only = os.getpid(), RUNNERS["target_only"]

        def interrupted_target_only(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGINT)
            return target_only(*args)

        monkeypatch.setitem(RUNNERS, "target_only", interrupted_target_only)
        data = gen_mixture_shift(replace(TINY, seed=5))
        specs = [MethodSpec("uniform", dict(FAST)),
                 MethodSpec("target_only", dict(FAST))]
        results = run_methods(specs, data.train, data.validation, 5,
                              n_lanes=2)
        assert [r.error for r in results] == [None, None]

    def test_no_semaphores_needed(self, tmp_path, monkeypatch):
        # where sem_open is missing (no /dev/shm) multiprocessing's
        # synchronize module fails to import; the lanes use none of it
        caller, ran = os.getpid(), tmp_path / "ran"
        target_only = RUNNERS["target_only"]

        def named_target_only(*args):
            ran.write_text(str(os.getpid()))
            return target_only(*args)

        data = gen_mixture_shift(replace(TINY, seed=6))
        serial = run_methods(LANE_SPECS, data.train, data.validation, 6,
                             n_lanes=1)
        monkeypatch.setitem(sys.modules, "multiprocessing.synchronize", None)
        monkeypatch.setitem(RUNNERS, "target_only", named_target_only)
        results = run_methods(LANE_SPECS, data.train, data.validation, 6,
                              n_lanes=2)
        assert all(same_results(a, b) for a, b in zip(serial, results))
        assert int(ran.read_text()) != caller
        assert multiprocessing.active_children() == []

    def test_no_fork_leaves_the_caller_every_spec(self, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        data = gen_mixture_shift(replace(TINY, seed=6))
        serial = run_methods(LANE_SPECS, data.train, data.validation, 6,
                             n_lanes=1)
        monkeypatch.setattr(os, "fork", no_fork)
        results = run_methods(LANE_SPECS, data.train, data.validation, 6,
                              n_lanes=2)
        assert all(same_results(a, b) for a, b in zip(serial, results))

    def test_unknown_method_raises_before_any_spec_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a spec ran")

        monkeypatch.setitem(RUNNERS, "uniform", refuse)
        data = gen_mixture_shift(replace(TINY, seed=6))
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            run_methods([MethodSpec("uniform"), MethodSpec("nope")],
                        data.train, data.validation, 6, n_lanes=2)

    def test_one_blas_thread_takes_the_fork_lane(self):
        # a fresh process, so the BLAS reads its thread count from the
        # environment. The first run takes the rule's lanes as they are;
        # the second wraps every runner to name the process it ran in,
        # and keeps the lane count the rule gave before the wrapping
        script = (
            "import os\n"
            "from wann import harness, lanes\n"
            "from test_harness import LANE_SPECS, TINY\n"
            "def bits():\n"
            "    results, _ = harness.run_experiment(\n"
            "        harness.ExperimentConfig(TINY, LANE_SPECS, 2, 3))\n"
            "    return [(r.method, r.seed, r.error, r.final_mse, r.curve,\n"
            "             None if r.weights is None else r.weights.tobytes(),\n"
            "             None if r.predictions is None\n"
            "             else r.predictions.tobytes()) for r in results]\n"
            "def naming(name, runner):\n"
            "    def run(*args):\n"
            "        # one write, so that the two lanes' lines do not mix\n"
            "        os.write(2, f'ran {name} {os.getpid()}\\n'.encode())\n"
            "        return runner(*args)\n"
            "    return run\n"
            "n_lanes = harness.method_lanes()\n"
            "by_rule = bits()\n"
            "for name, runner in list(harness.RUNNERS.items()):\n"
            "    harness.RUNNERS[name] = naming(name, runner)\n"
            "harness.method_lanes = lambda n_workers=1: n_lanes\n"
            "named = bits()\n"
            "harness.method_lanes = lambda n_workers=1: 1\n"
            "serial = bits()\n"
            "print(lanes.blas_threads(), n_lanes, len(os.sched_getaffinity(0)),\n"
            "      os.getpid(), by_rule == named == serial)\n")
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(here.parent / "src"), str(here),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blas, n_lanes, cores, caller, same = proc.stdout.split()
        if blas == "None":
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        assert (blas, int(n_lanes)) == ("1", min(2, int(cores)))
        assert same == "True"
        ran = [line.split() for line in proc.stderr.splitlines()
               if line.startswith("ran ")]
        # 2 repeats of the 4 specs that reach their runner on the rule's
        # lanes, then 2 of 4 on one lane
        assert len(ran) == 16, proc.stderr
        assert all(pid == caller for _, _, pid in ran[8:])
        if int(n_lanes) == 2:
            assert {pid for _, _, pid in ran[:8]} - {caller}


class TestPlotOutputs:
    def make_results(self, tmp_path):
        config = ExperimentConfig(
            scenario=TINY,
            methods=[MethodSpec("wann", dict(FAST)),
                     MethodSpec("uniform", dict(FAST))],
            n_repeats=2, base_seed=0, out_dir=str(tmp_path / "exp"))
        results, _ = run_experiment(config)
        return results, tmp_path / "exp"

    def test_curve_files_have_epoch_rows(self, tmp_path):
        results, out = self.make_results(tmp_path)
        for result in results:
            path = out / "curves" / f"{result.method}_{result.seed}.csv"
            lines = path.read_text().strip().split("\n")
            assert len(lines) == FAST["epochs"] + 1

    def test_weight_histogram_counts_conserved(self, tmp_path):
        results, out = self.make_results(tmp_path)
        wann = [r for r in results if r.method == "wann"][0]
        path = out / "weights" / f"wann_{wann.seed}.csv"
        rows = path.read_text().strip().split("\n")[1:]
        total = sum(int(line.split(",")[2]) for line in rows)
        assert total == len(wann.weights) == 40

    def test_plot_svg_is_valid_xml(self, tmp_path):
        _, out = self.make_results(tmp_path)
        tree = ET.parse(out / "plot.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_aggregate_recomputable_from_run_files(self, tmp_path):
        results, out = self.make_results(tmp_path)
        reparsed = [parse_run_file(p) for p in sorted((out / "runs").glob("*"))]
        table_disk = build_comparison_table(reparsed)
        table_mem = build_comparison_table(results)
        for a, b in zip(table_disk, table_mem):
            assert a.method == b.method
            assert a.mean_mse == b.mean_mse
            assert a.std_mse == b.std_mse

    def test_export_requires_results(self, tmp_path):
        with pytest.raises(ValueError, match="no results"):
            export_results([], tmp_path)
        with pytest.raises(ValueError, match="no results"):
            emit_plot_data([], tmp_path)
