import filecmp
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from wann.cli import METHOD_CHOICES
from wann.data import (CsvSchema, LabeledSample, MixtureShiftSpec,
                       gen_mixture_shift, gen_uniform_shift_1d, save_csv)

FAST_NET = ["--hidden", "6", "--epochs", "3", "--batch-size", "16",
            "--pretrain-epochs", "3"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "wann.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def shift_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("csvs")
    train, grid = gen_uniform_shift_1d(40, 15, seed=6)
    schema = CsvSchema(domain_col="domain")
    save_csv(root / "train.csv", train, schema)
    save_csv(root / "test.csv", grid)
    save_csv(root / "source.csv", train.source_rows())
    save_csv(root / "target.csv", train.target_rows())
    return root


@pytest.fixture(scope="module")
def two_feature_csvs(tmp_path_factory):
    """A dim-2 draw, plus copies of its test file with the feature
    columns swapped and with column x1 left out."""
    root = tmp_path_factory.mktemp("csvs2")
    draw = gen_mixture_shift(MixtureShiftSpec(dim=2, m=60, n_validation=30,
                                              seed=8))
    save_csv(root / "train.csv", draw.train, CsvSchema(domain_col="domain"))
    save_csv(root / "source.csv", draw.train.source_rows())
    test = draw.validation
    save_csv(root / "test.csv", test)
    save_csv(root / "swapped.csv",
             LabeledSample(test.X[:, ::-1], test.y),
             CsvSchema(feature_cols=["x1", "x0"]))
    save_csv(root / "no_x1.csv",
             LabeledSample(test.X[:, :1], test.y))
    return root


def with_cell(path, column, value, out):
    """Write a copy of CSV ``path`` to ``out`` with ``column`` of data
    row 2 (counted from 0) set to ``value``; returns ``out``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[3].split(",")
    cells[at] = value
    lines[3] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


class TestSynthBench:
    def test_smoke_writes_three_run_files(self, tmp_path):
        out = tmp_path / "bench"
        proc = run_cli("synth-bench", "--dims", "6", "--repeats", "1",
                       "--m", "40", "--out", str(out), "--seed", "3",
                       *FAST_NET)
        assert proc.returncode == 0, proc.stderr
        runs = sorted(p.name for p in (out / "dim6" / "runs").glob("*.txt"))
        assert runs == ["target_only_3.txt", "uniform_3.txt", "wann_3.txt"]

    def test_empty_dims_usage_error(self, tmp_path):
        proc = run_cli("synth-bench", "--dims", "", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_flag_rejected(self, tmp_path):
        proc = run_cli("synth-bench", "--frobnicate", "1",
                       "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_defaults_match_benchmark_protocol(self):
        from wann.cli import build_parser
        args = build_parser().parse_args(["synth-bench", "--out", "x"])
        assert args.dims == [32, 64, 128, 256]
        assert args.repeats == 10
        assert args.epochs == 300
        assert args.batch_size == 128
        assert args.m == 1000
        assert args.hidden == [100, 100]
        assert args.clip == 1.0
        assert args.lr == 0.001


class TestArgumentValidation:
    BENCH = ["synth-bench", "--out", "unused"]
    FIT = ["fit", "--method", "kmm", "--train", "t.csv", "--out", "unused"]
    DEMO = ["demo-negative-transfer", "--out", "unused"]
    YDISC = ["ydisc", "--source", "s.csv", "--target", "t.csv"]

    @pytest.mark.parametrize("base, flag, value", [
        (BENCH, "--batch-size", "0"), (BENCH, "--repeats", "0"),
        (BENCH, "--m", "0"), (BENCH, "--dims", "8,0"),
        (BENCH, "--hidden", "0"), (BENCH, "--hidden", "4,-1"),
        (BENCH, "--epochs", "-1"), (BENCH, "--pretrain-epochs", "-1"),
        (BENCH, "--clip", "0"), (BENCH, "--clip", "nan"),
        (BENCH, "--lr", "-0.1"), (BENCH, "--lr", "inf"),
        (BENCH, "--target-fraction", "0"), (BENCH, "--target-fraction", "1"),
        (BENCH, "--repeats", "two"),
        (FIT, "--kliep-centers", "0"), (FIT, "--boost-iters", "0"),
        (FIT, "--kmm-b", "0"), (FIT, "--bandwidth", "-1"),
        # below baselines.MIN_BANDWIDTH: 2 sigma^2 is no normal float
        (FIT, "--bandwidth", "1e-300"),
        (FIT, "--pretrain-epochs", "-2"),
        (DEMO, "--m", "0"), (DEMO, "--n", "0"),
        (YDISC, "--batch-size", "0"), (YDISC, "--hidden", "0"),
        (BENCH, "--parallel", "0"), (BENCH, "--parallel", "-1"),
    ])
    def test_invalid_number_is_usage_error(self, base, flag, value, capsys):
        from wann.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main([*base, flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_boundary_values_accepted(self):
        from wann.cli import build_parser
        args = build_parser().parse_args(
            ["synth-bench", "--out", "x", "--epochs", "0",
             "--pretrain-epochs", "0", "--target-fraction", "0.5",
             "--repeats", "1", "--hidden", "1", "--lr", "1e-9",
             "--parallel", "1"])
        assert (args.epochs, args.pretrain_epochs) == (0, 0)
        assert args.parallel == 1
        assert args.hidden == [1] and args.target_fraction == 0.5

    def test_config_file_values_validated(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("batch-size = 0\n", encoding="utf-8")
        proc = run_cli("synth-bench", "--config", str(cfg),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "--batch-size" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_piped_stdout_prints_each_dimension_once(self, tmp_path):
        # at one BLAS thread a forked child runs some of a repeat's
        # methods; stdout, block-buffered into a pipe, must not hold the
        # last dimension's lines when it forks, or the child writes them
        # again as it exits
        proc = run_cli("synth-bench", "--dims", "2,4", "--repeats", "2",
                       "--m", "40", "--out", str(tmp_path / "bench"),
                       *FAST_NET, env_extra={"OPENBLAS_NUM_THREADS": "1",
                                             "PYTHONUNBUFFERED": ""})
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line for line in lines if line.startswith("dim")] == [
            "dim 2:", "dim 4:"]
        assert len(lines) == 8  # a header and three methods per dimension

    def test_failed_run_exits_one_after_writing_artifacts(self, tmp_path):
        out = tmp_path / "bench"
        # 99% of 40 rows rounds to 40 target rows and no source row:
        # wann rejects that, uniform and target-only train
        proc = run_cli("synth-bench", "--dims", "3", "--repeats", "1",
                       "--m", "40", "--out", str(out), "--seed", "3",
                       "--hidden", "4", "--epochs", "2",
                       "--pretrain-epochs", "1", "--target-fraction", "0.99")
        assert proc.returncode == 1
        assert "dim3/wann_3" in proc.stderr
        assert "uniform" not in proc.stderr
        runs = sorted(p.name for p in (out / "dim3" / "runs").glob("*.txt"))
        assert runs == ["target_only_3.txt", "uniform_3.txt", "wann_3.txt"]
        assert (out / "dim3" / "table.csv").exists()
        assert "rank" in proc.stdout

    def test_diverged_runs_fail_by_name(self, tmp_path):
        # at clip 1e100 and lr 1e50 the validation predictions overflow
        # in the first epoch: each run fails with its epoch, and the
        # chart never meets an inf MSE
        proc = run_cli("synth-bench", "--dims", "2", "--repeats", "1",
                       "--m", "20", "--epochs", "3", "--pretrain-epochs",
                       "1", "--clip", "1e100", "--lr", "1e50",
                       "--out", str(tmp_path / "bench"))
        assert proc.returncode == 1
        for method in ("wann", "uniform", "target_only"):
            assert (f"dim2/{method}_0: TrainingDivergedError: training "
                    f"diverged at epoch 0") in proc.stderr
        assert (tmp_path / "bench" / "dim2" / "table.csv").exists()

    def test_diverged_runs_leave_no_numpy_warning(self, tmp_path):
        # the finiteness checks name the divergence; numpy's overflow
        # warnings would only repeat it, and no failed method is ranked
        out = tmp_path / "bench"
        proc = run_cli("synth-bench", "--dims", "2", "--repeats", "1",
                       "--m", "20", "--epochs", "3", "--pretrain-epochs",
                       "1", "--clip", "1e100", "--lr", "1e50",
                       "--out", str(out))
        assert proc.returncode == 1
        for method in ("wann", "uniform", "target_only"):
            assert f"dim2/{method}_0: TrainingDivergedError" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "rank" not in proc.stdout
        table = (out / "dim2" / "table.csv").read_text().splitlines()
        assert all(line.endswith(",") for line in table[1:])


class TestFit:
    def test_uniform_on_csv_writes_metrics(self, shift_csvs, tmp_path):
        out = tmp_path / "fit"
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(shift_csvs / "train.csv"),
                       "--test", str(shift_csvs / "test.csv"),
                       "--out", str(out), "--seed", "1", *FAST_NET)
        assert proc.returncode == 0, proc.stderr
        assert (out / "metrics.txt").exists()
        assert (out / "summary.txt").exists()
        assert "mse" in (out / "metrics.txt").read_text()

    def test_wann_weight_file_has_all_rows(self, shift_csvs, tmp_path):
        out = tmp_path / "fitw"
        proc = run_cli("fit", "--method", "wann",
                       "--train", str(shift_csvs / "train.csv"),
                       "--out", str(out), "--seed", "1", *FAST_NET)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "weights.txt").read_text().strip().split("\n")
        assert len(lines) == 55  # m + n rows

    def test_kmm_weight_file_has_source_rows(self, shift_csvs, tmp_path):
        out = tmp_path / "fitk"
        proc = run_cli("fit", "--method", "kmm",
                       "--train", str(shift_csvs / "train.csv"),
                       "--out", str(out), "--seed", "1", *FAST_NET)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "weights.txt").read_text().strip().split("\n")
        assert len(lines) == 40

    def test_method_choices_are_the_runners(self):
        assert METHOD_CHOICES == ("wann", "uniform", "target-only", "kmm",
                                  "kliep", "tradaboost")

    def test_test_file_columns_taken_by_name(self, two_feature_csvs,
                                             tmp_path):
        outputs = []
        for name in ("test", "swapped"):
            out = tmp_path / name
            proc = run_cli("fit", "--method", "uniform",
                           "--train", str(two_feature_csvs / "train.csv"),
                           "--test", str(two_feature_csvs / f"{name}.csv"),
                           "--out", str(out), "--seed", "1", *FAST_NET)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, (out / "metrics.txt").read_bytes(),
                            (out / "uniform_1.txt").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_test_file_missing_feature_column(self, two_feature_csvs,
                                              tmp_path):
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(two_feature_csvs / "train.csv"),
                       "--test", str(two_feature_csvs / "no_x1.csv"),
                       "--out", str(tmp_path / "o"), *FAST_NET)
        assert proc.returncode == 1
        assert "missing column 'x1'" in proc.stderr

    def test_unknown_method_lists_choices(self, shift_csvs, tmp_path):
        proc = run_cli("fit", "--method", "bogus",
                       "--train", str(shift_csvs / "train.csv"),
                       "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "wann" in proc.stderr and "kliep" in proc.stderr

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    @pytest.mark.parametrize("role, column, cell, name", [
        ("test", "y", "nan", "validation.y"),
        ("train", "x0", "inf", "train.X")])
    def test_non_finite_cell_named(self, method, role, column, cell, name,
                                   two_feature_csvs, tmp_path):
        # a nan test label once gave "mse = nan" with exit 0, and an inf
        # feature "training diverged at epoch 0" (kmm: an unnamed row)
        files = {"train": two_feature_csvs / "train.csv",
                 "test": two_feature_csvs / "test.csv"}
        files[role] = with_cell(files[role], column, cell,
                                tmp_path / f"{role}.csv")
        out = tmp_path / "out"
        proc = run_cli("fit", "--method", method, "--train",
                       str(files["train"]), "--test", str(files["test"]),
                       "--out", str(out), *FAST_NET)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {method.replace('-', '_')} failed: "
                               f"ValueError: {name} has a non-finite value "
                               f"in row 2\n")
        assert proc.stdout == "" and not out.exists()

    def test_parse_error_names_location(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,y,domain\noops,1,source\n", encoding="utf-8")
        proc = run_cli("fit", "--method", "uniform", "--train", str(bad),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "row 0" in proc.stderr and "'a'" in proc.stderr

    def test_bad_cell_named_by_one_row_number(self, two_feature_csvs,
                                              tmp_path):
        # load_csv once counted file lines from 1, header included, so
        # the cell that read "row 2" as inf read "row 4" as text
        messages = []
        for cell in ("inf", "oops"):
            train = with_cell(two_feature_csvs / "train.csv", "x0", cell,
                              tmp_path / f"{cell}.csv")
            proc = run_cli("fit", "--method", "uniform", "--train",
                           str(train), "--out", str(tmp_path / cell),
                           *FAST_NET)
            assert proc.returncode == 1
            messages.append(proc.stderr)
        assert "train.X has a non-finite value in row 2" in messages[0]
        assert "'oops' at row 2, column 'x0'" in messages[1]


class TestYdisc:
    def test_identical_files_near_zero(self, shift_csvs):
        proc = run_cli("ydisc", "--source", str(shift_csvs / "source.csv"),
                       "--target", str(shift_csvs / "source.csv"),
                       "--epochs", "3", "--hidden", "6", "--batch-size", "16")
        assert proc.returncode == 0, proc.stderr
        value = float(proc.stdout.split("\n")[0].split("=")[1])
        assert value <= 1e-6

    def test_shifted_files_positive(self, shift_csvs):
        proc = run_cli("ydisc", "--source", str(shift_csvs / "source.csv"),
                       "--target", str(shift_csvs / "target.csv"),
                       "--epochs", "10", "--hidden", "8",
                       "--batch-size", "16", "--seed", "2")
        assert proc.returncode == 0, proc.stderr
        value = float(proc.stdout.split("\n")[0].split("=")[1])
        assert value > 0.0
        assert "positive_side" in proc.stdout
        assert "negative_side" in proc.stdout

    def test_target_file_columns_taken_by_name(self, two_feature_csvs):
        source = str(two_feature_csvs / "source.csv")
        runs = [run_cli("ydisc", "--source", source,
                        "--target", str(two_feature_csvs / f"{name}.csv"),
                        "--epochs", "3", "--hidden", "6", "--seed", "4")
                for name in ("test", "swapped")]
        assert [p.returncode for p in runs] == [0, 0], runs[1].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_target_file_missing_feature_column(self, two_feature_csvs):
        proc = run_cli("ydisc",
                       "--source", str(two_feature_csvs / "source.csv"),
                       "--target", str(two_feature_csvs / "no_x1.csv"))
        assert proc.returncode == 1
        assert "missing column 'x1'" in proc.stderr

    @pytest.mark.parametrize("role, column, name", [
        ("source", "x1", "source_x"), ("source", "y", "source_y"),
        ("target", "x0", "target.X"), ("target", "y", "target.y")])
    def test_non_finite_cell_named(self, role, column, name,
                                   two_feature_csvs, tmp_path):
        # load_csv reads "nan" and "inf" as numbers; the estimator refuses
        # them before training instead of reporting a divergence
        files = {"source": two_feature_csvs / "source.csv",
                 "target": two_feature_csvs / "test.csv"}
        files[role] = with_cell(files[role], column, "nan",
                                tmp_path / f"{role}.csv")
        proc = run_cli("ydisc", "--source", str(files["source"]),
                       "--target", str(files["target"]), "--epochs", "3",
                       "--hidden", "6")
        assert proc.returncode == 1
        assert f"{name} has a non-finite value in row 2" in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_io_error(self, tmp_path):
        proc = run_cli("ydisc", "--source", str(tmp_path / "nope.csv"),
                       "--target", str(tmp_path / "nope.csv"))
        assert proc.returncode == 1
        assert proc.stdout == ""


class TestDemo:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["demo-negative-transfer", "--m", "60", "--n", "20",
                "--epochs", "40", "--hidden", "16", "--batch-size", "16",
                "--pretrain-epochs", "10", "--seed", "4"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli(*args, "--out", str(one)).returncode == 0
        assert run_cli(*args, "--out", str(two)).returncode == 0
        for name in ("points.csv", "fits.csv", "metrics.txt", "demo.svg"):
            assert filecmp.cmp(one / name, two / name, shallow=False)
        tree = ET.parse(one / "demo.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_both_fits_learn_the_identity(self, tmp_path):
        out = tmp_path / "demo"
        proc = run_cli("demo-negative-transfer", "--m", "60", "--n", "20",
                       "--epochs", "40", "--hidden", "16",
                       "--batch-size", "16", "--pretrain-epochs", "10",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header = (out / "fits.csv").read_text().split("\n")[0]
        assert header == "x,truth,uniform,wann"
        from wann.results import parse_kv_lines
        metrics = parse_kv_lines((out / "metrics.txt").read_text())
        assert float(metrics["uniform_grid_mse"]) < 0.05
        assert float(metrics["wann_grid_mse"]) < 0.05


class TestConfigAndEnv:
    def test_env_seed_used_as_default(self, shift_csvs, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["fit", "--method", "uniform",
                "--train", str(shift_csvs / "train.csv"), *FAST_NET]
        run_cli(*base, "--out", str(out_a), env_extra={"WANN_SEED": "9"})
        run_cli(*base, "--out", str(out_b), "--seed", "9")
        assert filecmp.cmp(out_a / "uniform_9.txt", out_b / "uniform_9.txt",
                           shallow=False)

    def test_config_file_sets_defaults_flags_override(self, shift_csvs,
                                                      tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs = 3\nhidden = 6\nbatch-size = 16\n"
                       "pretrain-epochs = 3\nseed = 13\n", encoding="utf-8")
        out_a = tmp_path / "a"
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(shift_csvs / "train.csv"),
                       "--config", str(cfg), "--out", str(out_a))
        assert proc.returncode == 0, proc.stderr
        assert (out_a / "uniform_13.txt").exists()

        out_b = tmp_path / "b"
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(shift_csvs / "train.csv"),
                       "--config", str(cfg), "--seed", "21",
                       "--out", str(out_b))
        assert proc.returncode == 0, proc.stderr
        assert (out_b / "uniform_21.txt").exists()

    def test_non_integer_env_seed_usage_error(self, shift_csvs, tmp_path):
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(shift_csvs / "train.csv"),
                       "--out", str(tmp_path / "o"), *FAST_NET,
                       env_extra={"WANN_SEED": "abc"})
        assert proc.returncode == 2
        assert "WANN_SEED" in proc.stderr and "'abc'" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_config_equals_form_loads_file(self, shift_csvs, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs = 3\nhidden = 6\nbatch-size = 16\n"
                       "seed = 13\n", encoding="utf-8")
        proc = run_cli("fit", "--method", "uniform",
                       "--train", str(shift_csvs / "train.csv"),
                       f"--config={cfg}", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "uniform_13.txt").exists()

    def test_missing_config_usage_error(self, tmp_path):
        proc = run_cli("fit", "--method", "uniform", "--train", "x.csv",
                       "--config", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path))
        assert proc.returncode == 2
