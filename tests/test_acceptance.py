"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them as they complete). The heavy reproduction checks follow the full
synthetic protocol: m=1000 rows, two hidden layers of 100 relu units,
clip 1, Adam lr 0.001, 300 epochs, batch 128.
"""

import filecmp
import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wann.baselines import (KliepConfig, KmmConfig, TradaboostConfig,
                            _gaussian_kernel, kliep_weights, kmm_weights,
                            tradaboost_r2_fit, uniform_fit)
from wann.data import (MixtureShiftSpec, LabeledSample, TrainingSet,
                       gen_mixture_shift, gen_uniform_shift_1d,
                       labeling_fn)
from wann.discrepancy import estimate_y_discrepancy
from wann.harness import ExperimentConfig, MethodSpec, run_experiment
from wann.nn import (AdamState, ArchSpec, DenseLayer, FitConfig, Mlp,
                     fit_regression, forward, weighted_mse_grad)
from wann.training import (WannConfig, WannModel, build_wann_model, fit_wann,
                           pretrain_weighter, training_weights, wann_step)

PROTOCOL = dict(epochs=300, batch_size=128, hidden=(100, 100), clip=1.0)


def criterion(number, description, budget_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {description}",
                      flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"\n[PASS] criterion {number}: {description} "
                  f"({elapsed:.1f}s)", flush=True)
            if budget_seconds is not None:
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.1f}s, "
                    f"budget {budget_seconds}s")
        return wrapper
    return decorate


@criterion(1, "weighted-MSE gradients match central finite differences",
           budget_seconds=10)
def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        depth = rng.integers(0, 3)
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        d = int(rng.integers(1, 6))
        net = ArchSpec(hidden).build(d, rng=rng)
        # nonzero biases: with ArchSpec.build's zero biases, a unit fed only
        # by dead relus sits exactly at its kink, where the loss has no
        # derivative for the differences to approximate
        for layer in net.layers:
            layer.biases[:] = rng.normal(scale=0.5, size=layer.biases.shape)
        b = int(rng.integers(2, 6))
        X = rng.normal(size=(b, d))
        y = rng.normal(size=b)
        w = rng.normal(size=b)
        weighted_mse_grad(net, X, y, w)

        flat = np.concatenate([np.concatenate([l.weights.ravel(), l.biases])
                               for l in net.layers])
        analytic = net.grad.copy()
        probe = net.copy()

        def loss_at(values):
            i = 0
            for layer in probe.layers:
                for arr in (layer.weights, layer.biases):
                    arr.flat[:] = values[i:i + arr.size]
                    i += arr.size
            return weighted_mse_grad(probe, X, y, w)

        fd = np.zeros_like(flat)
        for k in range(len(flat)):
            bumped = flat.copy()
            bumped[k] += 1e-5
            up = loss_at(bumped)
            bumped[k] -= 2e-5
            down = loss_at(bumped)
            fd[k] = (up - down) / 2e-5
        scale = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(analytic - fd) / scale).max() < 1e-4


@criterion(2, "three-row adversarial step matches hand-derived gradients "
              "to 1e-10", budget_seconds=1)
def test_criterion_02_step_oracle():
    X = np.array([[0.5, -1.0], [1.5, 0.5], [-0.25, 2.0]])
    y = np.array([0.3, -0.7, 1.1])
    flags = np.array([False, False, True])
    a = np.array([0.2, -0.1])
    b = 0.05
    ap = np.array([-0.3, 0.15])
    bp = -0.2
    u = np.array([0.1, 0.2])
    c = 0.8  # weighter pre-activations all positive
    lr, eps, clip = 0.001, 1e-8, 1.0

    def lin(w, bias):
        return Mlp([DenseLayer(np.asarray(w, float).reshape(-1, 1),
                               np.array([float(bias)]))], clip=clip)

    model = WannModel(lin(a, b), lin(ap, bp), lin(u, c),
                      AdamState.for_net(lin(a, b), lr=lr),
                      AdamState.for_net(lin(ap, bp), lr=lr),
                      AdamState.for_net(lin(u, c), lr=lr))
    diag = wann_step(model, X, y, flags, len(X))

    q = X @ u + c
    e_h = X @ a + b - y
    e_hp = X @ ap + bp - y
    t = flags.astype(float)
    assert abs(diag.l_q_h - np.dot(q, e_h ** 2)) < 1e-12
    assert abs(diag.l_tgt_hp - e_hp[2] ** 2) < 1e-12
    assert abs(diag.l_q_hp - np.dot(q, e_hp ** 2)) < 1e-12

    def adam1(theta, grad):
        return np.clip(theta - lr * grad / (np.abs(grad) + eps), -clip, clip)

    checks = [
        (model.task.layers[0].weights[:, 0],
         adam1(a, 2.0 * (q * e_h) @ X)),
        (model.task.layers[0].biases,
         adam1(np.array([b]), np.array([2.0 * np.sum(q * e_h)]))),
        (model.adversary.layers[0].weights[:, 0],
         adam1(ap, -2.0 * ((t - q) * e_hp) @ X)),
        (model.adversary.layers[0].biases,
         adam1(np.array([bp]), np.array([-2.0 * np.sum((t - q) * e_hp)]))),
        (model.weighter.layers[0].weights[:, 0],
         adam1(u, (e_h ** 2 - e_hp ** 2) @ X)),
        (model.weighter.layers[0].biases,
         adam1(np.array([c]), np.array([np.sum(e_h ** 2 - e_hp ** 2)]))),
    ]
    for got, want in checks:
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.slow
@criterion(3, "synthetic benchmark: adversarial weighting beats uniform and "
              "target-only at dims 64 and 256", budget_seconds=1200)
def test_criterion_03_synthetic_reproduction(tmp_path):
    for dim in (64, 256):
        config = ExperimentConfig(
            scenario=MixtureShiftSpec(dim=dim, m=1000),
            methods=[MethodSpec("wann", dict(PROTOCOL, pretrain_epochs=50)),
                     MethodSpec("uniform", dict(PROTOCOL)),
                     MethodSpec("target_only", dict(PROTOCOL))],
            n_repeats=5, base_seed=0, out_dir=str(tmp_path / f"dim{dim}"))
        results, table = run_experiment(config)
        means = {row.method: row.mean_mse for row in table}
        assert means["wann"] < means["uniform"], (dim, means)
        assert means["wann"] < means["target_only"], (dim, means)

        curves = {}
        for method in ("wann", "uniform"):
            stack = np.array([r.curve for r in results
                              if r.method == method])
            curves[method] = stack.mean(axis=0)
        assert curves["wann"][-50:].mean() < curves["uniform"][-50:].mean()


@pytest.mark.slow
@criterion(4, "weight map at dim 256 separates target-drawn source rows by "
              "a factor of at least 2", budget_seconds=300)
def test_criterion_04_weight_bimodality():
    data = gen_mixture_shift(MixtureShiftSpec(dim=256, m=1000, seed=0))
    config = WannConfig(epochs=300, batch_size=128, pretrain_epochs=50,
                        seed=0)
    model = build_wann_model(256, ArchSpec((100, 100)), config)
    pretrain_weighter(model, data.train, config)
    fit_wann(model, data.train, config)
    weights = training_weights(model, data.train)
    flagged = weights.normalized[data.train.is_target].mean()
    rest = weights.normalized[~data.train.is_target].mean()
    assert flagged >= 2.0 * rest, (flagged, rest)


@criterion(5, "risk-gap estimator: zero on identical samples, positive "
              "under 1-D shift", budget_seconds=60)
def test_criterion_05_ydisc_identity_and_shift():
    rng = np.random.default_rng(105)
    X = rng.normal(size=(50, 3))
    y = labeling_fn(X)
    identical = estimate_y_discrepancy(
        X, y, np.full(50, 1 / 50), LabeledSample(X.copy(), y.copy()),
        arch=ArchSpec((16,)),
        config=FitConfig(epochs=5, batch_size=16, seed=0))
    assert identical.value <= 1e-6

    train, _ = gen_uniform_shift_1d(80, 40, seed=1)
    src = train.source_rows()
    tgt = train.target_rows()
    shifted = estimate_y_discrepancy(
        src.X, src.y, np.full(len(src), 1 / len(src)), tgt,
        arch=ArchSpec((16,)),
        config=FitConfig(epochs=20, batch_size=32, seed=1))
    assert shifted.value > 0.0


@criterion(6, "projected-gradient KMM matches dense grid search",
           budget_seconds=60)
def test_criterion_06_kmm_oracle():
    rng = np.random.default_rng(106)
    B, sigma = 3.0, 1.0
    for _ in range(5):
        Xs = rng.normal(size=(3, 1))
        Xt = rng.normal(size=(2, 1))
        m, n = 3, 2
        eps = (math.sqrt(m) - 1) / math.sqrt(m)
        w = kmm_weights(Xs, Xt, KmmConfig(kernel_bandwidth=sigma, B=B))
        assert (w >= 0).all() and (w <= B).all()
        assert abs(w.sum() - m) <= m * eps + 1e-9

        K = _gaussian_kernel(Xs, Xs, sigma)
        K = 0.5 * (K + K.T) + 1e-8 * np.eye(m)
        kappa = _gaussian_kernel(Xs, Xt, sigma).sum(axis=1)
        lo, hi = m * (1 - eps), m * (1 + eps)

        def grid_best(axes):
            W = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, m)
            sums = W.sum(axis=1)
            W = W[(sums >= lo - 1e-12) & (sums <= hi + 1e-12)]
            vals = (np.einsum("pi,ij,pj->p", W, K, W) / (m * m)
                    - 2.0 * (W @ kappa) / (m * n))
            return W[np.argmin(vals)]

        coarse = grid_best([np.arange(0.0, B + 1e-9, 0.05)] * m)
        fine = grid_best([np.clip(np.arange(v - 0.05, v + 0.05 + 1e-9,
                                            0.005), 0, B) for v in coarse])
        assert np.abs(w - fine).max() <= 1e-2


@criterion(7, "KLIEP constraint holds to 1e-6 with a monotone objective",
           budget_seconds=60)
def test_criterion_07_kliep_constraints():
    rng = np.random.default_rng(107)
    Xs = rng.normal(size=(60, 2))
    Xt = rng.normal(0.4, 1.1, size=(30, 2))
    trace: list[float] = []
    w = kliep_weights(Xs, Xt, KliepConfig(n_centers=15, seed=7), trace)
    assert abs(w.mean() - 1.0) <= 1e-6
    assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))
    assert len(trace) >= 2

    X = rng.normal(size=(25, 2))
    w_same = kliep_weights(X, X.copy(),
                           KliepConfig(n_centers=25, kernel_bandwidth=50.0,
                                       seed=1))
    assert np.abs(w_same - 1.0).max() <= 0.1


@criterion(8, "boosting conserves weight mass and sinks hostile source rows",
           budget_seconds=120)
def test_criterion_08_boosting():
    rng = np.random.default_rng(108)
    X = rng.uniform(-1, 1, size=(80, 2))
    y = X[:, 0] - 0.5 * X[:, 1]
    flags = np.zeros(80, dtype=bool)
    flags[rng.choice(80, 20, replace=False)] = True
    hostile = np.flatnonzero(~flags)[:25]
    y = y.copy()
    y[hostile] += 10.0
    train = TrainingSet(X, y, flags)
    config = TradaboostConfig(
        n_iterations=10, arch=ArchSpec((16,), clip=2.0),
        fit=FitConfig(epochs=40, batch_size=16, seed=8))
    ensemble = tradaboost_r2_fit(train, config)
    for weights in ensemble.weight_history:
        assert abs(weights.sum() - 1.0) <= 1e-10
        assert (weights >= 0).all()
    final = ensemble.final_weights
    assert final[hostile].mean() < final[~flags].mean()


@criterion(9, "benchmark command is byte-reproducible per seed",
           budget_seconds=300)
def test_criterion_09_cli_determinism(tmp_path):
    args = [sys.executable, "-m", "wann.cli", "synth-bench",
            "--dims", "8", "--repeats", "2", "--m", "60",
            "--epochs", "4", "--batch-size", "16", "--hidden", "10",
            "--pretrain-epochs", "4", "--seed", "17"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for name in ("one", "two"):
        proc = subprocess.run(args + ["--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    base = tmp_path / "one"
    files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    assert any(p.name == "table.csv" for p in files)
    for rel in files:
        assert filecmp.cmp(base / rel, tmp_path / "two" / rel,
                           shallow=False), rel


@pytest.mark.slow
def test_supplementary_generalization_to_fresh_target_draw():
    """A trained dim-64 model predicts a fresh target sample about as
    well as its recorded final validation MSE (within a factor of 2)."""
    data = gen_mixture_shift(MixtureShiftSpec(dim=64, m=1000, seed=0))
    config = WannConfig(epochs=300, batch_size=128, pretrain_epochs=50,
                        seed=0)
    model = build_wann_model(64, ArchSpec((100, 100)), config)
    pretrain_weighter(model, data.train, config)
    trace = fit_wann(model, data.train, config, validation=data.validation)
    final_mse = trace.val_mse[-1]

    rng = np.random.default_rng(999)
    fresh_x = data.target_center + rng.standard_normal((1000, 64))
    fresh_mse = float(np.mean((forward(model.task, fresh_x)
                               - labeling_fn(fresh_x)) ** 2))
    assert fresh_mse <= 2.0 * final_mse
    assert final_mse <= 2.0 * fresh_mse


@pytest.mark.slow
@criterion(10, "no harm without shift: adversarial weighting within 10% of "
               "uniform", budget_seconds=600)
def test_criterion_10_aa_no_harm():
    def gen_same_distribution(dim, m, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1, 1, size=(dim, dim))
        comp = rng.integers(0, dim, size=m)
        X = centers[comp] + rng.standard_normal((m, dim))
        flags = np.zeros(m, dtype=bool)
        flags[rng.choice(m, m // 5, replace=False)] = True
        vcomp = rng.integers(0, dim, size=1000)
        VX = centers[vcomp] + rng.standard_normal((1000, dim))
        return (TrainingSet(X, labeling_fn(X), flags),
                LabeledSample(VX, labeling_fn(VX)))

    wann_mses, uniform_mses = [], []
    for seed in range(5):
        train, val = gen_same_distribution(8, 1000, seed)
        config = WannConfig(epochs=300, batch_size=128, pretrain_epochs=50,
                            seed=seed)
        model = build_wann_model(8, ArchSpec((100, 100)), config)
        pretrain_weighter(model, train, config)
        trace = fit_wann(model, train, config, validation=val)
        wann_mses.append(trace.val_mse[-1])
        _, trace = uniform_fit(train, ArchSpec((100, 100), clip=1.0),
                               FitConfig(epochs=300, batch_size=128,
                                         seed=seed),
                               validation=val)
        uniform_mses.append(trace.val_mse[-1])
    wann_mean = float(np.mean(wann_mses))
    uniform_mean = float(np.mean(uniform_mses))
    assert abs(wann_mean - uniform_mean) <= 0.1 * uniform_mean, (
        wann_mean, uniform_mean)
