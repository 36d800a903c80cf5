import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from wann import baselines
from wann.baselines import (MEDIAN_MAX_ROWS, KliepConfig, KmmConfig,
                            TradaboostConfig, _gaussian_kernel,
                            _perron_bounds, _project_box_band,
                            kliep_weights, kmm_weights,
                            median_pairwise_distance, target_only_fit,
                            tradaboost_r2_fit, uniform_fit)
from wann.data import (MixtureShiftSpec, TrainingSet, gen_mixture_shift,
                       gen_uniform_shift_1d)
from wann.nn import ArchSpec, FitConfig, fit_regression, forward


def make_train(m=30, n=10, d=2, seed=0, label_fn=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m + n, d))
    flags = np.concatenate([np.zeros(m, bool), np.ones(n, bool)])
    if label_fn is None:
        label_fn = lambda Z: Z[:, 0]
    return TrainingSet(X, label_fn(X), flags)


class TestUniformFit:
    def test_equals_plain_fit_with_constant_weights(self):
        train = make_train(seed=1)
        arch = ArchSpec((8,), clip=1.0)
        config = FitConfig(epochs=15, batch_size=8, seed=5)
        net, _ = uniform_fit(train, arch, config)
        direct = arch.build(2, rng=np.random.default_rng(5))
        fit_regression(direct, train.X, train.y,
                       np.full(len(train), 1 / len(train)), config)
        np.testing.assert_array_equal(forward(net, train.X),
                                      forward(direct, train.X))

    def test_deterministic_per_seed(self):
        train = make_train(seed=2)
        arch = ArchSpec((8,), clip=1.0)
        config = FitConfig(epochs=10, batch_size=8, seed=9)
        net1, _ = uniform_fit(train, arch, config)
        net2, _ = uniform_fit(train, arch, config)
        np.testing.assert_array_equal(net1.params, net2.params)
        np.testing.assert_array_equal(forward(net1, train.X),
                                      forward(net2, train.X))


class TestTargetOnlyFit:
    def test_all_target_rows_equals_uniform(self):
        train = make_train(m=0, n=20, seed=3)
        arch = ArchSpec((8,), clip=1.0)
        config = FitConfig(epochs=10, batch_size=8, seed=1)
        t_net, _ = target_only_fit(train, arch, config)
        u_net, _ = uniform_fit(train, arch, config)
        np.testing.assert_array_equal(forward(t_net, train.X),
                                      forward(u_net, train.X))

    def test_no_target_rows_rejected(self):
        train = make_train(m=20, n=1, seed=4)
        only_src = TrainingSet(train.X, train.y,
                               np.zeros(len(train), bool))
        with pytest.raises(ValueError, match="target"):
            target_only_fit(only_src, ArchSpec((8,)), FitConfig())

    def test_single_target_row_fits_without_crash(self):
        train = make_train(m=20, n=1, seed=5)
        net, _ = target_only_fit(train, ArchSpec((8,), clip=1.0),
                                 FitConfig(epochs=5, batch_size=1, seed=2))
        rows = train.target_rows()
        err = forward(net, rows.X) - rows.y
        assert np.isfinite(np.mean(err * err))


class TestKmm:
    def test_identical_samples_uniform_is_optimal(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        config = KmmConfig(B=5.0, tol=1e-14)
        w = kmm_weights(X, X.copy(), config)
        K = _gaussian_kernel(X, X, median_pairwise_distance(X, X))
        K = 0.5 * (K + K.T) + 1e-8 * np.eye(10)
        kappa = _gaussian_kernel(X, X, median_pairwise_distance(X, X)).sum(1)

        def objective(v):
            return v @ K @ v / 100 - 2 * (v @ kappa) / 100

        assert objective(w) <= objective(np.ones(10)) + 1e-10

    @pytest.mark.parametrize("draw", ["gaussian-60x20", "mixture-800x200"])
    def test_converges_past_the_fixed_step_loop(self, draw):
        # the solver once ran fixed-step projected gradient for all of
        # max_iter; the accelerated loop must meet tol and end no worse
        if draw == "gaussian-60x20":
            rng = np.random.default_rng(9)
            Xs = rng.normal(size=(60, 3))
            Xt = rng.normal(0.5, 1.0, size=(20, 3))
        else:
            train = gen_mixture_shift(MixtureShiftSpec(
                dim=64, m=1000, target_fraction=0.2, seed=7)).train
            Xs, Xt = train.source_rows().X, train.target_rows().X
        config = KmmConfig()
        problem = KmmProblem(Xs, Xt, config)
        w_pg = problem.project(np.ones(problem.m))
        for _ in range(config.max_iter):
            w_pg = problem.project(
                w_pg - problem.step * problem.gradient(w_pg))

        w = kmm_weights(Xs, Xt, config)
        assert problem.residual(w) <= config.tol
        assert problem.objective(w) <= problem.objective(w_pg)

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            Xs = rng.normal(size=(12, 3))
            Xt = rng.normal(0.4, 1.0, size=(8, 3))
            config = KmmConfig(B=20.0)
            w = kmm_weights(Xs, Xt, config)
            eps = (math.sqrt(12) - 1) / math.sqrt(12)
            assert (w >= 0).all() and (w <= 20.0).all()
            assert abs(w.sum() - 12) <= 12 * eps + 1e-9

    def test_matches_grid_oracle_in_one_dim(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            Xs = rng.normal(size=(3, 1))
            Xt = rng.normal(size=(2, 1))
            w_pg = kmm_weights(Xs, Xt, KmmConfig(kernel_bandwidth=1.0, B=3.0))
            w_grid = kmm_grid_oracle(Xs, Xt, sigma=1.0, B=3.0)
            np.testing.assert_allclose(w_pg, w_grid, atol=1e-2)

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError, match="at least one"):
            kmm_weights(np.zeros((0, 1)), np.ones((2, 1)))

    def test_indefinite_kernel_is_rejected(self, monkeypatch):
        # entrywise nonnegative, eigenvalues 3 and -1
        monkeypatch.setattr(baselines, "_gaussian_kernel",
                            lambda X, Y, sigma: np.array([[1.0, 2.0],
                                                          [2.0, 1.0]]))
        with pytest.raises(ArithmeticError, match="not positive semidefinite"):
            kmm_weights(np.zeros((2, 1)), np.ones((2, 1)),
                        KmmConfig(kernel_bandwidth=1.0))

    @pytest.mark.parametrize("seed", [7, 101, 3])
    def test_kernel_is_exactly_symmetric_on_mixture_draws(self, seed):
        train = gen_mixture_shift(MixtureShiftSpec(
            dim=64, m=1000, target_fraction=0.2, seed=seed)).train
        Xs = train.source_rows().X
        K = _gaussian_kernel(Xs, Xs, median_pairwise_distance(Xs))
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_solver_kernel_is_exactly_symmetric(self, monkeypatch, layout):
        # the solver's products are x @ K, which is K @ x only for an
        # exactly symmetric K, and its face solves sum K_FU 1 over K_UF's
        # rows; a strided 300-row sample gives an asymmetric X @ X.T
        # unless it is made contiguous
        wide = np.random.default_rng(10).normal(size=(300, 12))
        Xs = {"C": np.ascontiguousarray(wide[:, :6]),
              "F": np.asfortranarray(wide[:, :6]),
              "strided": wide[:, ::2]}[layout]
        square = []

        def recording_kernel(X, Y, sigma):
            K = _gaussian_kernel(X, Y, sigma)
            if len(X) == len(Y):
                square.append(K.copy())
            return K

        monkeypatch.setattr(baselines, "_gaussian_kernel", recording_kernel)
        kmm_weights(Xs, wide[:50, 1::2], KmmConfig(max_iter=1))
        assert len(square) == 1 and np.array_equal(square[0], square[0].T)

    @pytest.mark.parametrize("draw", ["gaussian-60x20", "mixture-800x200",
                                      "mixture-800x200-draw101",
                                      "mixture-800x200-draw3",
                                      "mixture-40x10-dim1"])
    def test_finish_matches_the_plain_loop(self, draw):
        # the reference solves held faces but has no active-set finish,
        # so equal bits mean both land on the same final face; on the
        # dim-1 draw no attempt succeeds and both end at max_iter above
        # tol, so equal bits there pin the loop's own arithmetic
        Xs, Xt = kmm_draw(draw)
        np.testing.assert_array_equal(kmm_weights(Xs, Xt),
                                      kmm_plain_loop(Xs, Xt, KmmConfig()))


class TestKmmFaceSolve:
    @pytest.mark.parametrize("seed", [7, 101, 3])
    def test_returns_the_kkt_point_of_its_face(self, seed):
        # on these draws the box and the default band are slack at the
        # optimum, so the KKT conditions are a zero gradient on the
        # support and a nonnegative one off it
        Xs, Xt = mixture_draw(seed)
        config = KmmConfig()
        problem = KmmProblem(Xs, Xt, config)
        w = kmm_weights(Xs, Xt, config)
        free = w > 0.0
        assert (w[free] < config.B).all()
        assert problem.lo < w.sum() < problem.hi
        grad = problem.gradient(w)
        scale = float(np.abs(problem.kappa).max()) * 2.0 / (problem.m
                                                            * problem.n)
        assert np.abs(grad[free]).max() <= 1e-9 * scale
        assert grad[~free].min() >= 0.0
        fista = kmm_plain_loop(Xs, Xt, config, face_products=None)
        assert problem.objective(w) <= problem.objective(fista)
        for tol in (config.tol, 1e-10):
            w_tol = kmm_weights(Xs, Xt, replace(config, tol=tol))
            assert problem.residual(w_tol) <= tol

    # (draw, settings, bound on the projections): the bounds sit about 25%
    # above the solver's counts (67, 65, 65 on the default settings; 67,
    # 67, 65 where the box (B=5), the band (eps=0.02) or both bind), each
    # one attempt of the finish at product 32. A single face solve once
    # a face had held for 10 products made 856, 578, 684, 381, 476 and
    # 517, and FISTA alone makes 2624, 1796, 1886, 1519, 2645 and 1809,
    # so losing the finish or its first attempt fails here as a count
    @pytest.mark.parametrize("seed,settings,bound", [
        (7, {}, 84), (101, {}, 82), (3, {}, 82),
        (7, {"B": 5.0}, 84), (7, {"eps": 0.02}, 84),
        (7, {"B": 5.0, "eps": 0.02}, 82),
    ], ids=["draw7", "draw101", "draw3", "draw7-box", "draw7-band",
            "draw7-box-band"])
    def test_projections_stay_under_a_bound(self, monkeypatch, seed,
                                            settings, bound):
        calls = []

        def counting_projection(*args):
            calls.append(None)
            return _project_box_band(*args)

        monkeypatch.setattr(baselines, "_project_box_band",
                            counting_projection)
        Xs, Xt = mixture_draw(seed)
        config = KmmConfig(**settings)
        w = kmm_weights(Xs, Xt, config)
        assert len(calls) <= bound
        problem = KmmProblem(Xs, Xt, config)
        assert problem.residual(w) <= config.tol
        assert problem.lo <= w.sum() <= problem.hi

    @pytest.mark.parametrize("seed", range(5))
    def test_meets_tol_where_the_single_face_solve_runs_out(self, seed):
        # at dim 8 the reference reaches max_iter with its residual above
        # tol; the finish meets tol there and ends no higher
        Xs, Xt = mixture_draw(seed, dim=8)
        config = KmmConfig()
        problem = KmmProblem(Xs, Xt, config)
        reference = kmm_plain_loop(Xs, Xt, config)
        assert problem.residual(reference) > config.tol
        w = kmm_weights(Xs, Xt, config)
        assert problem.residual(w) <= config.tol
        assert problem.objective(w) <= problem.objective(reference)

    def test_finishes_where_the_gradient_steps_meet_tol(self):
        # FISTA meets tol here at a residual of about 1e-6, before any
        # scheduled attempt succeeds; the attempt at that stop lands on
        # the exact face point
        Xs, Xt = mixture_draw(2, dim=1, m=1000)
        config = KmmConfig()
        problem = KmmProblem(Xs, Xt, config)
        w = kmm_weights(Xs, Xt, config)
        assert problem.residual(w) <= 1e-12
        reference = kmm_plain_loop(Xs, Xt, config)
        assert problem.objective(w) <= problem.objective(reference)


@pytest.mark.slow
class TestKmmFinishSweep:
    """Wider sweeps against the reference loop, for changes to the KMM
    solver; run with ``pytest -m slow``."""

    @pytest.mark.parametrize("settings", [{}, {"B": 5.0}],
                             ids=["default", "box"])
    @pytest.mark.parametrize("seed", range(30))
    def test_bits_match_the_reference_on_mixture_draws(self, seed,
                                                       settings):
        Xs, Xt = mixture_draw(seed)
        config = KmmConfig(**settings)
        np.testing.assert_array_equal(kmm_weights(Xs, Xt, config),
                                      kmm_plain_loop(Xs, Xt, config))

    @pytest.mark.parametrize("settings", [{}, {"B": 5.0}],
                             ids=["default", "box"])
    @pytest.mark.parametrize("dim,m,seed", [
        (dim, m, seed) for dim in (1, 2, 4, 16) for m in (50, 300)
        for seed in range(4)])
    def test_changed_weights_meet_tol_and_end_no_higher(self, dim, m, seed,
                                                        settings):
        Xs, Xt = mixture_draw(seed, dim=dim, m=m)
        config = KmmConfig(**settings)
        w = kmm_weights(Xs, Xt, config)
        reference = kmm_plain_loop(Xs, Xt, config)
        if not np.array_equal(w, reference):
            problem = KmmProblem(Xs, Xt, config)
            assert problem.residual(w) <= config.tol
            assert problem.objective(w) <= problem.objective(reference)


def mixture_draw(seed, dim=64, m=1000):
    """Source and target rows of a mixture draw with 20% target rows; the
    defaults are the paper's 800x200 draw."""
    train = gen_mixture_shift(MixtureShiftSpec(
        dim=dim, m=m, target_fraction=0.2, seed=seed)).train
    return train.source_rows().X, train.target_rows().X


def kmm_draw(draw):
    """The draws of test_converges_past_the_fixed_step_loop, the paper's
    mixture draws 101 and 3, and the dim-1, m=50 mixture draw 0."""
    if draw == "gaussian-60x20":
        rng = np.random.default_rng(9)
        return rng.normal(size=(60, 3)), rng.normal(0.5, 1.0, size=(20, 3))
    if draw == "mixture-40x10-dim1":
        return mixture_draw(0, dim=1, m=50)
    return mixture_draw(int(draw.partition("-draw")[2] or 7))


def kmm_plain_loop(Xs, Xt, config, face_products=10):
    """The solver without its active-set finish: the same start, step
    and restarted FISTA loop, with every product x @ K, and one exact
    solve of a face once it has held for ``face_products`` products,
    gathered from K in the same arithmetic as the solver's face solves.
    With ``face_products=None`` it is FISTA alone, as the solver was
    before it had the face solve."""
    m, n = len(Xs), len(Xt)
    sigma = config.kernel_bandwidth or median_pairwise_distance(Xs, Xt)
    eps = config.eps
    if eps is None:
        eps = max((math.sqrt(m) - 1) / math.sqrt(m), 1e-12)
    K = _gaussian_kernel(Xs, Xs, sigma)
    K[np.diag_indices(m)] += 1e-8
    kappa = _gaussian_kernel(Xs, Xt, sigma).sum(axis=1)
    step = (m * m) / (2.0 * max(_perron_bounds(K)[1], 1e-12))
    lo, hi = m * (1.0 - eps), m * (1.0 + eps)

    def project(v):
        return _project_box_band(v, config.B, lo, hi)

    face, held, tried = None, 0, False

    def kernel_product(x):
        nonlocal face, held, tried
        support = np.flatnonzero(x)
        upper = x[support] == config.B
        if (face is None or not np.array_equal(support, face[0])
                or not np.array_equal(upper, face[1])):
            face, held, tried = (support, upper), 0, False
        held += 1
        return x @ K

    def face_solve():
        support, upper = face
        F, U = support[~upper], support[upper]
        # K[F][:, U] comes out column-major, so its row sums add one
        # column at a time, as the solver's sums over K_UF's rows do
        rhs = np.column_stack([
            (m / n) * kappa[F] - config.B * K[F][:, U].sum(axis=1),
            np.ones(len(F))])
        try:
            a, b = np.linalg.solve(K[np.ix_(F, F)], rhs).T
        except np.linalg.LinAlgError:
            return None
        total = a.sum() + config.B * len(U)
        if not lo <= total <= hi:
            a -= (total - (hi if total > hi else lo)) / b.sum() * b
        if not ((a > 0.0).all() and (a < config.B).all()):
            return None
        w_face = np.zeros(m)
        w_face[F] = a
        w_face[U] = config.B
        return project(w_face)

    def rise(w_new, Kw_new, w, Kw):
        d = w_new - w
        return float(d @ (Kw_new + Kw) / (m * m)
                     - 2.0 * (d @ kappa) / (m * n))

    def gradient(Kw):
        return 2.0 * Kw / (m * m) - 2.0 * kappa / (m * n)

    def residual(w, Kw):
        return float(np.abs(w - project(w - step * gradient(Kw))).max())

    w = project(np.ones(m))
    Kw = kernel_product(w)
    y, Ky, t = w, Kw, 1.0
    for _ in range(config.max_iter):
        w_new = project(y - step * gradient(Ky))
        Kw_new = kernel_product(w_new)
        if y is not w and rise(w_new, Kw_new, w, Kw) > 0.0:
            y, Ky, t = w, Kw, 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y = w_new + beta * (w_new - w)
        Ky = Kw_new + beta * (Kw_new - Kw)
        w, Kw, t = w_new, Kw_new, t_new
        if residual(w, Kw) <= config.tol:
            break
        if face_products is not None and held >= face_products and not tried:
            tried = True
            w_face = face_solve()
            if (w_face is not None
                    and residual(w_face, kernel_product(w_face)) <= config.tol):
                return w_face
    return w


class KmmProblem:
    """The KMM objective, gradient and projection, restated densely."""

    def __init__(self, Xs, Xt, config):
        m, n = len(Xs), len(Xt)
        sigma = config.kernel_bandwidth or median_pairwise_distance(Xs, Xt)
        eps = config.eps
        if eps is None:
            eps = max((math.sqrt(m) - 1) / math.sqrt(m), 1e-12)
        K = _gaussian_kernel(Xs, Xs, sigma)
        self.K = 0.5 * (K + K.T) + 1e-8 * np.eye(m)
        self.kappa = _gaussian_kernel(Xs, Xt, sigma).sum(axis=1)
        self.step = m * m / (2.0 * max(np.linalg.eigvalsh(self.K)[-1], 1e-12))
        self.m, self.n, self.B = m, n, config.B
        self.lo, self.hi = m * (1 - eps), m * (1 + eps)

    def objective(self, w):
        m, n = self.m, self.n
        return float(w @ self.K @ w / (m * m) - 2 * (w @ self.kappa) / (m * n))

    def gradient(self, w):
        m, n = self.m, self.n
        return 2 * (self.K @ w) / (m * m) - 2 * self.kappa / (m * n)

    def project(self, v):
        return _project_box_band(v, self.B, self.lo, self.hi)

    def residual(self, w):
        """max|w - P(w - step * grad f(w))|, zero exactly at the optimum."""
        return float(np.abs(w - self.project(w - self.step * self.gradient(w)))
                     .max())


@given(m=st.integers(1, 30), n=st.integers(1, 30), dim=st.integers(1, 4),
       shift=st.floats(-2.0, 2.0), B=st.floats(1.0, 1000.0),
       eps=st.one_of(st.none(), st.floats(0.01, 0.99)),
       max_iter=st.integers(1, 2000), seed=st.integers(0, 2**16))
def test_kmm_weights_are_feasible_and_no_worse_than_the_start(
        m, n, dim, shift, B, eps, max_iter, seed):
    rng = np.random.default_rng(seed)
    Xs = rng.normal(size=(m, dim))
    Xt = rng.normal(shift, 1.0, size=(n, dim))
    config = KmmConfig(B=B, eps=eps, max_iter=max_iter)
    problem = KmmProblem(Xs, Xt, config)
    w = kmm_weights(Xs, Xt, config)

    assert np.isfinite(w).all()
    assert (w >= 0.0).all() and (w <= B).all()
    assert problem.lo - 1e-9 * m <= w.sum() <= problem.hi + 1e-9 * m
    # the test's K @ w, of a symmetrized K, rounds apart from the
    # solver's x @ K
    start = problem.project(np.ones(m))
    assert problem.objective(w) <= problem.objective(start) + 1e-12
    if problem.residual(w) > config.tol:
        # the loop ran out of iterations: one that stopped on its own
        # returns the same weights however many more it is allowed
        longer = kmm_weights(Xs, Xt, replace(config, max_iter=2 * max_iter))
        assert not np.array_equal(longer, w)


@given(m=st.integers(1, 30), dim=st.integers(1, 4),
       scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
def test_perron_bounds_bracket_the_largest_eigenvalue(m, dim, scale, seed):
    X = np.random.default_rng(seed).normal(size=(m, dim))
    K = _gaussian_kernel(X, X, scale * median_pairwise_distance(X))
    K[np.diag_indices(m)] += 1e-8
    lo, hi = _perron_bounds(K)
    lam = np.linalg.eigvalsh(K)[-1]
    # both sides round at a relative m * 2.2e-16 or so
    assert lo <= lam * (1 + 1e-12) and lam * (1 - 1e-12) <= hi
    assert hi - lo <= 1e-3 * hi or hi <= lam * (1 + 1e-3)


def test_perron_bounds_stay_finite_where_the_iterate_underflows():
    # the first entry shrinks 1e4-fold per power step and would reach 0
    # long before the 100-step cap; the bounds never meet
    assert _perron_bounds(np.diag([1.0, 1e4])) == (1.0, 1e4)


# the smallest bandwidth whose 2 sigma^2 is a normal float
SMALLEST_BANDWIDTH = math.sqrt(np.finfo(float).tiny / 2.0)

BAD_SETTINGS = [
    ("kernel_bandwidth", 0.0), ("kernel_bandwidth", -1.0),
    ("kernel_bandwidth", math.nan), ("kernel_bandwidth", math.inf),
    ("kernel_bandwidth", 1e-300),
    ("kernel_bandwidth", math.nextafter(SMALLEST_BANDWIDTH, 0.0)),
    ("max_iter", -1), ("tol", -1.0), ("tol", math.nan),
]


class TestSettingsFailEarly:
    @pytest.mark.parametrize("config_cls", [KmmConfig, KliepConfig])
    @pytest.mark.parametrize("name,value", BAD_SETTINGS)
    def test_bad_setting_raises(self, config_cls, name, value):
        with pytest.raises(ValueError, match=name):
            config_cls(**{name: value})

    @pytest.mark.parametrize("config_cls", [KmmConfig, KliepConfig])
    def test_edge_settings_accepted(self, config_cls):
        config_cls(kernel_bandwidth=SMALLEST_BANDWIDTH, max_iter=0, tol=0.0)
        config_cls(tol=math.inf)

    @pytest.mark.parametrize("B", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_B_rejected(self, B):
        with pytest.raises(ValueError, match="B must be finite and positive"):
            KmmConfig(B=B)

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(baselines, "_gaussian_kernel", refuse)
        monkeypatch.setattr(baselines, "median_pairwise_distance", refuse)

    @pytest.mark.parametrize("solver", [kmm_weights, kliep_weights])
    @pytest.mark.parametrize("side,bad", [("source", math.nan),
                                          ("source", math.inf),
                                          ("target", math.nan),
                                          ("target", -math.inf)])
    def test_non_finite_row_raises_before_any_kernel(self, no_kernel,
                                                     solver, side, bad):
        rng = np.random.default_rng(11)
        Xs, Xt = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
        (Xs if side == "source" else Xt)[1, 0] = bad
        with pytest.raises(ValueError, match=f"{side}_X has a non-finite "
                                             f"value in row 1"):
            solver(Xs, Xt)

    @pytest.mark.parametrize("solver", [kmm_weights, kliep_weights])
    def test_tiny_median_bandwidth_raises_before_any_kernel(
            self, no_kernel, monkeypatch, solver):
        # these rows, about 1e-160 apart, once gave KMM "kernel matrix
        # not positive semidefinite": 2 sigma^2 is subnormal there
        monkeypatch.setattr(baselines, "median_pairwise_distance",
                            median_pairwise_distance)
        rng = np.random.default_rng(12)
        Xs, Xt = rng.normal(size=(30, 2)), rng.normal(size=(4, 2))
        with pytest.raises(ValueError, match="median pairwise distance.*"
                                             "smallest kernel bandwidth"):
            solver(1e-160 * Xs, 1e-160 * Xt)

    @pytest.mark.parametrize("solver", [kmm_weights, kliep_weights])
    @pytest.mark.parametrize("source_shape,target_shape,message", [
        ((5,), (4, 1), "source_X must be a 2-D matrix"),
        ((5, 1, 1), (4, 1), "source_X must be a 2-D matrix"),
        ((5, 1), (4,), "target_X must be a 2-D matrix"),
        ((5, 1), (4, 1, 3), "target_X must be a 2-D matrix"),
        ((5, 1), (4, 3), "target_X has 3 features, source_X has 1"),
    ], ids=["1-D source", "3-D source", "1-D target", "3-D target",
            "widths"])
    def test_bad_shape_raises_before_any_kernel(self, no_kernel, solver,
                                                source_shape, target_shape,
                                                message):
        # these once failed inside np.concatenate, in the median bandwidth
        with pytest.raises(ValueError, match=message):
            solver(np.ones(source_shape), np.ones(target_shape))


class TestProjectBoxBand:
    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("seed", range(5))
    def test_lands_on_the_band_edge_where_the_band_binds(self, side, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 50))
        B = float(rng.choice([1.5, 4.0, 1000.0]))
        eps = 1e-3
        lo, hi = m * (1 - eps), m * (1 + eps)
        v = rng.normal(3.0 if side == "above" else -1.0, 2.0, size=m)
        total = np.clip(v, 0.0, B).sum()
        assert total > hi if side == "above" else total < lo
        w = _project_box_band(v, B, lo, hi)
        assert (w >= 0.0).all() and (w <= B).all()
        assert lo <= w.sum() <= hi  # exactly: rounding stays inside
        assert w.sum() == pytest.approx(hi if side == "above" else lo,
                                        rel=0, abs=1e-9)

    def test_sum_never_rounds_past_the_edge(self):
        # the midpoint of the last bisection bracket landed up to 4.5e-13
        # past the edge on about a third of such draws
        rng = np.random.default_rng(40)
        for _ in range(200):
            m = int(rng.integers(2, 901))
            eps = float(rng.choice([1e-3, 0.02, 0.2]))
            B = float(rng.choice([1.5, 4.0, 1000.0]))
            lo, hi = m * (1 - eps), m * (1 + eps)
            v = rng.normal(3.0 if rng.random() < 0.5 else -1.0, 2.0, size=m)
            w = _project_box_band(v, B, lo, hi)
            assert lo <= w.sum() <= hi

    def test_rejects_infeasible_band(self):
        with pytest.raises(ValueError, match="infeasible"):
            _project_box_band(np.ones(3), 1.0, 4.0, 5.0)

    @given(v=arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-1e3, 1e3)),
           B=st.sampled_from([1.0, 1.5, 4.0, 1000.0]),
           band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           point=st.booleans())
    @example(v=np.array([0.25]), B=1.0, band=(1.0, 1.0), point=True)
    @example(v=np.array([0.5, 3.0, -2.0]), B=1.0, band=(1.0, 1.0),
             point=True)
    def test_bits_match_the_full_bisection(self, v, B, band, point):
        # the band is [lo, hi] within [0, m*B]; point puts lo == hi, as
        # KLIEP's simplex does
        lo, hi = sorted(band)
        if point:
            hi = lo
        lo, hi = len(v) * B * lo, len(v) * B * hi
        assert np.array_equal(_project_box_band(v, B, lo, hi),
                              project_box_band_full_bisection(v, B, lo, hi))


def project_box_band_full_bisection(v, B, lo, hi):
    """The projection as it ran before it stopped early: all 200
    bisection steps."""
    w = np.clip(v, 0.0, B)
    total = w.sum()
    if lo <= total <= hi:
        return w
    above = total > hi
    want = hi if above else lo
    left, right = float(v.min() - B - 1.0), float(v.max() + 1.0)
    for _ in range(200):
        mid = 0.5 * (left + right)
        if float(np.clip(v - mid, 0.0, B).sum()) > want:
            left = mid
        else:
            right = mid
    return np.clip(v - (right if above else left), 0.0, B)


def median_pairwise_distance_with_index_arrays(X, Y=None):
    """The earlier median: a fancy index by np.triu_indices arrays."""
    Z = X if Y is None else np.concatenate([X, Y])
    sq = np.sum(Z * Z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
    iu = np.triu_indices(len(Z), k=1)
    dists = np.sqrt(np.maximum(d2[iu], 0.0))
    med = float(np.median(dists)) if len(dists) else 1.0
    return med if med > 0.0 else 1.0


def gaussian_kernel_out_of_place(X, Y, sigma):
    """The kernel as first written, one temporary per operation."""
    sq_x = np.sum(X * X, axis=1)[:, None]
    sq_y = np.sum(Y * Y, axis=1)[None, :]
    d2 = np.maximum(sq_x + sq_y - 2.0 * (X @ Y.T), 0.0)
    return np.exp(-d2 / (2.0 * sigma * sigma))


class TestGaussianKernel:
    def test_bits_match_the_out_of_place_formula(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m, n, d = (int(v) for v in rng.integers(1, 40, size=3))
            X = rng.normal(size=(m, d))
            Y = rng.normal(0.3, 1.5, size=(n, d))
            sigma = float(rng.uniform(0.1, 5.0))
            assert np.array_equal(_gaussian_kernel(X, Y, sigma),
                                  gaussian_kernel_out_of_place(X, Y, sigma))
            # one sample on both sides shares one norm vector
            assert np.array_equal(_gaussian_kernel(X, X, sigma),
                                  gaussian_kernel_out_of_place(X, X, sigma))
        # coincident rows give cancellations that the clamp at 0 handles
        Z = np.repeat(rng.normal(size=(3, 4)), 2, axis=0)
        assert np.array_equal(_gaussian_kernel(Z, Z, 1.0),
                              gaussian_kernel_out_of_place(Z, Z, 1.0))

    def test_bits_match_on_the_mixture_draw_kernel(self):
        Xs = gen_mixture_shift(MixtureShiftSpec(
            dim=64, m=1000, target_fraction=0.2, seed=7)).train.source_rows().X
        sigma = median_pairwise_distance(Xs)
        assert np.array_equal(_gaussian_kernel(Xs, Xs, sigma),
                              gaussian_kernel_out_of_place(Xs, Xs, sigma))

    def test_holds_two_kernel_sized_arrays_at_most(self):
        # one kernel-sized array, one 64-row scratch of sq_x_i + sq_y_j (a
        # thirty-second of the kernel here) and NumPy's iterator buffers;
        # the out-of-place formula holds three kernels
        rng = np.random.default_rng(15)
        X, Y = rng.normal(size=(2000, 5)), rng.normal(size=(100, 5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _gaussian_kernel(X, Y, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * X.shape[0] * Y.shape[0] * 8


@st.composite
def pooled_samples(draw):
    """X, and Y or None, with 1-6 columns and rows drawn from a pool of
    1-4 rows, so distances tie or are zero; 1-18 rows in all give 0, 1,
    odd and even pair counts."""
    width = draw(st.integers(1, 6))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), width),
                       elements=st.floats(-1e3, 1e3)))
    rows = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9)
    X = pool[draw(rows)]
    return X, (pool[draw(rows)] if draw(st.booleans()) else None)


class TestMedianPairwiseDistance:
    # 129 to 1001 rows straddle the edges of the 128-row blocks
    @pytest.mark.parametrize("X", [
        *(np.random.default_rng(rows).normal(size=(rows, 3))
          for rows in (1, 2, 3, 60, 129, 257, 300, 1001)),
        np.ones((4, 2)),  # every distance zero: the bandwidth falls back to 1
    ], ids=["1-row", "2-row", "3-row", "60-row", "129-row", "257-row",
            "300-row", "1001-row", "coincident"])
    def test_bits_match_index_array_version(self, X):
        assert (median_pairwise_distance(X)
                == median_pairwise_distance_with_index_arrays(X))

    @given(samples=pooled_samples())
    # one row: no pair at all
    @example(samples=(np.zeros((1, 2)), None))
    def test_bits_match_index_array_version_on_any_draw(self, samples):
        assert (median_pairwise_distance(*samples)
                == median_pairwise_distance_with_index_arrays(*samples))

    @pytest.mark.parametrize("seed", [7, 101, 3])
    def test_bits_match_index_array_version_on_mixture_draw(self, seed):
        train = gen_mixture_shift(MixtureShiftSpec(
            dim=64, m=1000, target_fraction=0.2, seed=seed)).train
        Xs, Xt = train.source_rows().X, train.target_rows().X
        assert (median_pairwise_distance(Xs, Xt)
                == median_pairwise_distance_with_index_arrays(Xs, Xt))

    def test_large_input_stays_under_a_memory_bound(self):
        # about 4.3 bytes per pair of rows: the packed squared distances
        # above the diagonal and one 64-row block of sq_i + sq_j; all
        # 2 * MEDIAN_MAX_ROWS rows would need 4x more
        X = np.random.default_rng(12).normal(size=(2 * MEDIAN_MAX_ROWS, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            median_pairwise_distance(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * MEDIAN_MAX_ROWS ** 2

    def test_subsample_median_is_fixed_and_close_to_the_full_median(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(MEDIAN_MAX_ROWS, 3))
        Y = rng.normal(0.5, 1.0, size=(100, 3))
        Z = np.concatenate([X, Y])
        full = np.median(np.concatenate(
            [np.linalg.norm(Z[i + 1:] - Z[i], axis=1)
             for i in range(len(Z) - 1)]))
        med = median_pairwise_distance(X, Y)
        assert med == median_pairwise_distance(X.copy(), Y.copy())
        assert med == pytest.approx(full, rel=1e-2)


def kmm_grid_oracle(Xs, Xt, sigma, B, coarse=0.05, fine=0.005):
    """Two-stage dense grid over the feasible box (convex objective)."""
    m, n = len(Xs), len(Xt)
    eps = (math.sqrt(m) - 1) / math.sqrt(m)
    K = _gaussian_kernel(Xs, Xs, sigma)
    K = 0.5 * (K + K.T) + 1e-8 * np.eye(m)
    kappa = _gaussian_kernel(Xs, Xt, sigma).sum(axis=1)
    lo, hi = m * (1 - eps), m * (1 + eps)

    def search(axes):
        W = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, m)
        sums = W.sum(axis=1)
        W = W[(sums >= lo - 1e-12) & (sums <= hi + 1e-12)]
        vals = (np.einsum("pi,ij,pj->p", W, K, W) / (m * m)
                - 2.0 * (W @ kappa) / (m * n))
        return W[np.argmin(vals)]

    best = search([np.arange(0.0, B + 1e-9, coarse)] * m)
    axes = [np.clip(np.arange(b - coarse, b + coarse + 1e-9, fine), 0, B)
            for b in best]
    return search(axes)


def kliep_em_reference(Xs, Xt, config, steps=3000):
    """The KLIEP objective after ``steps`` EM steps from alpha = 1/sum(b),
    on the centers and bandwidth kliep_weights takes. Each step keeps
    b.alpha = 1 and does not lower the objective, so any value it reaches
    is a lower bound on the optimum."""
    n = len(Xt)
    centers = Xt[np.random.default_rng(config.seed).choice(
        n, size=min(config.n_centers, n), replace=False)]
    sigma = config.kernel_bandwidth or median_pairwise_distance(Xs, Xt)
    k_tgt = _gaussian_kernel(Xt, centers, sigma)
    b = _gaussian_kernel(Xs, centers, sigma).mean(axis=0)
    alpha = np.full(len(centers), 1.0 / b.sum())
    for _ in range(steps):
        alpha = alpha * (k_tgt.T @ (1.0 / (k_tgt @ alpha))) / (n * b)
    return float(np.log(k_tgt @ alpha).sum())


def kliep_draw(draw):
    """Mixture draws at dims 64 and 2, and the 1-D shifted uniforms."""
    if draw == "uniform-1d":
        train, _ = gen_uniform_shift_1d(200, 50, 0)
        return train.source_rows().X, train.target_rows().X
    dim, seed = (int(part) for part in draw.split("-draw"))
    return mixture_draw(seed, dim=dim)


class TestKliep:
    # the projection onto b.alpha = 1 that KLIEP once took (a hyperplane
    # correction, a clip and a rescale) stalled 5.8 to 59 nats short
    @pytest.mark.parametrize("draw", ["64-draw7", "64-draw101", "64-draw3",
                                      "2-draw0", "uniform-1d"])
    def test_reaches_the_em_optimum(self, draw):
        Xs, Xt = kliep_draw(draw)
        config = KliepConfig()
        trace = []
        w = kliep_weights(Xs, Xt, config, trace)
        assert trace[-1] >= kliep_em_reference(Xs, Xt, config) - 1e-6
        assert (w >= 0.0).all() and abs(w.mean() - 1.0) <= 1e-9

    def test_center_without_source_mass_refused(self):
        # b_l = 0 leaves alpha_l unbounded, and with it the objective
        rng = np.random.default_rng(13)
        Xs, Xt = rng.normal(size=(20, 2)), rng.normal(size=(5, 2))
        Xt[2] = 1000.0
        with pytest.raises(ValueError, match="center has zero kernel mass"
                                             ".*bandwidth"):
            kliep_weights(Xs, Xt, KliepConfig(kernel_bandwidth=1.0))

    @given(data=st.data(), m=st.integers(1, 30), n=st.integers(1, 30),
           dim=st.integers(1, 4), n_centers=st.integers(1, 30),
           sigma=st.one_of(st.none(), st.floats(0.05, 20.0)),
           seed=st.integers(0, 3))
    def test_small_problems_reach_the_em_optimum_or_name_the_bandwidth(
            self, data, m, n, dim, n_centers, sigma, seed):
        coordinates = st.floats(-5.0, 5.0)
        Xs = data.draw(arrays(np.float64, (m, dim), elements=coordinates))
        Xt = data.draw(arrays(np.float64, (n, dim), elements=coordinates))
        config = KliepConfig(n_centers=n_centers, kernel_bandwidth=sigma,
                             seed=seed)
        trace = []
        try:
            w = kliep_weights(Xs, Xt, config, trace)
        except ValueError as err:
            assert "bandwidth" in str(err)
            return
        assert (w >= 0.0).all() and abs(w.mean() - 1.0) <= 1e-9
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] >= kliep_em_reference(Xs, Xt, config) - 1e-5

    def test_equality_constraint_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        Xs = rng.normal(size=(40, 2))
        Xt = rng.normal(0.5, 1.2, size=(25, 2))
        w = kliep_weights(Xs, Xt, KliepConfig(n_centers=10, seed=3))
        assert (w >= 0).all()
        assert abs(w.mean() - 1.0) <= 1e-6

    def test_identical_samples_large_bandwidth_near_one(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        w = kliep_weights(X, X.copy(),
                          KliepConfig(n_centers=20, kernel_bandwidth=50.0,
                                      seed=1))
        assert np.abs(w - 1.0).max() <= 0.1

    def test_centers_capped_at_target_count(self):
        rng = np.random.default_rng(11)
        Xs = rng.normal(size=(15, 1))
        Xt = rng.normal(size=(4, 1))
        w = kliep_weights(Xs, Xt, KliepConfig(n_centers=100, seed=0))
        assert len(w) == 15 and np.isfinite(w).all()

    def test_zero_kernel_mass_suggests_larger_bandwidth(self):
        Xs = np.zeros((4, 1))
        Xt = np.array([[0.0], [1000.0]])
        with pytest.raises(ValueError, match="bandwidth"):
            kliep_weights(Xs, Xt, KliepConfig(n_centers=1,
                                              kernel_bandwidth=1.0, seed=0))

    def test_matches_grid_oracle_objective(self):
        rng = np.random.default_rng(12)
        Xs = rng.normal(size=(5, 1))
        Xt = rng.normal(0.3, 1.0, size=(3, 1))
        config = KliepConfig(n_centers=2, kernel_bandwidth=1.0, seed=4)
        w = kliep_weights(Xs, Xt, config)

        centers = Xt[np.random.default_rng(4).choice(3, 2, replace=False)]
        k_tgt = _gaussian_kernel(Xt, centers, 1.0)
        k_src = _gaussian_kernel(Xs, centers, 1.0)
        b = k_src.mean(axis=0)
        alpha = np.linalg.lstsq(k_src, w, rcond=None)[0]
        achieved = np.log(k_tgt @ alpha).sum()

        # feasible set is a segment: alpha2 fixed by the constraint
        a1 = np.linspace(0.0, 1.0 / b[0], 200001)
        a2 = (1.0 - b[0] * a1) / b[1]
        ok = a2 >= 0.0
        mass = np.outer(k_tgt[:, 0], a1[ok]) + np.outer(k_tgt[:, 1], a2[ok])
        best = np.log(mass).sum(axis=0).max()
        assert achieved >= best - 1e-2


class TestTradaboost:
    def test_single_iteration_equals_uniform_fit(self):
        train = make_train(m=25, n=8, seed=13)
        arch = ArchSpec((8,), clip=1.0)
        fit = FitConfig(epochs=15, batch_size=8, seed=7)
        ensemble = tradaboost_r2_fit(train, TradaboostConfig(1, arch, fit))
        net, _ = uniform_fit(train, arch, fit)
        np.testing.assert_array_equal(ensemble.predict(train.X),
                                      forward(net, train.X))

    def test_weights_stay_probability_vector(self):
        train = make_train(m=25, n=8, seed=14)
        config = TradaboostConfig(6, ArchSpec((8,), clip=1.0),
                                  FitConfig(epochs=10, batch_size=8, seed=1))
        ensemble = tradaboost_r2_fit(train, config)
        for weights in ensemble.weight_history:
            assert abs(weights.sum() - 1.0) <= 1e-10
            assert (weights >= 0).all()

    def test_hostile_source_rows_sink_below_source_mean(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(60, 2))
        y = X[:, 0].copy()
        flags = np.zeros(60, bool)
        flags[rng.choice(60, 15, replace=False)] = True
        hostile = np.flatnonzero(~flags)[:20]
        y[hostile] += 10.0
        train = TrainingSet(X, y, flags)
        config = TradaboostConfig(6, ArchSpec((16,), clip=2.0),
                                  FitConfig(epochs=40, batch_size=16, seed=2))
        ensemble = tradaboost_r2_fit(train, config)
        w = ensemble.final_weights
        src_mean = w[~flags].mean()
        assert w[hostile].mean() < src_mean

    def test_perfect_fit_stops_early(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(20, 2))
        flags = np.concatenate([np.zeros(15, bool), np.ones(5, bool)])
        arch = ArchSpec((4,), clip=1.0)
        frozen = FitConfig(epochs=0, batch_size=8, seed=11)
        reference = arch.build(2, rng=np.random.default_rng(11))
        y = forward(reference, X)  # the epochs=0 learner predicts exactly y
        ensemble = tradaboost_r2_fit(TrainingSet(X, y, flags),
                                     TradaboostConfig(8, arch, frozen))
        assert len(ensemble.learners) == 1

    def test_needs_both_domains(self):
        train = make_train(m=10, n=5, seed=17)
        empty_tgt = TrainingSet(train.X, train.y,
                                np.zeros(len(train), bool))
        with pytest.raises(ValueError, match="source and target"):
            tradaboost_r2_fit(empty_tgt, TradaboostConfig(2))
