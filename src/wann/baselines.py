"""Instance-based competitor methods.

Uniform weighting and target-only fits, kernel mean matching (KMM),
KLIEP density-ratio weights and a reverse-boosting regression transfer
ensemble. The two kernel methods are solved without an external QP
solver: KMM by accelerated projected gradient, finished by active-set
steps of exact linear solves on the faces it finds, KLIEP by projected
gradient ascent. Desk-scale sample sizes keep these methods adequate,
and the test suite validates them against grid-search oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import LabeledSample, TrainingSet, checked
from .nn import (ArchSpec, FitConfig, FitTrace, Mlp, _require_integer,
                 fit_network, forward)

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # kernel mass below it is none to KLIEP


def uniform_fit(train: TrainingSet, arch: ArchSpec, config: FitConfig,
                validation: LabeledSample | None = None
                ) -> tuple[Mlp, FitTrace]:
    """Fit one network on all rows with weights 1/(m+n)."""
    k = len(train)
    return fit_network(arch, train.X, train.y, np.full(k, 1.0 / k), config,
                       validation)


def target_only_fit(train: TrainingSet, arch: ArchSpec, config: FitConfig,
                    validation: LabeledSample | None = None
                    ) -> tuple[Mlp, FitTrace]:
    """Fit one network on the target rows only, uniformly weighted."""
    rows = train.target_rows()
    if len(rows) == 0:
        raise ValueError("target-only fit needs at least one target row")
    return fit_network(arch, rows.X, rows.y,
                       np.full(len(rows), 1.0 / len(rows)), config, validation)


# rows above which the median bandwidth is taken over a subsample, so its
# peak memory, about 4.3 * MEDIAN_MAX_ROWS**2 bytes (the packed squared
# distances and one 64-row block of sq_i + sq_j), holds for any input
MEDIAN_MAX_ROWS = 2000


def _squared_distances(X: np.ndarray, Y: np.ndarray, sq_x: np.ndarray,
                       sq_y: np.ndarray, out: np.ndarray | None = None
                       ) -> np.ndarray:
    """||x_i - y_j||^2 as fl(fl(-2 x_i.y_j) + fl(sq_x_i + sq_y_j)), in
    ``out`` or a new array; ``sq_x`` and ``sq_y`` are the squared row
    norms. sq_x_i + sq_y_j is added 64 rows at a time through one reused
    scratch, so no second array of the result's size is made."""
    d2 = np.matmul(X, Y.T, out=out)
    d2 *= -2.0
    scratch = np.empty((min(64, len(X)), len(Y)))
    for start in range(0, len(X), 64):
        block = d2[start:start + 64]
        block += np.add(sq_x[start:start + 64, None], sq_y,
                        out=scratch[:len(block)])
    return d2


def median_pairwise_distance(X: np.ndarray, Y: np.ndarray | None = None
                             ) -> float:
    """Median pairwise Euclidean distance, the default kernel bandwidth.

    The squared distances of the pairs i < j alone are computed by
    ``_squared_distances``, 128 rows at a time, into one packed vector: a
    block's rectangle right of its diagonal square straight into its slot,
    and the square's entries above the diagonal. BLAS may round a Gram
    entry of a rectangle (a general product) unlike ``Z @ Z.T`` (a
    symmetric rank-k update). The median is selected in any order, and
    only the one or two middle values are clamped at 0 and square-rooted,
    both monotone maps. Zero distances only, or none, give 1.0, as does a
    squared distance that overflowed to nan. Above ``MEDIAN_MAX_ROWS``
    rows in all the median is taken over a fixed-seed subsample of them.
    """
    Z = X if Y is None else np.concatenate([X, Y])
    if len(Z) > MEDIAN_MAX_ROWS:
        Z = Z[np.random.default_rng(0).choice(len(Z), MEDIAN_MAX_ROWS,
                                              replace=False)]
    n = len(Z)
    if n < 2:
        return 1.0
    sq = np.sum(Z * Z, axis=1)
    d2 = np.empty(n * (n - 1) // 2)
    above = np.triu(np.ones((128, 128), dtype=bool), 1)
    end = 0
    for start in range(0, n, 128):
        stop = min(start + 128, n)
        block, k, width = Z[start:stop], stop - start, n - stop
        _squared_distances(block, Z[stop:], sq[start:stop], sq[stop:],
                           d2[end:end + k * width].reshape(k, width))
        end += k * width
        square = _squared_distances(block, block, sq[start:stop],
                                    sq[start:stop])
        np.compress(above[:k, :k].ravel(), square,
                    out=d2[end:end + k * (k - 1) // 2])
        end += k * (k - 1) // 2
    upper = len(d2) // 2
    d2.partition(upper)
    # the partition puts nans last, so any nan lies in d2[upper:]
    if np.isnan(d2[upper:].max()):
        return 1.0
    middle = ([d2[upper]] if len(d2) % 2
              else [d2[:upper].max(), d2[upper]])
    med = float(np.mean(np.sqrt(np.maximum(middle, 0.0))))
    return med if med > 0.0 else 1.0


def _gaussian_kernel(X: np.ndarray, Y: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-||x_i - y_j||^2 / (2 sigma^2)), in one kernel-sized array."""
    sq_x = np.sum(X * X, axis=1)
    sq_y = sq_x if Y is X else np.sum(Y * Y, axis=1)
    kernel = _squared_distances(X, Y, sq_x, sq_y)
    np.maximum(kernel, 0.0, out=kernel)
    np.divide(kernel, -(2.0 * sigma * sigma), out=kernel)
    return np.exp(kernel, out=kernel)


# the smallest kernel bandwidth: below it 2 sigma^2 is no normal float,
# or is 0, and the kernel's -d^2 / (2 sigma^2) loses its digits or is
# nan at distance 0
MIN_BANDWIDTH = math.sqrt(TINY / 2.0)


def _check_solver_settings(config: KmmConfig | KliepConfig) -> None:
    sigma = config.kernel_bandwidth
    if sigma is not None and not (math.isfinite(sigma)
                                  and sigma >= MIN_BANDWIDTH):
        raise ValueError(f"kernel_bandwidth must be finite and at least "
                         f"{MIN_BANDWIDTH:.3g}")
    if config.max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not config.tol >= 0.0:
        raise ValueError("tol must be >= 0")


def _as_samples(source_X: np.ndarray, target_X: np.ndarray,
                sigma: float | None
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Both samples as float64 matrices of one width, checked before any
    kernel is built, and the kernel bandwidth: ``sigma``, or the median
    pairwise distance of the combined sample when it is None, refused
    below ``MIN_BANDWIDTH``."""
    source_X = checked("source_X", source_X)
    target_X = checked("target_X", target_X,
                       width=(source_X.shape[1], "target_X", "source_X"))
    if len(source_X) < 1 or len(target_X) < 1:
        raise ValueError("source_X and target_X need at least one row each")
    if sigma is None:
        sigma = median_pairwise_distance(source_X, target_X)
        if sigma < MIN_BANDWIDTH:
            raise ValueError(
                f"the median pairwise distance, {sigma:.3g}, is below the "
                f"smallest kernel bandwidth, {MIN_BANDWIDTH:.3g}; scale the "
                f"features up or set kernel_bandwidth")
    return source_X, target_X, sigma


@dataclass(frozen=True)
class KmmConfig:
    """Kernel mean matching parameters.

    ``kernel_bandwidth=None`` uses the median pairwise distance of the
    combined sample; ``eps=None`` uses (sqrt(m)-1)/sqrt(m).

    The solver takes the fixed step m^2/(2L), where L is a certified
    upper bound on the largest eigenvalue of the source kernel matrix K,
    from a few power steps; it computes no eigenvalues. Once the solve is
    done it checks K positive semidefinite by a Cholesky factorization
    in place on K, with O(128 m) extra floats (see ``kmm_weights``). It
    stops once the projected-gradient residual
    max|w - P(w - step * grad f(w))| is at most ``tol``, where P is the
    projection onto the constraints. The residual is in the units of the
    weights and is zero exactly at the optimum. The gradient steps alone
    stall it near 1e-8 in float64; the exact face solves (see
    ``kmm_weights``) reach about 1e-15 where they succeed, so there a
    ``tol`` far below 1e-8 is met too. ``max_iter`` only caps
    the iterations. ``B`` must be finite and positive.
    """

    kernel_bandwidth: float | None = None
    B: float = 1000.0
    eps: float | None = None
    max_iter: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.B) and self.B > 0.0):
            raise ValueError("B must be finite and positive")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        _check_solver_settings(self)


def _project_box_band(v: np.ndarray, B: float, lo: float, hi: float
                      ) -> np.ndarray:
    """Euclidean projection onto {0 <= w <= B, lo <= sum(w) <= hi}.

    The projection is clip(v - lam, 0, B) where lam shifts the sum into
    the band; the sum is monotone in lam, so bisection solves it. The
    bisection keeps sum(left) > want >= sum(right) and returns the end
    on the band's side of the edge it seeks, so rounding never carries
    the sum past that edge. It stops once the ends are adjacent floats,
    after about 55 of its 200 steps: the midpoint is then an end, which
    every later step would leave in place, so the result is bit for bit
    the full loop's.
    """
    m = len(v)
    if m * B < lo:
        raise ValueError("infeasible constraints: m*B below the sum band")
    w = v.clip(0.0, B)
    total = w.sum()
    if lo <= total <= hi:
        return w

    above = total > hi
    want = hi if above else lo
    left, right = float(v.min() - B - 1.0), float(v.max() + 1.0)
    for _ in range(200):
        mid = 0.5 * (left + right)
        if mid == left or mid == right:
            break
        if float((v - mid).clip(0.0, B).sum()) > want:
            left = mid
        else:
            right = mid
    return (v - (right if above else left)).clip(0.0, B)


def _perron_bounds(K: np.ndarray) -> tuple[float, float]:
    """Bounds lo <= lambda_max(K) <= hi for an entrywise nonnegative K
    with a positive diagonal.

    For any positive x, min(Kx/x) <= lambda_max <= max(Kx/x)
    (Collatz-Wielandt). Power steps from x = 1 tighten both bounds until
    they agree to a relative 1e-3, for at most 100 steps; the bounds hold
    after any number of steps.
    """
    x = np.ones(len(K))
    for _ in range(100):
        Kx = K @ x
        ratios = Kx / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-3 * hi:
            break
        # Kx/hi <= x keeps the iterate bounded; the floor keeps it positive
        np.maximum(Kx / hi, np.finfo(float).tiny, out=x)
    return lo, hi


# rows per block of _positive_definite_in_place's factorization
CHOLESKY_BLOCK = 128


def _positive_definite_in_place(A: np.ndarray) -> bool:
    """Whether the symmetric matrix A is numerically positive definite,
    by a blocked Cholesky factorization in place: it reads only A's
    lower triangle, and A holds scratch values afterwards.

    Each ``CHOLESKY_BLOCK``-row diagonal block is factored by
    ``np.linalg.cholesky``, and the first that fails ends the check. The
    panel below the block is multiplied in place by the transposed
    inverse of the block's factor L, and the trailing lower triangle is
    then updated in place, one block row at a time. The scratch is
    panel-sized, about 2 * CHOLESKY_BLOCK * m floats. With at most
    ``CHOLESKY_BLOCK`` rows the check is one ``np.linalg.cholesky`` call
    on A itself.
    """
    m = len(A)
    for start in range(0, m, CHOLESKY_BLOCK):
        stop = min(start + CHOLESKY_BLOCK, m)
        try:
            factor = np.linalg.cholesky(A[start:stop, start:stop])
        except np.linalg.LinAlgError:
            return False
        if stop == m:
            break
        # the panel becomes A_21 L^-T, the factor's block below L
        panel = A[stop:, start:stop]
        panel[...] = panel @ np.linalg.inv(factor).T
        for row in range(stop, m, CHOLESKY_BLOCK):
            end = min(row + CHOLESKY_BLOCK, m)
            A[row:end, stop:end] -= (panel[row - stop:end - stop]
                                     @ panel[:end - stop].T)
    return True


# kernel products after which kmm_weights tries its active-set finish,
# and again each time the count doubles; earlier tries meet the 500+ row
# faces of the first iterates, which the schedule skips
FINISH_PRODUCTS = 32
# face solves one attempt of the finish may make, and the solves in a row
# that may fail to move fewer rows than its fewest before it gives up
FACE_SOLVES = 32
FACE_STALLS = 3


def kmm_weights(source_X: np.ndarray, target_X: np.ndarray,
                config: KmmConfig | None = None) -> np.ndarray:
    """Source weights matching the weighted source mean embedding to the
    target mean embedding in a Gaussian RKHS.

    Minimizes ||(1/m) sum_i w_i phi(x_i) - (1/n) sum_j phi(x'_j)||^2
    subject to 0 <= w <= B and |sum(w) - m| <= m*eps, by FISTA with a
    fixed 1/L step, restarted whenever the objective rises. The loop
    stops only when the weights meet ``config.tol`` or after
    ``config.max_iter`` iterations (see ``KmmConfig``); the accepted
    objectives do not rise, up to rounding, so the returned weights are
    the best iterate found.

    The face of a point is its free rows, in (0, B), and its rows at B.
    After ``FINISH_PRODUCTS`` kernel products, and again each time that
    count doubles, a primal-dual active-set finish (Hintermueller, Ito &
    Kunisch 2002) starts from the face of the iterate. Each step solves
    for the minimizer of the objective over the face: the other rows
    held at 0 or B, and the sum at a band edge when the free minimizer
    leaves the band. A solved point inside the box ends the loop when it
    meets ``config.tol``. Otherwise the next face takes, at once, the
    free rows the solve left in (0, B), the free rows it put at or above
    B (held at B), the rows at 0 whose gradient, net of the band's
    multiplier, is negative and the rows at B where it is positive. An
    attempt gives up, and FISTA goes on from its own iterate, after
    ``FACE_SOLVES`` solves, when one solve moves more rows than twice
    the first face holds, or when the number of rows that move has not
    fallen below its fewest for ``FACE_STALLS`` solves in a row (the
    backup rule of Judice & Pires 1994 counts the same moves). The
    schedule skips faces of more than half the rows: one solve there
    costs about as much as m/5 kernel products, and on low-dimension
    draws the steps from such faces cycled far more often than they
    finished. Where the gradient steps meet ``config.tol`` first, one
    attempt starts from that iterate, on a face of any size, and its
    point replaces the iterate only where it meets ``config.tol`` too.
    Each solve is one LU solve of the face's block of K. Gradient
    projection finds the face, the solves finish the problem (More &
    Toraldo 1991).

    Every kernel product, the loop's and the finish's, is x @ K over all
    m rows, which is K @ x because K is exactly symmetric.

    L is the Collatz-Wielandt upper bound on the largest eigenvalue of
    the jittered kernel matrix K, from a few power steps; no
    eigendecomposition is made. K must be positive semidefinite. Once
    the solve is done and K is read no more, K + tau*I, with
    tau = 1e-6 * max(lo, 1) and lo the matching lower bound, is factored
    in place on K by ``_positive_definite_in_place``, with O(128 m) extra
    floats, so the check makes no second m x m array. A factorization
    that fails raises ``ArithmeticError`` before any weights are
    returned.
    """
    config = config or KmmConfig()
    source_X, target_X, sigma = _as_samples(source_X, target_X,
                                            config.kernel_bandwidth)
    # with one contiguous X, X @ X.T is a symmetric rank-k update, so K
    # comes out exactly symmetric
    source_X = np.ascontiguousarray(source_X)
    m, n = len(source_X), len(target_X)
    eps = config.eps
    if eps is None:
        eps = (math.sqrt(m) - 1.0) / math.sqrt(m)
        eps = max(eps, 1e-12)
    B = config.B

    K = _gaussian_kernel(source_X, source_X, sigma)
    diagonal = np.einsum("ii->i", K)  # a writable view
    diagonal += 1e-8
    kappa = _gaussian_kernel(source_X, target_X, sigma).sum(axis=1)

    lam_lo, lam_hi = _perron_bounds(K)
    step = (m * m) / (2.0 * max(lam_hi, 1e-12))

    lo, hi = m * (1.0 - eps), m * (1.0 + eps)
    kappa_term = 2.0 * kappa / (m * n)

    def project(v: np.ndarray) -> np.ndarray:
        return _project_box_band(v, B, lo, hi)

    def rise(w_new: np.ndarray, Kw_new: np.ndarray, w: np.ndarray,
             Kw: np.ndarray) -> float:
        # f(w_new) - f(w) = d.K(w_new + w)/m^2 - 2 d.kappa/(m n) with
        # d = w_new - w: its rounding scales with the step, not with f,
        # so it keeps its sign where two evaluations of f would not
        d = w_new - w
        return float(d @ (Kw_new + Kw) / (m * m)
                     - 2.0 * (d @ kappa) / (m * n))

    def gradient(Kw: np.ndarray) -> np.ndarray:
        return 2.0 * Kw / (m * m) - kappa_term

    def residual(w: np.ndarray, Kw: np.ndarray) -> float:
        return float(np.abs(w - project(w - step * gradient(Kw))).max())

    def face_solve(F: np.ndarray, U: np.ndarray
                   ) -> tuple[np.ndarray, float] | None:
        # the minimizer of f over a face: the free rows F solve
        # K_FF w_F = (m/n) kappa_F - B K_FU 1 by one LU solve, with the
        # rows at B (U) held there and the rest at 0 (K is exactly
        # symmetric, so K_FU 1 is summed over K_UF's rows, one row at a
        # time). When that point's sum leaves the band, one multiplier c
        # on the sum holds it at the crossed edge and shifts the gradient
        # on F to -2c/m^2; returns w_F and 2c/m^2. None when K_FF is
        # exactly singular or no free row can move the sum. The solve
        # does not check K_FF definite: its point counts only inside the
        # box and where it meets tol, and K's own check stands
        rhs = np.empty((len(F), 2))
        rhs[:, 0] = (m / n) * kappa[F] - B * K[np.ix_(U, F)].sum(axis=0)
        rhs[:, 1] = 1.0
        try:
            a, b = np.linalg.solve(K[np.ix_(F, F)], rhs).T
        except np.linalg.LinAlgError:
            return None
        total = a.sum() + B * len(U)
        if lo <= total <= hi:
            return a, 0.0
        if len(F) == 0:
            return None
        c = (total - (hi if total > hi else lo)) / b.sum()
        a -= c * b
        return a, 2.0 * c / (m * m)

    def finish(w: np.ndarray) -> np.ndarray | None:
        # the active-set finish from the face of w (see the docstring):
        # the face point that meets tol, or None
        free, at_b = (w > 0.0) & (w < B), w == B
        fewest, stalls = m + 1, 0
        first = np.count_nonzero(free | at_b)
        for k in range(FACE_SOLVES):
            F, U = np.flatnonzero(free), np.flatnonzero(at_b)
            point = face_solve(F, U)
            if point is None:
                return None
            a, shift = point
            x = np.zeros(m)
            x[F] = a
            x[U] = B
            inside = ((a > 0.0) & (a < B)).all()
            if inside:
                # a sum held at an edge can round just past it; the
                # projection puts it back as it does for the iterates
                x = project(x)
            elif k + 1 == FACE_SOLVES:
                return None
            Kx = x @ K
            if inside and residual(x, Kx) <= config.tol:
                return x
            reduced = gradient(Kx) + shift
            stay = (x > 0.0) & (x < B)
            new_free = ((free & stay) | (at_b & (reduced > 0.0))
                        | (~(free | at_b) & (reduced < 0.0)))
            new_at_b = (free & (x >= B)) | (at_b & (reduced <= 0.0))
            moved = (np.count_nonzero(new_free != free)
                     + np.count_nonzero(new_at_b != at_b))
            # a solve that moves more rows than twice the first face
            # holds marks a face FISTA has not found yet
            if moved == 0 or moved > 2 * first:
                return None
            if moved < fewest:
                fewest, stalls = moved, 0
            else:
                stalls += 1
                if stalls == FACE_STALLS:
                    return None
            free, at_b = new_free, new_at_b
        return None

    # FISTA (Beck & Teboulle 2009) with a restart whenever the objective
    # rises (O'Donoghue & Candes 2015): a rejected point sends the loop
    # back to the last accepted iterate w with no momentum. A plain
    # projected-gradient step from w (y is w) never raises the objective
    # in exact arithmetic, so it is always taken and the loop ends only
    # on tol or max_iter. The extrapolated point's K @ y follows from the
    # last two products. The active-set finish (see the docstring)
    # replaces w only when its point passes the same stop test.
    w = project(np.ones(m))
    Kw = w @ K
    y, Ky, t = w, Kw, 1.0
    next_finish = FINISH_PRODUCTS
    # products counts the kernel products, this iteration's included
    for products in range(2, config.max_iter + 2):
        w_new = project(y - step * gradient(Ky))
        Kw_new = w_new @ K
        if y is not w and rise(w_new, Kw_new, w, Kw) > 0.0:
            y, Ky, t = w, Kw, 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y = w_new + beta * (w_new - w)
        Ky = Kw_new + beta * (Kw_new - Kw)
        w, Kw, t = w_new, Kw_new, t_new
        if residual(w, Kw) <= config.tol:
            w_face = finish(w)
            if w_face is not None:
                w = w_face
            break
        if products >= next_finish:
            next_finish *= 2
            if 2 * np.count_nonzero(w) <= m:
                w_face = finish(w)
                if w_face is not None:
                    w = w_face
                    break
    # K is read no more, so its definiteness check may overwrite it
    diagonal += 1e-6 * max(lam_lo, 1.0)
    if not _positive_definite_in_place(K):
        raise ArithmeticError("kernel matrix not positive semidefinite "
                              "after jitter")
    if not np.isfinite(w).all():
        raise ArithmeticError("KMM produced non-finite weights")
    return w


@dataclass(frozen=True)
class KliepConfig:
    """KLIEP parameters; centers are drawn from the target sample."""

    n_centers: int = 100
    kernel_bandwidth: float | None = None
    max_iter: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        _require_integer("n_centers", self.n_centers)
        if self.n_centers < 1:
            raise ValueError("n_centers must be >= 1")
        _check_solver_settings(self)


def kliep_weights(source_X: np.ndarray, target_X: np.ndarray,
                  config: KliepConfig | None = None,
                  objective_trace: list[float] | None = None) -> np.ndarray:
    """Density-ratio weights from KL-divergence minimization.

    Maximizes sum_j log(sum_l alpha_l k(x'_j, c_l)) over alpha >= 0
    under b.alpha = 1, where b_l = (1/m) sum_i k(x_i, c_l); row i's
    weight is sum_l alpha_l k(x_i, c_l). The ascent runs on
    beta = b * alpha, which the constraints put on the probability
    simplex. Each trial step follows the gradient scaled to a largest
    entry of n, as at the optimum (near a face one entry can reach
    1e16), is projected by ``_project_box_band`` and halves until the
    objective does not fall; the loop stops once a step gains less than
    ``config.tol``. The optimum is often sparse: one or two of the 100
    centers on the paper's dim-64 draws. At most min(n_centers, n)
    target points are centers. A center with no kernel mass on the
    source rows (b_l below ``TINY``, which keeps k/b and 1/mass finite)
    leaves the objective unbounded, and a target point with none under
    any center leaves it -inf; both are a ``ValueError``.

    ``objective_trace``, when given a list, receives the starting
    objective and then the value after every accepted step.
    """
    config = config or KliepConfig()
    source_X, target_X, sigma = _as_samples(source_X, target_X,
                                            config.kernel_bandwidth)
    n = len(target_X)
    rng = np.random.default_rng(config.seed)
    n_centers = min(config.n_centers, n)
    centers = target_X[rng.choice(n, size=n_centers, replace=False)]

    k_src = _gaussian_kernel(source_X, centers, sigma)
    b = k_src.mean(axis=0)
    if b.min() < TINY:
        raise ValueError(
            "a center has zero kernel mass on every source point; "
            "increase the kernel bandwidth"
        )
    # k_tgt in beta's coordinates: k_tgt @ beta = k(x', c) @ alpha
    k_tgt = _gaussian_kernel(target_X, centers, sigma)
    k_tgt /= b

    def objective(beta: np.ndarray) -> float:
        mass = k_tgt @ beta
        if mass.min() < TINY:
            return -math.inf
        return float(np.log(mass).sum())

    beta = np.full(n_centers, 1.0 / n_centers)
    obj = objective(beta)
    if not math.isfinite(obj):
        raise ValueError(
            "a target point has zero kernel mass under every center; "
            "increase the kernel bandwidth"
        )
    trace = [] if objective_trace is None else objective_trace
    trace.append(obj)
    rate = 1.0
    for _ in range(config.max_iter):
        grad = k_tgt.T @ (1.0 / (k_tgt @ beta))
        grad *= n / grad.max()
        while rate > 1e-15:
            trial = _project_box_band(beta + rate * grad, 1.0, 1.0, 1.0)
            obj_trial = objective(trial)
            if obj_trial >= obj:
                break
            rate *= 0.5
        else:
            break
        gain = obj_trial - obj
        beta, obj = trial, obj_trial
        rate *= 1.2
        trace.append(obj)
        if gain < config.tol:
            break
    w = k_src @ (beta / b)
    if not np.isfinite(w).all():
        raise ArithmeticError("KLIEP produced non-finite weights")
    return w


@dataclass(frozen=True)
class TradaboostConfig:
    """Reverse-boosting configuration; the base learner is an MLP fit."""

    n_iterations: int = 10
    arch: ArchSpec = field(default_factory=ArchSpec)
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        _require_integer("n_iterations", self.n_iterations)
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")


@dataclass
class TradaboostEnsemble:
    """Per-iteration learners with weighted-median aggregation.

    Prediction uses the later half of the boosting iterations, each
    learner voting with log(1/beta_t).
    """

    learners: list[Mlp]
    log_inv_betas: list[float]
    final_weights: np.ndarray
    weight_history: list[np.ndarray]

    def predict(self, X: np.ndarray) -> np.ndarray:
        start = len(self.learners) // 2
        nets = self.learners[start:]
        votes = np.array(self.log_inv_betas[start:])
        preds = np.column_stack([forward(net, X) for net in nets])
        order = np.argsort(preds, axis=1)
        cdf = np.cumsum(votes[order], axis=1)
        median_col = np.argmax(cdf >= 0.5 * cdf[:, -1:], axis=1)
        idx = np.take_along_axis(order, median_col[:, None], axis=1)
        return np.take_along_axis(preds, idx, axis=1)[:, 0]


def tradaboost_r2_fit(train: TrainingSet, config: TradaboostConfig | None = None
                      ) -> TradaboostEnsemble:
    """Boosting for regression transfer over the combined training set.

    Source rows are reverse-boosted: their weights shrink by
    beta_s**e_i with beta_s = 1/(1 + sqrt(2 ln m / T)) and e_i the
    max-normalized absolute error. Target rows follow AdaBoost.R2
    updates (error-weighted increase), and the weight vector is
    renormalized to sum one after every iteration. A perfect fit stops
    boosting early.
    """
    config = config or TradaboostConfig()
    if train.n_source < 1 or train.n_target < 1:
        raise ValueError("boosting needs both source and target rows")
    m = train.n_source
    k = len(train)
    is_tgt = train.is_target
    beta_s = 1.0 / (1.0 + math.sqrt(2.0 * math.log(m) / config.n_iterations))

    weights = np.full(k, 1.0 / k)
    learners: list[Mlp] = []
    log_inv_betas: list[float] = []
    history: list[np.ndarray] = []
    for t in range(config.n_iterations):
        net, _ = fit_network(config.arch, train.X, train.y, weights,
                             replace(config.fit, seed=config.fit.seed + t))
        learners.append(net)

        abs_err = np.abs(forward(net, train.X) - train.y)
        err_max = float(abs_err.max())
        if err_max == 0.0:
            log_inv_betas.append(-math.log(EPS))
            break
        e = abs_err / err_max
        eps_t = float(weights[is_tgt] @ e[is_tgt]) / float(weights[is_tgt].sum())
        eps_t = min(max(eps_t, EPS), 0.5)
        beta_t = eps_t / (1.0 - eps_t)
        log_inv_betas.append(max(math.log(1.0 / beta_t), EPS))

        weights = weights.copy()
        weights[~is_tgt] *= beta_s ** e[~is_tgt]
        weights[is_tgt] *= beta_t ** (-e[is_tgt])
        weights /= weights.sum()
        history.append(weights.copy())
    return TradaboostEnsemble(learners, log_inv_betas, weights, history)
