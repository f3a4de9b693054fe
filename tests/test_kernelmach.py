"""Kernel machines, random feature models, and the width sweep."""

import math
import threading
import warnings

import numpy as np
import pytest

from interplab import datagen, kernelmach as km, numlin
from interplab.errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidInput,
    InvalidSpec,
)
from interplab.rng import substream


def _two_point_laplace():
    # distance ln 2 apart so the off-diagonal kernel value is exactly 1/2
    X = np.array([[0.0], [math.log(2.0)]])
    y = np.array([1.0, 1.0])
    return datagen.make_dataset(X, y)


# --- kernel evaluation ---

def test_laplace_value_at_log_two():
    spec = km.KernelSpec("laplace", 1.0)
    v = km.kernel_matrix(spec, [[0.0]], [[math.log(2.0)]])[0, 0]
    assert abs(v - 0.5) < 1e-15


def test_gaussian_value_at_sqrt_two():
    spec = km.KernelSpec("gaussian", 1.0)
    v = km.kernel_matrix(spec, [[0.0, 0.0]], [[1.0, 1.0]])[0, 0]
    assert abs(v - math.exp(-1.0)) < 1e-15


def test_kernel_matrix_matches_pointwise_eval():
    rng = substream(9, "km-pointwise")
    X = rng.standard_normal((7, 3))
    Z = rng.standard_normal((4, 3))
    for family, b in (("gaussian", 0.7), ("laplace", 1.3)):
        spec = km.KernelSpec(family, b)
        K = km.kernel_matrix(spec, X, Z)
        assert K.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                assert abs(K[i, j] - km.kernel_matrix(spec, X[i:i + 1], Z[j:j + 1])[0, 0]) < 1e-12


def test_kernel_matrix_symmetric_unit_diagonal_psd():
    rng = substream(10, "km-psd")
    X = rng.standard_normal((30, 4))
    for family in ("gaussian", "laplace"):
        K = km.kernel_matrix(km.KernelSpec(family, 0.9), X)
        assert np.allclose(K, K.T, atol=1e-14)
        assert np.allclose(np.diag(K), 1.0, atol=1e-14)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-10


def _kernel_matrix_one_expression(spec, X, Z=None):
    """The unblocked form kernel_matrix replaced, kept as its oracle."""
    Z = X if Z is None else Z
    d2 = np.maximum(
        (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * X @ Z.T,
        0.0,
    )
    if spec.family == "gaussian":
        return np.exp(-d2 / (2.0 * spec.bandwidth**2))
    return np.exp(-np.sqrt(d2) / spec.bandwidth)


def _points(rng, n, dim):
    # scattered points at mixed scales with repeated rows, so some squared
    # distances round below zero and the clamp at 0 is exercised
    X = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
    X[rng.random(n) < 0.2] = X[0]
    return X


@pytest.mark.parametrize("seed", range(3))
def test_blocked_kernel_matrix_matches_one_expression(seed, monkeypatch):
    rng = substream(seed, "km-blocked")
    specs = [km.KernelSpec(family, bw) for family in ("gaussian", "laplace")
             for bw in (0.05, 0.9, 1.0, 7.3)]
    dim = int(rng.integers(1, 25))

    def check(X, Z=None):
        # the epilogue is symmetric in i and j, so K equals its transpose
        # exactly wherever the GEMM's 2 X X^T does; with one input column
        # every GEMM entry is a single product, so that always holds
        gemm_symmetric = False
        if Z is None:
            G = 2.0 * X @ X.T
            gemm_symmetric = np.array_equal(G, G.T)
            assert gemm_symmetric or X.shape[1] > 1
        # K(X, X) has an exact unit diagonal, where the one-expression
        # form keeps a rounding residue; every other entry matches it
        off = ~np.eye(X.shape[0], dtype=bool) if Z is None else slice(None)
        for spec in specs:
            K = km.kernel_matrix(spec, X, Z)
            assert np.array_equal(K[off], _kernel_matrix_one_expression(spec, X, Z)[off]), spec
            if Z is None:
                assert np.all(np.diag(K) == 1.0), spec
            if gemm_symmetric:
                assert np.array_equal(K, K.T), spec

    # Z != X at the real block height: row counts around the block edges
    Z = _points(rng, 300, dim)
    block = km._BLOCK_BYTES // (8 * Z.shape[0])
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        check(_points(rng, n, dim), Z)
    check(_points(rng, 1, dim), _points(rng, 2000, dim))  # one query, many centres
    check(_points(rng, 500, dim))                          # Z is None, real height
    # Z is None has as many columns as rows, so fix the block height at 8
    for n in (1, 7, 8, 9, 19):
        monkeypatch.setattr(km, "_BLOCK_BYTES", 8 * n * 8)
        check(_points(rng, n, dim))
        check(_points(rng, n, 1))


def _split_points(rng, n, dim, root_max):
    # a quarter of the rows at +-0.7 sqrt(float max) on the first axis:
    # two of them of opposite sign are a squared distance 1.96 * float max
    # apart, which overflows to inf and gives the kernel's limit 0
    X = _points(rng, n, dim)
    far = rng.random(n) < 0.25
    X[far] = 0.0
    X[far, 0] = 0.7 * root_max * rng.choice([-1.0, 1.0], size=int(far.sum()))
    return X


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_kernel_matrix_matches_one_expression(cores, force_cores, monkeypatch):
    # the row blocks split over the cores move no bit of the one-expression
    # form, whose diagonal is 1 where kernel_matrix zeroes the distance
    started = force_cores(cores)
    rng = substream(cores, "km-split")
    root_max = math.sqrt(np.finfo(float).max)
    before = threading.active_count()
    rows = [1, cores, cores + 1, 4 * cores - 1, 4 * cores, 4 * cores + 1]
    rows += [int(v) for v in rng.integers(1, 60, size=6)]
    limits = 0
    for n in rows:
        dim = int(rng.integers(1, 6))
        X = _split_points(rng, n, dim, root_max)
        Z = _split_points(rng, int(rng.integers(1, 40)), dim, root_max)
        for family in (km.GAUSSIAN, km.LAPLACE):
            spec = km.KernelSpec(family, float(rng.choice([0.05, 1.0, 7.3])))
            for other in (None, X, Z):
                cols = n if other is None or other is X else Z.shape[0]
                # one row per block, so that there are n blocks to split
                monkeypatch.setattr(km, "_BLOCK_BYTES", 8 * cols)
                with np.errstate(over="ignore"):
                    want = _kernel_matrix_one_expression(spec, X, other)
                if other is None or other is X:
                    np.fill_diagonal(want, 1.0)
                started.clear()
                with warnings.catch_warnings():
                    # an overflow warned on a worker would raise there, then here
                    warnings.simplefilter("error")
                    got = km.kernel_matrix(spec, X, other)
                assert got.tobytes() == want.tobytes(), (n, family, cols)
                assert len(started) < cores
                if n < 4:
                    assert not started, n                 # a few blocks run inline
                if n >= 4 * cores:
                    assert len(started) == cores - 1, n   # many use every core
                assert not any(t.is_alive() for t in started)
                limits += int(np.count_nonzero(got == 0.0))
    assert limits > 0
    assert threading.active_count() == before


def test_kernel_matrix_diagonal_is_exactly_one():
    # |x|^2 + |x|^2 - 2 x.x rounds away from 0 on many rows at these sizes,
    # and laplace's sqrt lifts that to about 1e-8 of the diagonal
    rng = substream(14, "km-unit-diagonal")
    for dim in (1, 3, 20, 64):
        X = rng.standard_normal((400, dim)) * rng.choice([1e-3, 1.0, 30.0], size=(400, 1))
        for spec in [km.KernelSpec(family, bw) for family in ("gaussian", "laplace")
                     for bw in (0.05, 1.0, 7.3, 1e6)] + [km.KernelSpec("laplace", 1e-300)]:
            K = km.kernel_matrix(spec, X)
            assert np.all(np.diag(K) == 1.0), (dim, spec)
            assert np.array_equal(km.kernel_matrix(spec, X, X), K), (dim, spec)
    # a bandwidth far below every distance makes K(X, X) the identity
    K = km.kernel_matrix(km.KernelSpec("laplace", 1e-300), rng.standard_normal((50, 4)))
    assert np.array_equal(K, np.eye(50))


def test_kernel_values_shrink_with_distance():
    spec = km.KernelSpec("laplace", 2.0)
    d = np.linspace(0.1, 5.0, 20)
    vals = [km.kernel_matrix(spec, [[0.0]], [[t]])[0, 0] for t in d]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_bad_kernel_family_rejected():
    with pytest.raises(InvalidSpec):
        km.kernel_matrix(km.KernelSpec("cubic", 1.0), np.zeros((2, 1)))
    for bandwidth in (0.0, -1.0, math.inf, math.nan, float("1e400")):
        with pytest.raises(InvalidSpec):
            km.KernelSpec("gaussian", bandwidth)
    # 2 bw^2 overflows, or leaves the normal range; laplace divides by bw itself
    for bandwidth in (1e200, 1e-200, 1e-154):
        with pytest.raises(InvalidSpec, match="gaussian bandwidth"):
            km.KernelSpec("gaussian", bandwidth)
        km.KernelSpec("laplace", bandwidth)
    km.KernelSpec("gaussian", 1e150)
    km.KernelSpec("gaussian", 1e-150)


# --- interpolating fits ---

def test_two_point_fit_worked_example():
    # K = [[1, 1/2], [1/2, 1]], y = (1, 1) -> alpha = (2/3, 2/3), norm^2 = 4/3
    mach = km.fit_interpolating(km.KernelSpec("laplace", 1.0), _two_point_laplace())
    assert np.allclose(mach.alpha, [2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert abs(mach.alpha @ mach.train_pred - 4.0 / 3.0) < 1e-12   # alpha^T K alpha
    assert mach.fit_jitter == 0.0


def test_fit_interpolates_training_data():
    rng = substream(11, "km-fit")
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    ds = datagen.make_dataset(X, np.ones(40))
    for family in ("laplace", "gaussian"):
        mach = km.fit_interpolating(km.KernelSpec(family, 1.0), ds, labels=y)
        bound = 1e-6 * (1.0 + np.abs(y).max())
        assert mach.fit_residual <= bound
        pred = km.kernel_predict(mach, X)
        assert np.abs(pred - y).max() <= bound


def test_norm_quadratic_under_label_scaling():
    ds = _two_point_laplace()
    spec = km.KernelSpec("laplace", 1.0)
    base = km.fit_interpolating(spec, ds)
    doubled = km.fit_interpolating(spec, ds, labels=2.0 * ds.y)
    # the native-space norm alpha^T K alpha, with K alpha the fitted values
    assert abs(doubled.alpha @ doubled.train_pred
               - 4.0 * (base.alpha @ base.train_pred)) < 1e-9


def test_jitter_ladder_engages_on_flat_kernel():
    # gaussian with a wide bandwidth on a tight grid is not PD at jitter zero
    X = np.linspace(0.0, 1.0, 20)[:, None]
    y = np.sin(3.0 * X[:, 0])
    ds = datagen.make_dataset(X, np.ones(20))
    mach = km.fit_interpolating(km.KernelSpec("gaussian", 0.5), ds, labels=y)
    assert mach.fit_jitter > 0.0
    assert mach.fit_residual <= 1e-6 * (1.0 + np.abs(y).max())


def test_hopeless_conditioning_raises_instead_of_fitting_badly():
    X = np.linspace(0.0, 1.0, 20)[:, None]
    y = np.sin(3.0 * X[:, 0])
    ds = datagen.make_dataset(X, np.ones(20))
    with pytest.raises(IllConditioned):
        km.fit_interpolating(km.KernelSpec("gaussian", 2.0), ds, labels=y)


def test_prediction_far_from_data_decays():
    ds = _two_point_laplace()
    mach = km.fit_interpolating(km.KernelSpec("laplace", 1.0), ds)
    far = km.kernel_predict(mach, np.array([[50.0]]))
    assert abs(far[0]) < 1e-15


def _per_column_reference(spec, ds, labels):
    """The multi-column rule from 1-D fits: the first rung of the ladder at
    which every column's own fit passes its certificate, with those fits.
    Each 1-D fit runs with the ladder cut down to that one rung."""
    for jitter in km.JITTER_LADDER:
        fits = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km, "JITTER_LADDER", (jitter,))
            for column in labels.T:
                try:
                    fits.append(km.fit_interpolating(spec, ds, column))
                except IllConditioned:
                    break
            else:
                return jitter, fits
    return None, []


@pytest.mark.parametrize("seed", range(4))
def test_multi_column_fit_matches_per_column_fits(seed):
    # 30 cases of scattered points, then 10 of a flat gaussian kernel on a
    # tight 1-D grid, where the ladder climbs past jitter zero
    rng = substream(seed, "km-multi-column")
    compared, rungs = 0, set()
    for case in range(40):
        n, d, k = int(rng.integers(5, 201)), int(rng.integers(1, 21)), int(rng.integers(1, 5))
        family = (km.GAUSSIAN, km.LAPLACE)[case % 2]
        spec = km.KernelSpec(family, float(rng.uniform(0.5, 2.0)) * math.sqrt(d))
        X = rng.standard_normal((n, d))
        if case >= 30:
            n, d = int(rng.integers(10, 40)), 1
            spec = km.KernelSpec(km.GAUSSIAN, float(rng.uniform(0.2, 0.8)))
            X = np.sort(rng.uniform(0.0, 1.0, size=(n, 1)), axis=0)
        ds = datagen.make_dataset(X, np.ones(n))
        labels = rng.choice([-1.0, 1.0], size=(ds.n, k))
        if case >= 30:    # smooth columns, the last one rough half the time
            labels = np.sin(rng.uniform(1.0, 5.0, size=k) * ds.X)
            if rng.random() < 0.5:
                labels[:, -1] = rng.choice([-1.0, 1.0], size=ds.n)
        jitter, fits = _per_column_reference(spec, ds, labels)
        if jitter is None:
            with pytest.raises(IllConditioned):
                km.fit_interpolating(spec, ds, labels)
            continue
        machine = km.fit_interpolating(spec, ds, labels)
        assert machine.fit_jitter == jitter
        assert machine.alpha.shape == machine.train_pred.shape == (ds.n, k)
        assert machine.fit_residual == np.abs(machine.train_pred - labels).max()
        # two backward-stable solves on one factor agree to the forward-error
        # bound n * eps * cond(K + jitter I)
        K = km.kernel_matrix(spec, ds.X) + jitter * np.eye(ds.n)
        rtol = ds.n * np.finfo(float).eps * np.linalg.cond(K)
        Z = rng.standard_normal((50, d))
        pred = km.kernel_predict(machine, Z)
        for j, fit in enumerate(fits):
            assert np.abs(machine.alpha[:, j] - fit.alpha).max() <= \
                rtol * np.abs(fit.alpha).max()
            assert np.array_equal(np.sign(pred[:, j]), np.sign(km.kernel_predict(fit, Z)))
            assert np.array_equal(np.sign(machine.train_pred[:, j]), np.sign(fit.train_pred))
        compared += 1
        rungs.add(jitter)
    assert compared >= 20 and len(rungs) >= 2


def test_fit_train_pred_is_prediction_at_centers():
    # the 1-D fit keeps K @ alpha, which is the prediction at the centers
    rng = substream(12, "km-train-pred")
    X = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)
    ds = datagen.make_dataset(X, np.ones(30))
    mach = km.fit_interpolating(km.KernelSpec("laplace", 1.0), ds, labels=y)
    assert np.array_equal(mach.train_pred, km.kernel_predict(mach, ds.X))
    assert mach.fit_residual == np.abs(mach.train_pred - y).max()
    # no labels means train.y
    plain = km.fit_interpolating(km.KernelSpec("laplace", 1.0), ds)
    same = km.fit_interpolating(km.KernelSpec("laplace", 1.0), ds, ds.y)
    assert np.array_equal(same.alpha, plain.alpha)
    for bad in (np.ones(29), np.ones((30, 2, 1))):
        with pytest.raises(DimensionMismatch):
            km.fit_interpolating(km.KernelSpec("laplace", 1.0), ds, bad)


# --- random feature models ---

def _rff_predict(model, X):
    """Real part of the fitted feature model at the rows of X."""
    return np.real(km.rff_features(model.freqs, X) @ model.weights)


def test_one_point_one_feature_weight():
    # m = n = 1: the unique min-norm solution is w = y * exp(-i <v, x>)
    x = np.array([[0.3, -0.7]])
    y = np.array([1.5])
    freqs = km.draw_rff_freqs(1, 2, seed=4)
    model = km.rff_fit_minnorm(x, y, freqs)
    expected = y[0] * np.exp(-1j * float(freqs[0] @ x[0]))
    assert abs(model.weights[0] - expected) < 1e-12
    assert abs(_rff_predict(model, x)[0] - y[0]) < 1e-12


def test_rff_features_unit_modulus():
    rng = substream(12, "rff-mod")
    X = rng.standard_normal((6, 3))
    phi = km.rff_features(km.draw_rff_freqs(9, 3, seed=1), X)
    assert phi.shape == (6, 9)
    assert np.allclose(np.abs(phi), 1.0, atol=1e-14)


def test_rff_freq_prefix_property():
    # width sweeps reuse one stack: shorter draws are prefixes of longer ones
    a = km.draw_rff_freqs(3, 4, seed=7, replicate=2)
    b = km.draw_rff_freqs(10, 4, seed=7, replicate=2)
    assert np.array_equal(a, b[:3])
    c = km.draw_rff_freqs(10, 4, seed=7, replicate=3)
    assert not np.array_equal(b, c)


def test_overparametrized_fit_interpolates():
    rng = substream(13, "rff-interp")
    X = rng.standard_normal((15, 2))
    y = rng.standard_normal(15)
    model = km.rff_fit_minnorm(X, y, km.draw_rff_freqs(60, 2, seed=3))
    resid = km.rff_features(model.freqs, X) @ model.weights - y
    assert np.mean(np.abs(resid) ** 2) < 1e-18
    assert np.abs(_rff_predict(model, X) - y).max() < 1e-9


def test_underparametrized_fit_is_least_squares():
    rng = substream(14, "rff-ls")
    X = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    freqs = km.draw_rff_freqs(6, 2, seed=5)
    model = km.rff_fit_minnorm(X, y, freqs)
    phi = km.rff_features(freqs, X)
    resid = phi @ model.weights - y
    # normal equations: residual orthogonal to every feature column
    assert np.abs(phi.conj().T @ resid).max() < 1e-10


def test_minnorm_matches_complex_lstsq_oracle():
    rng = substream(15, "rff-oracle")
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    for m in (4, 10, 37):
        freqs = km.draw_rff_freqs(m, 3, seed=6)
        model = km.rff_fit_minnorm(X, y, freqs)
        phi = km.rff_features(freqs, X)
        w_ref = np.linalg.lstsq(phi, y.astype(complex), rcond=None)[0]
        assert np.abs(model.weights - w_ref).max() < 1e-8


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_rff_features_match_one_expression(cores, force_cores):
    # the row split over the cores moves no bit of exp((X F^T) i)
    started = force_cores(cores)
    rng = substream(cores, "rff-split")
    before = threading.active_count()
    shapes = [(1, 1, 1), (2, 7, 3), (cores + 1, 4, 2)]   # n below, at and above cores
    shapes += [tuple(int(v) for v in rng.integers(1, 120, size=3)) for _ in range(8)]
    for n, m, d in shapes:
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        X = scale * rng.standard_normal((n, d))
        freqs = rng.standard_normal((m, d))
        started.clear()
        phi = km.rff_features(freqs, X)
        assert phi.tobytes() == np.exp((X @ freqs.T) * 1j).tobytes(), (n, m, d)
        assert len(started) == min(cores, n) - 1
        assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_rff_features_overflowing_phase_rejected_unwarned():
    freqs = np.full((4, 2), 3.0)
    X = np.full((3, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="phases"):
            km.rff_features(freqs, X)


@pytest.mark.parametrize("family", [km.GAUSSIAN, km.LAPLACE])
def test_kernel_matrix_overflow_unwarned(family):
    spec = km.KernelSpec(family, 1.0)
    root_max = math.sqrt(np.finfo(float).max)
    # |x|^2 + |z|^2 fits, but the squared distance (2x)^2 overflows: its
    # kernel value is the limit 0
    X = np.array([[0.7 * root_max], [-0.7 * root_max]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(km.kernel_matrix(spec, X), np.eye(2))
        assert np.array_equal(km.kernel_matrix(spec, X, X[::-1]), np.eye(2)[::-1])
        # max |x|^2 + max |z|^2 reaches the float maximum, or overflows
        for X, Z in (([[0.71 * root_max]], None), ([[0.0]], [[root_max]]),
                     ([[1e160, 0.0]], None), ([[1.0, 1.0]], [[0.0, 1e160]])):
            with pytest.raises(InvalidInput, match="data.scale"):
                km.kernel_matrix(spec, X, Z)


def test_rff_shape_mismatch_rejected():
    freqs = km.draw_rff_freqs(4, 2, seed=1)
    with pytest.raises(DimensionMismatch):
        km.rff_features(freqs, np.zeros((3, 5)))
    with pytest.raises(DimensionMismatch):
        km.rff_fit_minnorm(np.zeros((3, 2)), np.zeros(4), freqs)


def test_scaled_weight_norm_approaches_kernel_norm_from_above():
    # on smooth labels m * ||w||^2 decreases toward the kernel machine's
    # alpha^T K alpha as the feature count grows
    rng = substream(314, "norm-trend")
    X = rng.uniform(-1.5, 1.5, size=(24, 2))
    y = np.sign(X[:, 0])
    ds = datagen.make_dataset(X, y)
    mach = km.fit_interpolating(km.KernelSpec("gaussian", 1.0), ds)
    limit = float(mach.alpha @ mach.train_pred)
    means = []
    for m in (240, 960, 3840):
        ratios = []
        for rep in range(4):
            freqs = km.draw_rff_freqs(m, 2, seed=777, replicate=rep)
            model = km.rff_fit_minnorm(ds.X, ds.y, freqs)
            ratios.append(m * float(np.sum(np.abs(model.weights) ** 2)) / limit)
        means.append(float(np.mean(ratios)))
    assert means[0] > means[1] > means[2]
    assert means[2] > 1.0
    assert means[2] < 2.5


# --- width sweep ---

def _sweep_fixture():
    train = datagen.sample(datagen.TwoGaussians(3.0, 1.0, dim=10, seed=21), 60)
    test = datagen.sample(datagen.TwoGaussians(3.0, 1.0, dim=10, seed=22), 500)
    grid = [6, 12, 24, 48, 60, 72, 120, 300, 600]
    return train, test, grid


def test_sweep_shapes_and_row_layout():
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    assert list(res.m_grid) == grid
    assert len(res.rows) == len(grid) * 3
    for row in res.rows:
        assert len(row) == 7
        m, rep, tr, te, zo, nrm, thr = row
        assert m in grid and 0 <= rep < 3
        assert tr >= 0.0 and te >= 0.0 and 0.0 <= zo <= 1.0 and nrm >= 0.0
        assert thr == res.thresholds[rep]


def test_sweep_matches_per_width_fit_reference():
    # the reference refits every width from its own frequency prefix
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    ref_rows = []
    for rep in range(3):
        stack = km.draw_rff_freqs(grid[-1], train.dim, 5, replicate=rep)
        thr, rep_rows = -1, []
        for m in grid:
            model = km.rff_fit_minnorm(train.X, train.y, stack[:m])
            resid = km.rff_features(model.freqs, train.X) @ model.weights - train.y
            tr = float(np.mean(np.abs(resid) ** 2))
            pred = _rff_predict(model, test.X)
            rep_rows.append([m, rep, tr, float(np.mean((pred - test.y) ** 2)),
                             float(np.mean(datagen.to_labels(pred) != test.y)),
                             float(np.linalg.norm(model.weights))])
            if thr < 0 and tr <= km.TRAIN_MSE_THRESHOLD:
                thr = m
        assert res.thresholds[rep] == thr
        ref_rows += [row + [thr] for row in rep_rows]
    assert len(res.rows) == len(ref_rows)
    for got, ref in zip(res.rows, ref_rows):
        assert got[:2] == tuple(ref[:2]) and got[6] == ref[6]
        for g, r in zip(got[2:6], ref[2:6]):
            assert abs(g - r) <= 1e-10 * max(1.0, abs(r))


def test_sweep_records_the_solve_path():
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    assert res.paths == (numlin.GRAM_PATH,) * len(res.rows)
    # two nearly equal training points leave every width from n up
    # ill-conditioned, so those widths take the SVD, as pinv_apply solves them
    X = train.X.copy()
    X[1] = X[0] + 1e-7
    near = datagen.make_dataset(X, train.y)
    res = km.double_descent_sweep(near, test, grid, 3, seed=5)
    assert len(res.paths) == len(res.rows)
    for (m, rep, *_rest, nrm, _thr), path in zip(res.rows, res.paths):
        if m < near.n:
            assert path == numlin.GRAM_PATH
            continue
        assert path == numlin.SVD_PATH
        phi = km.rff_features(km.draw_rff_freqs(grid[-1], near.dim, 5, replicate=rep), near.X)
        assert nrm == float(np.linalg.norm(numlin.pinv_apply(phi[:, :m], near.y)))


def test_sweep_train_mse_monotone_per_replicate():
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    for rep in range(3):
        tr = [row[2] for row in res.rows if row[1] == rep]
        for a, b in zip(tr, tr[1:]):
            assert b <= a + 1e-12


def test_sweep_threshold_at_sample_size():
    # nested draws keep the achieved-interpolation width stable over replicates
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    assert list(res.thresholds) == [60, 60, 60]


def test_sweep_norm_peaks_at_threshold_then_decays():
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    peak = int(np.argmax(res.norm_mean))
    thr_idx = grid.index(int(res.thresholds[0]))
    assert abs(peak - thr_idx) <= 1
    after = res.norm_mean[peak:]
    se = res.norm_se[peak:]
    for i in range(len(after) - 1):
        assert after[i + 1] <= after[i] + se[i] + se[i + 1]


def test_sweep_second_descent():
    train, test, grid = _sweep_fixture()
    res = km.double_descent_sweep(train, test, grid, 3, seed=5)
    thr_idx = grid.index(int(res.thresholds[0]))
    assert res.test_01_mean[thr_idx] > res.test_01_mean[-1]
    assert res.test_mse_mean[thr_idx] > res.test_mse_mean[-1]


def test_sweep_reproducible_and_seed_sensitive():
    train, test, grid = _sweep_fixture()
    a = km.double_descent_sweep(train, test, grid[:5], 2, seed=5)
    b = km.double_descent_sweep(train, test, grid[:5], 2, seed=5)
    assert a.rows == b.rows
    c = km.double_descent_sweep(train, test, grid[:5], 2, seed=6)
    assert a.rows != c.rows


def test_sweep_input_validation():
    train, test, grid = _sweep_fixture()
    with pytest.raises(InvalidSpec):
        km.double_descent_sweep(train, test, [], 2, seed=1)
    with pytest.raises(InvalidSpec):
        km.double_descent_sweep(train, test, [0, 5], 2, seed=1)
    with pytest.raises(InvalidSpec):
        km.double_descent_sweep(train, test, grid, 0, seed=1)
